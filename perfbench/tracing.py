"""Per-layer spans, recorded from outside the package.

The tracer replaces public callables of each module (class methods, and
module attributes the runner looks up by name) with wrappers that time
each call and keep a stack, so a span's self time is its duration minus
the spans it encloses. Nothing under ``src`` knows about it. Tracing is
installed only for the traced repeat of a round; the end-to-end figures
come from rounds run without it.
"""

from __future__ import annotations

import zipfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.hidden_s = 0.0  # time spent in the tracer's own callbacks
        self.passed = 0  # calls let through untimed, outside their ``within`` span
        self._stack = []  # [span name, time covered by child spans]
        self._undo = []

    def wrap(self, owner, attr, span, within=None, after=None):
        """Time calls of ``owner.attr`` as ``span``.

        With ``within``, only calls made inside a ``within`` span count.
        ``after(args, kwargs, result)`` runs outside every span's time.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack = self._stack

        def traced(*args, **kwargs):
            if within is not None and not any(frame[0] == within for frame in stack):
                self.passed += 1
                return orig(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.total[span] += dt
                self.self_time[span] += dt - frame[1]
                self.calls[span] += 1
            if after is not None:
                t1 = perf_counter()
                after(args, kwargs, result)
                hidden = perf_counter() - t1
                self.hidden_s += hidden
                if stack:
                    stack[-1][1] += hidden
            return result

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @property
    def wrapped_calls(self) -> int:
        return sum(self.calls.values()) + self.passed


class _Noop:
    def call(self):
        return None


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds one traced call adds over the bare call, on a no-op method."""
    probe = _Noop()
    t0 = perf_counter()
    for _ in range(calls):
        probe.call()
    bare = perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(_Noop, "call", "noop")
    try:
        t0 = perf_counter()
        for _ in range(calls):
            probe.call()
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    return max(traced - bare, 0.0) / calls


class SamplerRecorder:
    """Keeps every ``every``-th sampler call with the parameters it used.

    Parameters are copied only when they changed since the last kept call,
    so a training round holds about one copy per update.
    """

    def __init__(self, every: int):
        self.every = every
        self.calls = 0
        self.records = []
        self._params = None

    def __call__(self, args, kwargs, result):
        index = self.calls
        self.calls += 1
        if index % self.every:
            return
        policy, features = args[0], args[1]
        last = self._params
        if last is None or any(not np.array_equal(last[k], v) for k, v in policy.params.items()):
            last = self._params = {k: v.copy() for k, v in policy.params.items()}
        tokens, lengths, logps = result
        self.records.append((policy.meta(), last, np.array(features, dtype=np.float64), tokens, lengths, logps))


def install_sampler(tracer: Tracer, recorder: SamplerRecorder):
    """Times the sampler, counts the tokens it returns and feeds ``recorder``."""
    import tsclab.policy as pol

    def after(args, kwargs, result):
        recorder(args, kwargs, result)
        tracer.counts["policy.sampled_tokens"] += int(result[1].sum())

    tracer.wrap(pol.TokenPolicy, "sample", "policy.sample", after=after)


def install_layers(tracer: Tracer):
    """Wraps the public callables of every layer the runner drives.

    Names that ``tsclab.experiment`` imports by name are wrapped in its
    namespace, since that is where the runner looks them up.
    """
    import tsclab._kernels as kernels
    import tsclab.baselines as baselines
    import tsclab.experiment as experiment
    import tsclab.policy as policy
    import tsclab.sim as sim
    import tsclab.trainer as trainer

    def histogram_responses(args, kwargs, result):
        tracer.counts["phases.histogram_responses"] += len(args[0])

    def checkpoint_size(args, kwargs, result):
        path = Path(args[0])
        tracer.counts["trainer.checkpoint_bytes"] += path.stat().st_size
        with zipfile.ZipFile(path) as zf:
            tracer.counts["trainer.checkpoint_entries"] += len(zf.infolist())

    w = tracer.wrap
    w(sim.Intersection, "step", "sim.step")
    w(sim.Intersection, "queue_length", "sim.queue_length")
    w(sim.Intersection, "observe", "sim.observe")
    w(experiment, "verbalize", "phases.verbalize")
    w(experiment, "extract_phase", "phases.extract")
    w(experiment, "phase_histogram", "phases.histogram", after=histogram_responses)
    w(policy.TokenPolicy, "logprobs", "policy.ref_logprobs")
    w(policy.ValueHead, "value", "policy.value")
    w(kernels, "derive_key", "kernels.derive_key")
    for name in ("env_reward", "decision_reward", "assemble_token_rewards"):
        w(experiment, name, "rewards")
    w(trainer.PPOTrainer, "update", "trainer.update")
    for owner, attr, span in (
        (policy.TokenPolicy, "logprobs_batch", "trainer.forward"),
        (policy.ValueHead, "forward_batch", "trainer.forward"),
        (policy.TokenPolicy, "backward_from_dlogits", "trainer.backward"),
        (policy.ValueHead, "backward", "trainer.backward"),
        (trainer.AdamW, "step", "trainer.adamw"),
    ):
        w(owner, attr, span, within="trainer.update")
    w(experiment, "save_checkpoint", "trainer.checkpoint", after=checkpoint_size)
    for cls in (baselines.FixedTimeController, baselines.MaxPressureController, baselines.RandomController):
        w(cls, "decide", "baselines.decide")
    w(experiment.ExperimentRunner, "run_episode", "experiment.episode")
    w(experiment.ExperimentRunner, "train", "experiment.train")


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("sim.step_s", "s/episode"),
    ("sim.step_calls", "count/episode"),
    ("sim.step_us", "us"),
    ("sim.queue_length_s", "s/episode"),
    ("sim.queue_length_calls", "count/episode"),
    ("sim.observe_s", "s/episode"),
    ("sim.vehicles_mean", "vehicles"),
    ("phases.verbalize_s", "s/episode"),
    ("phases.extract_s", "s/episode"),
    ("phases.extract_calls", "count/episode"),
    ("policy.sample_s", "s/episode"),
    ("policy.sample_calls", "count/episode"),
    ("policy.sampled_tokens", "count/episode"),
    ("policy.sample_us_per_token", "us/token"),
    ("policy.ref_logprobs_s", "s/episode"),
    ("policy.value_s", "s/episode"),
    ("kernels.derive_key_s", "s/episode"),
    ("kernels.derive_key_calls", "count/episode"),
    ("rewards.s", "s/episode"),
    ("trainer.update_s", "s/episode"),
    ("trainer.updates", "count/episode"),
    ("trainer.forward_s", "s/episode"),
    ("trainer.backward_s", "s/episode"),
    ("trainer.adamw_s", "s/episode"),
    ("trainer.checkpoint_s", "s/episode"),
    ("trainer.checkpoint_bytes", "B/episode"),
    ("trainer.checkpoint_entries", "count/episode"),
    ("baselines.decide_s", "s/episode"),
    ("experiment.holdout_s", "s/episode"),
    ("experiment.self_s", "s/episode"),
    ("trace.overhead_pct", "%"),
    ("trace.wrapper_pct", "%"),
    ("trace.wrapped_calls", "count/episode"),
)


def layer_values(
    tracer: Tracer, episodes: int, vehicles_mean: float, traced_wall: float, untraced_wall: float
) -> dict:
    """Per-episode layer figures from one traced round of ``episodes`` episodes.

    ``trace.overhead_pct`` compares the traced round's wall time with the
    same round untraced. ``trace.wrapper_pct`` is the share of the traced
    round spent in the wrappers themselves: wrapped calls times the
    measured cost of one, which host noise disturbs far less.
    """
    t, c, n = tracer.total, tracer.calls, tracer.counts
    per = 1.0 / episodes

    def us_per(seconds, amount):
        return 1e6 * seconds / amount if amount else 0.0

    holdout = t["experiment.train"] - t["experiment.episode"] if c["experiment.train"] else 0.0
    values = {
        "sim.step_s": t["sim.step"] * per,
        "sim.step_calls": c["sim.step"] * per,
        "sim.step_us": us_per(t["sim.step"], c["sim.step"]),
        "sim.queue_length_s": t["sim.queue_length"] * per,
        "sim.queue_length_calls": c["sim.queue_length"] * per,
        "sim.observe_s": t["sim.observe"] * per,
        "sim.vehicles_mean": vehicles_mean,
        "phases.verbalize_s": t["phases.verbalize"] * per,
        "phases.extract_s": (t["phases.extract"] + t["phases.histogram"]) * per,
        "phases.extract_calls": (c["phases.extract"] + n["phases.histogram_responses"]) * per,
        "policy.sample_s": t["policy.sample"] * per,
        "policy.sample_calls": c["policy.sample"] * per,
        "policy.sampled_tokens": n["policy.sampled_tokens"] * per,
        "policy.sample_us_per_token": us_per(t["policy.sample"], n["policy.sampled_tokens"]),
        "policy.ref_logprobs_s": t["policy.ref_logprobs"] * per,
        "policy.value_s": t["policy.value"] * per,
        "kernels.derive_key_s": t["kernels.derive_key"] * per,
        "kernels.derive_key_calls": c["kernels.derive_key"] * per,
        "rewards.s": t["rewards"] * per,
        "trainer.update_s": t["trainer.update"] * per,
        "trainer.updates": c["trainer.update"] * per,
        "trainer.forward_s": t["trainer.forward"] * per,
        "trainer.backward_s": t["trainer.backward"] * per,
        "trainer.adamw_s": t["trainer.adamw"] * per,
        "trainer.checkpoint_s": t["trainer.checkpoint"] * per,
        "trainer.checkpoint_bytes": n["trainer.checkpoint_bytes"] * per,
        "trainer.checkpoint_entries": n["trainer.checkpoint_entries"] * per,
        "baselines.decide_s": t["baselines.decide"] * per,
        "experiment.holdout_s": holdout * per,
        "experiment.self_s": tracer.self_time["experiment.episode"] * per,
        "trace.overhead_pct": 100.0 * ((traced_wall - tracer.hidden_s) / untraced_wall - 1.0),
        "trace.wrapper_pct": 100.0 * tracer.wrapped_calls * wrapper_cost() / traced_wall,
        "trace.wrapped_calls": tracer.wrapped_calls * per,
    }
    return values
