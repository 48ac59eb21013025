"""Config-driven seeded experiment runner.

One runner owns the simulator, the token pipeline, the trainer, and all
output sinks. The episode loop takes a decision every ``decision_interval``
steps; each decision's reward closes at the next decision point (queue
difference over the interval), so records enter the buffer one decision
late and the final one closes at episode end. Updates and mid-episode
checkpoints fire on fixed timestep boundaries, and checkpoints capture the
complete loop state so a restored run continues bit-identically. ``train``
writes the snapshot that starts the next episode, after the held-out run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import _kernels
from .baselines import FixedTimeController, MaxPressureController, RandomController
from .phases import FILLER_WORDS, Vocabulary, extract_phase, feature_length, phase_histogram, verbalize
from .policy import TokenPolicy, ValueHead
from .rewards import (
    RewardConfig,
    assemble_token_rewards,
    check_bool,
    check_float,
    check_int,
    check_keys,
    decision_reward,
    env_reward,
)
from .sim import (
    STREAM_CONTROLLER,
    STREAM_DEMAND,
    STREAM_HOLDOUT,
    STREAM_INIT,
    STREAM_SHUFFLE,
    DemandProfile,
    Intersection,
    Metrics,
    Topology,
    build_topology,
    stream_rng,
)
from .trainer import DIAGNOSTICS, PPOTrainer, TrainerConfig, load_checkpoint, save_checkpoint


# non-learning controllers by config name; each is built once per runner
BASELINES = {
    "fixed": lambda cfg: FixedTimeController(cfg.t_fixed),
    "maxpressure": lambda cfg: MaxPressureController(),
    "random": lambda cfg: RandomController(stream_rng(cfg.seed, STREAM_CONTROLLER)),
}
CONTROLLERS = ("policy", *BASELINES)

STEP_COLUMNS = ("time", "phase", "queue", "injected", "completed")
TRAIN_LOG_COLUMNS = ("step", *DIAGNOSTICS)
METRICS = tuple(f.name for f in fields(Metrics))  # an episode's metrics, in column order
# wall-clock time stays out of the CSVs so same-seed runs are bit-identical
METRIC_COLUMNS = ("episode", *METRICS, "decisions")


def check_file(what: str, path) -> Path:
    """Raise ValueError, naming ``what`` and ``path``, unless ``path`` is a file; return it as a Path."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"validation failed: {what} {'is not a file' if path.exists() else 'not found'}: {path}")
    return path


@dataclass
class PolicyShape:
    d_embed: int = 16
    d_hidden: int = 64
    k_history: int = 4
    max_len: int = 32
    n_filler: int = 16

    def __post_init__(self):
        for name, low in (("max_len", 1), ("k_history", 0), ("d_embed", 1), ("d_hidden", 1), ("n_filler", 0)):
            check_int(f"policy.{name}", getattr(self, name), low)
        if not self.n_filler <= len(FILLER_WORDS):
            raise ValueError(f"policy.n_filler must lie in [0, {len(FILLER_WORDS)}]")


@dataclass
class ExperimentConfig:
    topology: object = "toy8"  # preset name or explicit dict
    topology_overrides: dict = field(default_factory=dict)
    demand: dict = field(default_factory=lambda: {"kind": "poisson", "base_rate": 0.05})
    controller: str = "policy"
    episodes: int = 1
    seed: int = 0
    out: Optional[str] = None
    t_fixed: float = 10.0
    default_phase: int = 0
    action_from_extra_sample: bool = False
    holdout_eval: bool = True
    reward: RewardConfig = field(default_factory=RewardConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    policy: PolicyShape = field(default_factory=PolicyShape)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        check_keys("topology_overrides", self.topology_overrides)  # build_topology checks its keys
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string or null, got {self.out!r}")
        check_int("episodes", self.episodes, 1)
        check_int("seed", self.seed, 0)  # unseeded runs are not supported
        check_int("default_phase", self.default_phase, 0)  # validate_config checks the top
        check_float("t_fixed", self.t_fixed, 0.0, strict=True)
        check_bool("action_from_extra_sample", self.action_from_extra_sample)
        check_bool("holdout_eval", self.holdout_eval)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        check_keys("", raw, [f.name for f in fields(ExperimentConfig)])
        raw = dict(raw)
        for f in fields(ExperimentConfig):  # sections that are dataclasses of their own
            if is_dataclass(f.default_factory) and f.name in raw:
                check_keys(f.name, raw[f.name], [g.name for g in fields(f.default_factory)])
                raw[f.name] = f.default_factory(**raw[f.name])
        return ExperimentConfig(**raw)

    @staticmethod
    def from_yaml(path) -> "ExperimentConfig":
        with open(check_file("config", path), "r", encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"validation failed: config {path} is not valid YAML: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash identifying the experiment definition.

        Covers everything that shapes trajectories (topology, demand,
        rewards, trainer, policy); excludes the seed, the output path,
        and run-length knobs so reruns and resumed runs with a longer
        budget keep the same identity.
        """
        payload = self.to_dict()
        for key in ("seed", "out", "episodes", "holdout_eval"):
            payload.pop(key)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _CsvSink:
    def __init__(self, path, columns, append=False):
        self.path = Path(path)
        exists = self.path.exists() and append
        self.fh = open(self.path, "a" if append else "w", encoding="utf-8", newline="")
        self.columns = columns
        if not exists:
            self.fh.write(",".join(columns) + "\n")

    def __enter__(self) -> "_CsvSink":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def row(self, values: dict) -> None:
        self.fh.write(",".join(str(values[c]) for c in self.columns) + "\n")


@dataclass
class _Pending:
    """A decision awaiting its reward at the next decision boundary."""

    time: float  # episode-local
    queue_before: float
    phase: int
    features: Optional[np.ndarray] = None
    tokens: Optional[np.ndarray] = None
    logps: Optional[np.ndarray] = None
    ref_logps: Optional[np.ndarray] = None
    v_old: float = 0.0
    counts: Optional[list] = None


@dataclass
class EpisodeReport:
    episode: int
    metrics: dict
    decisions: int
    steps_csv: str
    decisions_jsonl: str
    wall_clock: float


def reward_histogram(jsonl_path, hurdle: float, bin_width: float = 0.5) -> dict:
    """Histogram of per-decision environmental rewards from a decision log.

    Returns bin edges/counts plus the fraction of decisions whose reward
    strictly exceeds the hurdle (invariant to the bin width). Raises
    ``ValueError``, naming the log and the line, on a line that is not a
    JSON object with a finite number ``R_env`` (a bool is refused), and on
    rewards whose span holds a non-finite number of bins.
    """
    check_float("bin width", bin_width, 0.0, strict=True)
    rewards, line_numbers = [], []
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                reward = json.loads(line)["R_env"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed decision log {jsonl_path} line {number}: {exc}") from exc
            check_float(f"decision log {jsonl_path} line {number}: R_env", reward)
            rewards.append(float(reward))
            line_numbers.append(number)
    if not rewards:
        return {"bin_edges": [], "counts": [], "fraction_above": 0.0, "n": 0}
    arr = np.asarray(rewards)
    low, high = int(arr.argmin()), int(arr.argmax())
    lo_bins, hi_bins = rewards[low] / bin_width, rewards[high] / bin_width
    if not math.isfinite(hi_bins - lo_bins):
        raise ValueError(
            f"decision log {jsonl_path}: rewards from {rewards[low]!r} (line {line_numbers[low]}) "
            f"to {rewards[high]!r} (line {line_numbers[high]}) span a non-finite number of bins "
            f"of width {bin_width!r}"
        )
    lo = math.floor(lo_bins) * bin_width
    hi = math.ceil(hi_bins) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    counts, edges = np.histogram(arr, bins=edges)
    return {
        "bin_edges": [float(e) for e in edges],
        "counts": [int(c) for c in counts],
        "fraction_above": float((arr > hurdle).mean()),
        "n": int(arr.size),
    }


def validate_config(cfg: ExperimentConfig) -> Tuple[Topology, DemandProfile]:
    """The checks that need the built topology; returns it and the parsed demand.

    Raises ValueError naming the check. It writes nothing, so callers run it
    before they make an output directory.
    """
    topo = build_topology(cfg.topology, **cfg.topology_overrides)
    if not 0 <= cfg.default_phase < topo.n_phases:
        raise ValueError(f"default_phase {cfg.default_phase} out of range")
    if cfg.trainer.decision_interval < topo.yellow_duration:
        raise ValueError(
            f"decision_interval {cfg.trainer.decision_interval} is shorter than the "
            f"yellow interval {topo.yellow_duration:g}; a decision could not "
            "take effect before the next one"
        )
    demand = DemandProfile.from_dict(cfg.demand)
    demand.check_lanes(topo)
    return topo, demand


class ExperimentRunner:
    """Builds every component from a config and drives seeded episodes."""

    def __init__(self, cfg: ExperimentConfig, out_dir=None):
        self.cfg = cfg
        # checked once, before any file is written; episodes share the demand, which they only read
        self.topo, self.demand = validate_config(cfg)
        self.out_dir = Path(out_dir if out_dir is not None else (cfg.out or "runs/exp"))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.hash = cfg.config_hash()

        self.vocab = Vocabulary.for_topology(self.topo, n_filler=cfg.policy.n_filler)
        self.feature_len = feature_length(self.topo)

        self.trainer: Optional[PPOTrainer] = None
        self.baseline = None
        if cfg.controller == "policy":
            cfg.trainer.warn_if_few_responses(self.topo.n_phases)
            init_rng = stream_rng(cfg.seed, STREAM_INIT)
            policy = TokenPolicy(
                vocab_size=self.vocab.size,
                feature_len=self.feature_len,
                eos_id=self.vocab.eos_id,
                d_embed=cfg.policy.d_embed,
                d_hidden=cfg.policy.d_hidden,
                k_history=cfg.policy.k_history,
                max_len=cfg.policy.max_len,
                rng=init_rng,
            )
            value_head = ValueHead(self.feature_len, rng=init_rng)
            self.trainer = PPOTrainer(policy, value_head, cfg.trainer, stream_rng(cfg.seed, STREAM_SHUFFLE))
        else:
            self.baseline = BASELINES[cfg.controller](cfg)

        self.episode_index = 0
        self.decision_counter = 0  # global across episodes, keys the sampling streams
        self.best_queue: Optional[float] = None  # lowest held-out queue so far
        self._resume: Optional[Tuple[int, dict]] = None  # (step, sim state) of a mid-episode snapshot

        self._write_run_info()

    # -- plumbing --------------------------------------------------------

    def _write_run_info(self) -> None:
        info = {
            "config_hash": self.hash,
            "seed": self.cfg.seed,
            "controller": self.cfg.controller,
            "backend": _kernels.BACKEND,
            "topology": self.topo.name,
        }
        with open(self.out_dir / "run_info.json", "w", encoding="utf-8") as fh:
            json.dump(info, fh, indent=2, sort_keys=True)
        resolved = self.out_dir / "config_resolved.yaml"
        with open(resolved, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.cfg.to_dict(), fh, sort_keys=True)

    def _new_sim(self, *stream: int) -> Intersection:
        """A fresh intersection whose demand draws from ``stream`` under the seed."""
        return Intersection(self.topo, self.demand, stream_rng(self.cfg.seed, *stream))

    def _decide(
        self, sim: Intersection, t: int, queue: float, learn: bool,
        temperature: Optional[float], space: int, state,
    ) -> _Pending:
        """One decision: the baseline's ``decide``, or verbalize -> sample -> extract.

        Returns it as a pending record; only a learning decision fills the
        training fields.
        """
        obs = sim.observe()
        if self.baseline is not None:
            return _Pending(float(t), queue, self.baseline.decide(obs, sim.active_phase, t, self.topo))
        cfg = self.cfg
        features = verbalize(obs, sim.active_phase, self.topo)
        g = cfg.trainer.g_responses
        n_samples = (g + 1 if cfg.action_from_extra_sample else g) if learn else 1
        keys = [_kernels.derive_key(cfg.seed, space, state.decision_counter, r) for r in range(n_samples)]
        tokens, lengths, logps = self.trainer.policy.sample(
            features, keys, temperature=cfg.trainer.temperature if temperature is None else temperature
        )
        action_tokens = tokens[0, : lengths[0]]
        action = extract_phase(action_tokens, self.topo, cfg.default_phase, self.vocab)
        if not learn:
            return _Pending(float(t), queue, action)
        # the G entropy responses are rows 1..G with an extra action sample and rows 0..G-1
        # without; row 0 is extracted once, above
        responses = [tokens[r, : lengths[r]] for r in range(1, n_samples)]
        counts = phase_histogram(responses, self.topo, cfg.default_phase, self.vocab)
        if not cfg.action_from_extra_sample:
            counts[action] += 1
        return _Pending(
            float(t), queue, action,
            counts=counts,
            features=features,
            tokens=np.array(action_tokens),
            logps=np.array(logps[0, : lengths[0]]),
            ref_logps=np.asarray(self.trainer.reference.logprobs(features, action_tokens)),
            v_old=self.trainer.value_head.value(features) if cfg.trainer.use_critic else 0.0,
        )

    def _close_pending(self, pending: _Pending, queue_now: float, learn: bool, jsonl_fh) -> None:
        cfg = self.cfg
        r_env = env_reward(pending.queue_before, queue_now, cfg.reward.env_mode)
        counts = pending.counts
        bundle = decision_reward(counts, pending.phase, r_env, cfg.reward)
        row = {
            "time": pending.time,
            "chosen_phase": pending.phase,
            "counts": None if counts is None else [int(c) for c in counts],
            "p_chosen": bundle["p_chosen"],
            "R_env": r_env,
            "R_total": bundle["r_total"],
            "gate_open": bundle["gate_open"],
        }
        jsonl_fh.write(json.dumps(row, sort_keys=True) + "\n")
        if learn:
            rewards = assemble_token_rewards(
                pending.logps, pending.ref_logps, bundle["r_total"], cfg.reward.beta
            )
            self.trainer.buffer.add(
                time=self.episode_index * cfg.trainer.episode_length + pending.time,  # global time
                features=pending.features,
                tokens=pending.tokens,
                logps_old=pending.logps,
                rewards=rewards,
                v_old=pending.v_old,
            )

    # -- the episode loop ------------------------------------------------

    def _loop(
        self,
        sim: Intersection,
        start_t: int,
        learn: bool,
        state,
        space: int = 0,
        temperature: Optional[float] = None,
        steps: Optional[_CsvSink] = None,
        jsonl_fh=None,
        train_log: Optional[_CsvSink] = None,
    ) -> int:
        """Drive ``sim`` from ``start_t`` to the episode end; returns the decision count.

        ``state`` holds ``decision_counter`` (the runner itself for logged
        episodes); ``space`` is the key space of the sampling streams.
        Without sinks nothing is written and decisions are not scored.
        Updates and mid-episode checkpoints run only when learning, which
        needs ``train_log``.
        """
        tcfg = self.cfg.trainer
        length = tcfg.episode_length
        offset = self.episode_index * length
        pending: Optional[_Pending] = None
        first = state.decision_counter
        queue = sim.queue_length()  # afterwards each step returns the queue it leaves
        for t in range(start_t, length + 1):
            if t % tcfg.decision_interval == 0 or t == length:
                if pending is not None and jsonl_fh is not None:
                    self._close_pending(pending, queue, learn, jsonl_fh)
                if learn and t > start_t:
                    if t % tcfg.update_interval == 0:
                        self.trainer.buffer.evict(offset + t)
                        if len(self.trainer.buffer):
                            train_log.row(self.trainer.update(offset + t))
                    if t % tcfg.checkpoint_interval == 0 and t < length:
                        self._save_checkpoint(t, sim=sim)
                if t == length:
                    return state.decision_counter - first
                pending = self._decide(sim, t, queue, learn, temperature, space, state)
                sim.set_phase(pending.phase)
                state.decision_counter += 1

            queue = sim.step()
            if steps is not None:  # the STEP_COLUMNS row
                steps.fh.write(f"{sim.time},{sim.active_phase},{queue},{sim.injected_count},{len(sim.completed)}\n")

    def run_episode(self, learn: bool, temperature: Optional[float] = None) -> EpisodeReport:
        """One logged episode: its step CSV, its decision log and its row of
        ``metrics.csv``, and when learning its rows of ``train_log.csv``."""
        t0_wall = _time.perf_counter()
        episode = self.episode_index
        sim = self._new_sim(STREAM_DEMAND, episode)
        start_t = 0
        if self._resume is not None:
            start_t, sim_state = self._resume
            sim.load_state_dict(sim_state)
            self._resume = None

        steps_path = self.out_dir / f"ep{episode:03d}_steps.csv"
        jsonl_path = self.out_dir / f"ep{episode:03d}_decisions.jsonl"
        train_log_path = self.out_dir / "train_log.csv"
        with _CsvSink(steps_path, STEP_COLUMNS) as steps, open(jsonl_path, "w", encoding="utf-8") as jsonl_fh, (
            _CsvSink(train_log_path, TRAIN_LOG_COLUMNS, append=True) if learn else nullcontext()
        ) as train_log:
            decisions = self._loop(
                sim, start_t, learn, self,
                temperature=temperature, steps=steps, jsonl_fh=jsonl_fh, train_log=train_log,
            )

        self.episode_index += 1
        metrics = asdict(sim.finalize_metrics())
        with _CsvSink(self.out_dir / "metrics.csv", METRIC_COLUMNS, append=True) as sink:
            sink.row({"episode": episode, "decisions": decisions, **metrics})
        return EpisodeReport(
            episode=episode,
            metrics=metrics,
            decisions=decisions,
            steps_csv=str(steps_path),
            decisions_jsonl=str(jsonl_path),
            wall_clock=_time.perf_counter() - t0_wall,
        )

    # -- checkpointing ---------------------------------------------------

    def _save_checkpoint(self, t: int, sim: "Intersection" = None, path=None) -> None:
        """Snapshot at a decision boundary with no pending decision.

        ``t`` is the episode-local step. ``train`` takes the episode-end
        snapshot at t = 0 of the next episode, so a resume starts it fresh.
        """
        if path is None:
            path = self.out_dir / f"ckpt_ep{self.episode_index:03d}_t{t:05d}.npz"
        runner_meta = {
            "episode_index": self.episode_index,
            "step": t,
            "decision_counter": self.decision_counter,
            "sim_state": None if sim is None else sim.state_dict(),
            "best_queue": self.best_queue,
        }
        save_checkpoint(path, self.trainer, self.hash, runner_meta)

    def restore(self, path, fresh_episodes: bool = False) -> None:
        """Load a snapshot produced by :meth:`_save_checkpoint`.

        With ``fresh_episodes`` a mid-episode snapshot yields full new
        episodes from the stored parameters instead of finishing the
        interrupted one.
        """
        meta, arrays = load_checkpoint(path)
        pm = meta["policy_meta"]
        if int(pm["vocab_size"]) != self.vocab.size:
            raise ValueError(
                f"checkpoint vocabulary size {pm['vocab_size']} does not match "
                f"the configured topology's {self.vocab.size}"
            )
        if meta["config_hash"] != self.hash:
            raise ValueError("checkpoint config hash does not match the supplied config")
        self.trainer.load_state(arrays, meta["trainer_meta"])
        rm = meta["runner_meta"]
        self.episode_index = int(rm["episode_index"])
        self.decision_counter = int(rm["decision_counter"])
        self.best_queue = rm["best_queue"]
        if rm["sim_state"] is not None and not fresh_episodes:
            self._resume = (int(rm["step"]), rm["sim_state"])

    # -- drivers ---------------------------------------------------------

    def train(self, episodes: Optional[int] = None) -> List[EpisodeReport]:
        if self.trainer is None:
            raise ValueError("train requires controller: policy")
        n = episodes if episodes is not None else self.cfg.episodes
        tcfg = self.cfg.trainer
        reports = []
        while self.episode_index < n:
            reports.append(self.run_episode(learn=True))
            if self.cfg.holdout_eval:
                holdout_queue = self._holdout_queue()
                if self.best_queue is None or holdout_queue < self.best_queue:
                    self.best_queue = holdout_queue
                    self._save_checkpoint(0, path=self.out_dir / "ckpt_best.npz")
            if tcfg.episode_length % tcfg.checkpoint_interval == 0:  # the episode-end snapshot
                self._save_checkpoint(0)
        self._save_checkpoint(0, path=self.out_dir / "ckpt_final.npz")
        return reports

    def _holdout_queue(self) -> float:
        """Average queue of a held-out eval episode on its own demand seed.

        The held-out demand and sampling keys (key space 1, decision index
        from 0) are fixed across calls so successive checkpoints are judged
        on the same episode. It writes nothing and leaves the runner's
        episode index and decision counter alone.
        """
        sim = self._new_sim(STREAM_HOLDOUT)
        self._loop(sim, 0, False, SimpleNamespace(decision_counter=0), space=1)
        return sim.finalize_metrics().queue_length

    def evaluate(self, episodes: Optional[int] = None, temperature: Optional[float] = None) -> List[EpisodeReport]:
        n = episodes if episodes is not None else self.cfg.episodes
        return [self.run_episode(learn=False, temperature=temperature) for _ in range(n)]


def run_config(cfg: ExperimentConfig, out_dir=None) -> List[EpisodeReport]:
    """Train when the controller learns, otherwise evaluate."""
    runner = ExperimentRunner(cfg, out_dir=out_dir)
    if cfg.controller == "policy":
        return runner.train()
    return runner.evaluate()


def _median(values: Sequence[float]) -> float:
    """``np.median`` of a non-empty list, bit for bit, by its own arithmetic.

    ``np.median`` checks for NaN through ``numpy.ma``, whose import costs
    about 0.6 MiB of memory; NaN sorts last, so a last sorted NaN means a
    NaN among the values.
    """
    s = np.sort(np.asarray(values, dtype=np.float64))
    if np.isnan(s[-1]):
        return float("nan")
    k, odd = divmod(s.size, 2)
    return float(np.mean(s[k - 1 + odd : k + 1]))


def compare(configs: Sequence[ExperimentConfig], seeds: Sequence[int], out_dir, labels=None) -> List[dict]:
    """Run each config over the seeds; one median-aggregated row per config.

    There must be one unique label per config, at least one seed and no
    repeated seed. Every config is validated, and all must share a topology
    (overrides included) and a demand description; all this is checked
    before any run starts or any directory is made. Learned configs are
    trained and judged on their final episode; baselines are evaluated the
    same way.
    """
    if len(configs) < 2:
        raise ValueError("compare needs at least 2 configs")
    if labels is None:
        labels = [f"config{i}" for i in range(len(configs))]
    if len(labels) != len(configs):
        raise ValueError(f"compare got {len(labels)} labels for {len(configs)} configs")
    if len(set(labels)) != len(labels):  # each label names its runs' directories
        raise ValueError(f"compare labels must be unique, got {list(labels)}")
    if not seeds:
        raise ValueError("compare needs at least one seed")
    if len(set(seeds)) != len(seeds):  # and so does each seed
        raise ValueError(f"compare seeds must be unique, got {list(seeds)}")
    for seed in seeds:
        check_int("compare seed", seed, 0)
    settings = [(validate_config(cfg)[0], json.dumps(cfg.demand, sort_keys=True)) for cfg in configs]
    if any(setting != settings[0] for setting in settings[1:]):
        raise ValueError("compare requires configs sharing topology and demand")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for label, cfg in zip(labels, configs):
        finals = []
        for seed in seeds:
            run_cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": int(seed)})
            finals.append(run_config(run_cfg, out_dir=out_dir / f"{label}_seed{seed}")[-1].metrics)
        rows.append({"label": label, **{k: _median([m[k] for m in finals]) for k in METRICS}})

    with _CsvSink(out_dir / "comparison.csv", ("label", *METRICS)) as sink:
        for row in rows:
            sink.row(row)
    return rows
