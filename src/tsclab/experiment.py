"""Config-driven seeded experiment runner.

One runner owns the simulator, the token pipeline, the trainer, and all
output sinks. The episode loop takes a decision every ``decision_interval``
steps; each decision's reward closes at the next decision point (queue
difference over the interval), and the final one closes at episode end.
A learning decision acts on one response sampled alone; its other G - 1
responses wait for the flush of its update window, before the next update
or the episode end, which samples those of every decision closed since the
last flush in one call and then logs and buffers the decisions in order.
Updates fire on fixed timestep boundaries, after the flush.
The episode is the unit of persistence: after each one ``train`` writes the
snapshot that starts the next, and a run trained on from it, in place or in
a fresh directory, continues bit-identically.
The decision at step t of episode e samples from the streams keyed
``e * D + t // decision_interval``, with D decisions in every episode.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time as _time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
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
    check_float,
    check_int,
    check_keys,
    decision_reward,
    env_reward,
)
from .sim import (
    STREAM_CONTROLLER,
    STREAM_DEMAND,
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
RUN_LOGS = ("metrics.csv", "train_log.csv")  # the logs a run appends to; a snapshot records their lengths


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
        for key in ("seed", "out", "episodes"):
            payload.pop(key)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _CsvSink:
    def __init__(self, path, columns, append=False):
        self.path = Path(path)
        self.fh = open(self.path, "a" if append else "w", encoding="utf-8", newline="")
        self.columns = columns
        if self.fh.tell() == 0:  # a new or empty file
            self.fh.write(",".join(columns) + "\n")

    def __enter__(self) -> "_CsvSink":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def row(self, values: dict) -> None:
        self.fh.write(",".join(str(values[c]) for c in self.columns) + "\n")


@dataclass
class _Pending:
    """A decision awaiting its reward at the next decision boundary.

    A learning decision also awaits the G - 1 entropy responses of ``keys``,
    which the flush of its update window samples.
    """

    time: float  # episode-local
    queue_before: float
    phase: int
    r_env: Optional[float] = None  # set when the decision closes
    features: Optional[np.ndarray] = None
    tokens: Optional[np.ndarray] = None
    logps: Optional[np.ndarray] = None
    ref_logps: Optional[np.ndarray] = None
    v_old: float = 0.0
    keys: Sequence[int] = ()
    counts: Optional[np.ndarray] = None


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


def validate_config(cfg: ExperimentConfig) -> Tuple[Topology, DemandProfile, Vocabulary]:
    """The checks that need the built topology; returns it, the parsed demand and the vocabulary.

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
    if cfg.controller == "policy" and cfg.trainer.update_interval % cfg.trainer.decision_interval:
        raise ValueError(
            f"trainer.update_interval {cfg.trainer.update_interval} is not a multiple of "
            f"trainer.decision_interval {cfg.trainer.decision_interval}; updates run only at decisions"
        )
    demand = DemandProfile.from_dict(cfg.demand)
    demand.check_lanes(topo)
    return topo, demand, Vocabulary.for_topology(topo, n_filler=cfg.policy.n_filler)


class ExperimentRunner:
    """Builds every component from a config and drives seeded episodes."""

    def __init__(self, cfg: ExperimentConfig, out_dir=None, checkpoint=None):
        """A runner writing under ``out_dir`` (default ``cfg.out``); with
        ``checkpoint`` it starts from that snapshot: :meth:`train` continues
        it, :meth:`evaluate` runs whole new episodes from its parameters.

        The config and the checkpoint are checked before the output
        directory is made, so a refused run leaves no output.
        """
        self.cfg = cfg
        # checked once, before any file is written; episodes share the demand, which they only read
        self.topo, self.demand, self.vocab = validate_config(cfg)
        self.hash = cfg.config_hash()
        self.feature_len = feature_length(self.topo)
        self.decisions_per_episode = len(range(0, cfg.trainer.episode_length, cfg.trainer.decision_interval))

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
        self._log_sizes: dict = {}  # byte length of each run log at a loaded snapshot, until train cuts it
        # the run logs this runner appends to: those it has begun, or both once it trains on from a snapshot
        self._appending = set()
        if checkpoint is not None:
            self._load_checkpoint(checkpoint)

        self.out_dir = Path(out_dir if out_dir is not None else (cfg.out or "runs/exp"))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._write_run_info()

    # -- plumbing --------------------------------------------------------

    def _write_run_info(self) -> None:
        info = {
            "config_hash": self.hash,
            "seed": self.cfg.seed,
            "controller": self.cfg.controller,
            "topology": self.topo.name,
        }
        with open(self.out_dir / "run_info.json", "w", encoding="utf-8") as fh:
            json.dump(info, fh, indent=2, sort_keys=True)
        resolved = self.out_dir / "config_resolved.yaml"
        with open(resolved, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.cfg.to_dict(), fh, sort_keys=True)

    def _log(self, name: str, columns) -> _CsvSink:
        """A sink on the run log ``name``, begun anew with its header unless
        this runner has begun it or trains on from a snapshot."""
        append = name in self._appending
        self._appending.add(name)
        return _CsvSink(self.out_dir / name, columns, append=append)

    def _decide(
        self, sim: Intersection, t: int, queue: float, learn: bool,
        temperature: float, decision: int,
    ) -> _Pending:
        """One decision: the baseline's ``decide``, or verbalize -> sample -> extract.

        The action is the response of key 0, sampled alone. Returns the
        decision as a pending record; only a learning decision fills the
        training fields and the keys 1..G-1 of its entropy responses.
        """
        obs = sim.observe()
        if self.baseline is not None:
            return _Pending(float(t), queue, self.baseline.decide(obs, sim.active_phase, t, self.topo))
        cfg = self.cfg
        features = verbalize(obs, sim.active_phase, self.topo)
        n_samples = cfg.trainer.g_responses if learn else 1
        keys = [_kernels.derive_key(cfg.seed, 0, decision, r) for r in range(n_samples)]
        tokens, lengths, logps = self.trainer.policy.sample(features, keys[:1], temperature=temperature)
        action_tokens = tokens[0, : lengths[0]]
        action = extract_phase(action_tokens, self.topo, cfg.default_phase, self.vocab)
        if not learn:
            return _Pending(float(t), queue, action)
        return _Pending(
            float(t), queue, action,
            features=features,
            tokens=np.array(action_tokens),
            logps=np.array(logps[0, : lengths[0]]),
            ref_logps=np.asarray(self.trainer.reference.logprobs(features, action_tokens)),
            v_old=self.trainer.value_head.value(features) if cfg.trainer.use_critic else 0.0,
            keys=keys[1:],
        )

    def _close_pending(self, closed: List[_Pending], learn: bool, jsonl_fh) -> None:
        """Score the closed decisions in decision order, then forget them: each
        one's decision-log row and, when learning, its buffer record.

        Learning decisions first get their phase counts. The policy is the
        same from one update to the next, so the entropy responses of all of
        them are sampled in one :meth:`TokenPolicy.sample_window` call; the
        action adds the last count.
        """
        cfg = self.cfg
        if learn:
            g = cfg.trainer.g_responses - 1
            features = np.repeat([pending.features for pending in closed], g, axis=0)
            keys = [key for pending in closed for key in pending.keys]
            tokens, lengths, _ = self.trainer.policy.sample_window(features, keys)
            for i, pending in enumerate(closed):
                responses = [tokens[r, : lengths[r]] for r in range(i * g, i * g + g)]
                pending.counts = phase_histogram(responses, self.topo, cfg.default_phase, self.vocab)
                pending.counts[pending.phase] += 1
        for pending in closed:
            counts = pending.counts
            bundle = decision_reward(counts, pending.phase, pending.r_env, cfg.reward)
            row = {
                "time": pending.time,
                "chosen_phase": pending.phase,
                "counts": None if counts is None else [int(c) for c in counts],
                "p_chosen": bundle["p_chosen"],
                "R_env": pending.r_env,
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
        closed.clear()

    # -- the episode loop ------------------------------------------------

    def _loop(
        self,
        sim: Intersection,
        learn: bool,
        temperature: float,
        steps: _CsvSink,
        jsonl_fh,
        train_log: Optional[_CsvSink],
    ) -> None:
        """Drive ``sim`` through a whole episode, writing its step rows to
        ``steps`` and its decisions to ``jsonl_fh``.

        The sampling keys number the decisions across the run's episodes.
        Updates run only when learning, which needs ``train_log``. A
        decision closes at the next decision point; a learning one is scored
        at the flush before the next update or the episode end, so the
        episode ends with none open.
        """
        tcfg = self.cfg.trainer
        length = tcfg.episode_length
        offset = self.episode_index * length
        first = self.episode_index * self.decisions_per_episode
        pending: Optional[_Pending] = None
        closed: List[_Pending] = []  # closed decisions not yet scored
        queue = sim.queue_length()  # afterwards each step returns the queue it leaves
        for t in range(length + 1):
            if t % tcfg.decision_interval == 0 or t == length:
                if pending is not None:
                    pending.r_env = env_reward(pending.queue_before, queue)
                    closed.append(pending)
                if closed and (not learn or t == length or t % tcfg.update_interval == 0):
                    self._close_pending(closed, learn, jsonl_fh)
                if learn and t > 0 and t % tcfg.update_interval == 0:
                    self.trainer.buffer.evict(offset + t)
                    if len(self.trainer.buffer):
                        train_log.row(self.trainer.update(offset + t))
                if t == length:
                    return
                decision = first + t // tcfg.decision_interval
                pending = self._decide(sim, t, queue, learn, temperature, decision)
                sim.set_phase(pending.phase)

            queue = sim.step()
            # the STEP_COLUMNS row
            steps.fh.write(f"{sim.time},{sim.active_phase},{queue},{sim.injected_count},{len(sim.completed)}\n")

    def run_episode(self, learn: bool, temperature: float = 1.0) -> EpisodeReport:
        """One logged episode: its step CSV, its decision log and its row of
        ``metrics.csv``, and when learning its rows of ``train_log.csv``."""
        t0_wall = _time.perf_counter()
        episode = self.episode_index
        sim = Intersection(self.topo, self.demand, stream_rng(self.cfg.seed, STREAM_DEMAND, episode))
        steps_path = self.out_dir / f"ep{episode:03d}_steps.csv"
        jsonl_path = self.out_dir / f"ep{episode:03d}_decisions.jsonl"
        with _CsvSink(steps_path, STEP_COLUMNS) as steps, open(jsonl_path, "w", encoding="utf-8") as jsonl_fh, (
            self._log("train_log.csv", TRAIN_LOG_COLUMNS) if learn else nullcontext()
        ) as train_log:
            self._loop(sim, learn, temperature, steps, jsonl_fh, train_log)

        self.episode_index += 1
        metrics = asdict(sim.finalize_metrics())
        with self._log("metrics.csv", METRIC_COLUMNS) as sink:
            sink.row({"episode": episode, "decisions": self.decisions_per_episode, **metrics})
        return EpisodeReport(
            episode=episode,
            metrics=metrics,
            decisions=self.decisions_per_episode,
            steps_csv=str(steps_path),
            decisions_jsonl=str(jsonl_path),
            wall_clock=_time.perf_counter() - t0_wall,
        )

    # -- checkpointing ---------------------------------------------------

    def _save_checkpoint(self, path=None) -> None:
        """Snapshot between episodes, by default as ``ckpt_epNNN_t00000.npz``
        for the episode a resume starts: the trainer, that episode's index
        and the byte length of each run log (0 for a missing one)."""
        if path is None:
            path = self.out_dir / f"ckpt_ep{self.episode_index:03d}_t00000.npz"
        logs = [self.out_dir / name for name in RUN_LOGS]
        sizes = {log.name: log.stat().st_size if log.exists() else 0 for log in logs}
        runner_meta = {"episode_index": self.episode_index, "log_sizes": sizes}
        save_checkpoint(path, self.trainer, self.hash, runner_meta)

    def _load_checkpoint(self, path) -> None:
        """Start from the snapshot at ``path``, written by :meth:`_save_checkpoint`.

        Raises ValueError unless the runner learns and the file is a
        readable snapshot of this config. Writes nothing.
        """
        if self.trainer is None:
            raise ValueError("validation failed: --checkpoint requires controller 'policy'")
        meta, arrays = load_checkpoint(check_file("checkpoint", path))
        pm = meta["policy_meta"]
        if int(pm["vocab_size"]) != self.vocab.size:
            raise ValueError(
                f"checkpoint vocabulary size {pm['vocab_size']} does not match "
                f"the configured topology's {self.vocab.size}"
            )
        if meta["config_hash"] != self.hash:
            raise ValueError(
                f"checkpoint config hash does not match the supplied config: "
                f"{meta['config_hash'][:12]} in the checkpoint, {self.hash[:12]} from the config"
            )
        self.trainer.load_state(arrays, meta["trainer_meta"])
        rm = meta["runner_meta"]
        self.episode_index = int(rm["episode_index"])
        self._log_sizes = {name: int(size) for name, size in rm["log_sizes"].items()}

    # -- drivers ---------------------------------------------------------

    def train(self, episodes: Optional[int] = None) -> List[EpisodeReport]:
        """Train up to episode ``episodes`` (default ``cfg.episodes``), writing the
        snapshot that starts the next episode after each one, then ``ckpt_final.npz``.

        From a snapshot, each run log longer than it was at the snapshot is
        cut back to that length, a missing one is begun anew, and the new
        rows are appended; so a resume in place rebuilds the directory of
        the run that was not interrupted.
        """
        if self.trainer is None:
            raise ValueError("train requires controller: policy")
        n = episodes if episodes is not None else self.cfg.episodes
        for name, size in self._log_sizes.items():
            path = self.out_dir / name
            if path.exists() and path.stat().st_size > size:
                os.truncate(path, size)
            self._appending.add(name)
        self._log_sizes = {}
        reports = []
        while self.episode_index < n:
            reports.append(self.run_episode(learn=True))
            self._save_checkpoint()
        self._save_checkpoint(path=self.out_dir / "ckpt_final.npz")
        return reports

    def evaluate(self, episodes: Optional[int] = None, temperature: float = 1.0) -> List[EpisodeReport]:
        """Run ``episodes`` (default ``cfg.episodes``) whole episodes without learning; from a
        snapshot they start at its episode index, with its parameters, and begin the logs anew."""
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
