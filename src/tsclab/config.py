"""The config schema: its dataclasses, and the checks of every value in it.

It imports no other tsclab module, so each layer checks its own inputs with
these helpers without importing another layer. The checks that need the
built topology are ``experiment.validate_config``'s.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import yaml

# "policy" learns; each other name is a baseline of experiment.BASELINES
CONTROLLERS = ("policy", "fixed", "maxpressure", "random")

# the words of the vocabulary's filler tokens, of which policy.n_filler takes the first
FILLER_WORDS = (
    "the", "traffic", "flow", "wait", "heavy", "light", "queue", "move",
    "stop", "clear", "now", "next", "keep", "shift", "plan", "so",
)


def check_float(name: str, value, low: float = -math.inf, strict: bool = False, high: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is a finite number >= ``low`` (> ``low`` if ``strict``) and <= ``high``.

    Each test is written so that NaN fails it; a bool is refused, not taken as 0 or 1.
    """
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > low if strict else value >= low)
        and value <= high
    ):
        bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
        bound += "" if high == math.inf else f" and <= {high:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def check_int(name: str, value, low: Optional[int] = None) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, and >= ``low`` if given."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Raise ValueError unless ``value`` is true or false itself, not merely truthy."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_keys(where: str, spec, allowed: Optional[Sequence[str]] = None, required: Sequence[str] = ()) -> None:
    """Raise ValueError unless ``spec`` is a mapping with no key outside ``allowed`` and every ``required`` one.

    ``where`` is the dotted config path of ``spec`` ("" for the whole config); the errors name each key by its path.
    With ``allowed`` None any key is allowed, as in a mapping keyed by lane id.
    """
    if not isinstance(spec, dict):
        name = f"config section {where!r}" if where else "the config"
        raise ValueError(f"{name} must be a mapping, got {spec!r}")
    prefix = f"{where}." if where else ""
    unknown = [] if allowed is None else sorted(f"{prefix}{k}" for k in set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    missing = [f"{prefix}{k}" for k in required if k not in spec]
    if missing:
        raise ValueError(f"missing config keys: {missing}")


def check_list(where: str, value) -> None:
    """Raise ValueError unless ``value``, the config entry at ``where``, is a list (or a tuple); a string is none."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config entry {where!r} must be a list, got {value!r}")


def check_file(what: str, path) -> Path:
    """Raise ValueError, naming ``what`` and ``path``, unless ``path`` is a file; return it as a Path."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"validation failed: {what} {'is not a file' if path.exists() else 'not found'}: {path}")
    return path


def check_unused(out_dir, reopen: bool = False) -> None:
    """Raise ValueError if ``out_dir`` exists and is not a directory, or,
    unless ``reopen``, if it holds anything (naming one entry). A fresh run
    writes only into an unused directory, so no file of an earlier run lies
    beside its own."""
    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"validation failed: output directory {out_dir} is not a directory")
    entry = min((p.name for p in out_dir.iterdir()), default=None) if out_dir.exists() else None
    if entry is not None and not reopen:
        raise ValueError(
            f"validation failed: output directory {out_dir} is in use (it holds {entry}); "
            "a fresh run needs a new or empty one"
        )


@dataclass
class RewardConfig:
    h_r: float = 3.0  # hurdle, vehicles
    w_e: float = 1.0  # uncertainty-bonus weight
    tau: float = 1.0  # softmax temperature over phase counts
    beta: float = 0.05  # per-token KL weight

    def __post_init__(self):
        check_float("reward.h_r", self.h_r)
        check_float("reward.w_e", self.w_e, 0.0)
        check_float("reward.tau", self.tau, 0.0, strict=True)
        check_float("reward.beta", self.beta, 0.0)


@dataclass
class TrainerConfig:
    actor_lr: float = 2.5e-5
    actor_weight_decay: float = 1e-6
    value_lr: float = 1e-5
    value_weight_decay: float = 5e-7
    eps_low: float = 0.2
    eps_high: float = 0.5
    eps_value: float = 0.2
    gamma: float = 0.999
    lam: float = 0.95
    alpha: float = 1.0
    batch_size: int = 20
    batches_per_update: int = 2
    grad_clip_policy: float = 0.5
    grad_clip_value: float = 5.0
    update_interval: int = 360
    buffer_window: int = 400
    decision_interval: int = 10
    episode_length: int = 3600
    g_responses: int = 8
    use_critic: bool = True

    def __post_init__(self):
        for name in ("episode_length", "decision_interval", "update_interval", "batch_size",
                     "batches_per_update", "g_responses"):
            check_int(f"trainer.{name}", getattr(self, name), 1)
        check_int("trainer.buffer_window", self.buffer_window)
        check_bool("trainer.use_critic", self.use_critic)
        # the newest record at an update was decided one decision interval before it
        if not self.buffer_window > self.decision_interval:
            raise ValueError("buffer_window must exceed decision_interval, or no record is left to train on")
        for name in ("eps_low", "eps_high", "eps_value", "grad_clip_policy", "grad_clip_value"):
            check_float(f"trainer.{name}", getattr(self, name), 0.0, strict=True)
        for name in ("alpha", "actor_lr", "value_lr", "actor_weight_decay", "value_weight_decay"):
            check_float(f"trainer.{name}", getattr(self, name), 0.0)
        for name in ("gamma", "lam"):
            check_float(f"trainer.{name}", getattr(self, name), 0.0, high=1.0)

    def warn_if_few_responses(self, n_phases: int) -> None:
        if self.g_responses < n_phases:
            warnings.warn(
                f"g_responses={self.g_responses} is below the number of phases "
                f"({n_phases}); agreement counts cannot resolve all phases",
                stacklevel=2,
            )


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
