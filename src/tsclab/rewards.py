"""Environmental, hurdle, semantic-uncertainty, and per-token KL rewards.

The sequence-level reward is the queue improvement minus a fixed hurdle,
optionally plus a gated confidence bonus computed from the agreement of G
sampled responses. Intermediate tokens carry only a KL penalty against the
frozen reference policy; the final token carries the task reward.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


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


def env_reward(queue_prev: float, queue_curr: float) -> float:
    """Queue improvement over the decision interval."""
    return queue_prev - queue_curr


def softmax_dse_prob(counts: Sequence[float], chosen: int, tau: float) -> float:
    """Confidence of the chosen phase under softmax(counts / tau).

    Max-subtraction keeps tiny temperatures finite; the math is unchanged.
    Raises ``ValueError`` unless ``tau`` is finite and above 0.
    """
    check_float("tau", tau, 0.0, strict=True)
    c = np.asarray(counts, dtype=np.float64) / tau
    c = c - c.max()
    e = np.exp(c)
    return float(e[chosen] / e.sum())


def gated_entropy_reward(p_chosen: float, r_env: float, h_r: float) -> float:
    """Confidence bonus, paid only when the hurdle is strictly cleared."""
    return p_chosen if r_env > h_r else 0.0


def total_reward(r_env: float, h_r: float, w_e: float, r_entropy: float) -> float:
    return r_env - h_r + w_e * r_entropy


def k3_kl(logp_policy, logp_ref):
    """Per-token K3 divergence estimate, ratio = exp(logp_ref - logp_policy).

    Computes ``ratio - log(ratio) - 1`` as ``expm1(d) - d`` with
    ``d = logp_ref - logp_policy``: near ratio 1 its rounding error is on
    the scale of an ulp of ``d``, not of 1, so the sign survives.
    Nonnegative, and zero when the log-probs agree. In float64 it also
    rounds to 0.0 once ``|d|`` is below about 1.6e-16 (``2**-52.5``), where
    ``d**2 / 2`` drops under half an ulp of ``d``. Elementwise over arrays.
    """
    d = np.asarray(logp_ref, dtype=np.float64) - np.asarray(logp_policy, dtype=np.float64)
    return np.expm1(d) - d


def assemble_token_rewards(
    policy_logprobs: Sequence[float],
    ref_logprobs: Sequence[float],
    r_final: float,
    beta: float,
) -> np.ndarray:
    """Per-token reward vector: -beta * KL except the final task reward.

    The final position carries ``r_final`` alone (no KL term there).
    """
    lp = np.asarray(policy_logprobs, dtype=np.float64)
    lr = np.asarray(ref_logprobs, dtype=np.float64)
    if lp.shape != lr.shape:
        raise ValueError(f"log-prob length mismatch: {lp.shape} vs {lr.shape}")
    if lp.size == 0:
        raise ValueError("empty trajectory")
    rewards = -beta * k3_kl(lp, lr)
    rewards[-1] = r_final
    return rewards


def decision_reward(
    counts: Sequence[float],
    chosen: int,
    r_env: float,
    cfg: RewardConfig,
) -> dict:
    """Full sequence-level reward bundle for one decision.

    Returns p_chosen (None when no response ensemble was collected), the
    gated bonus, the gate state, and the total reward R_env - H_R + w_E * R_E.
    """
    p_chosen = None if counts is None else softmax_dse_prob(counts, chosen, cfg.tau)
    gate_open = r_env > cfg.h_r
    r_entropy = gated_entropy_reward(p_chosen, r_env, cfg.h_r) if p_chosen is not None else 0.0
    return {
        "p_chosen": p_chosen,
        "r_entropy": r_entropy,
        "gate_open": bool(gate_open),
        "r_total": total_reward(r_env, cfg.h_r, cfg.w_e, r_entropy),
    }
