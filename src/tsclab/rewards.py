"""Environmental, hurdle, semantic-uncertainty, and per-token KL rewards.

The sequence-level reward is the queue improvement minus a fixed hurdle,
optionally plus a gated confidence bonus computed from the agreement of G
sampled responses. Intermediate tokens carry only a KL penalty against the
frozen reference policy; the final token carries the task reward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import RewardConfig, check_float


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
