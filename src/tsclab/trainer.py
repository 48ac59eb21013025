"""Clipped-surrogate policy optimization over buffered token trajectories.

Each decision contributes one response trajectory to a rolling replay
buffer (a time window, not a count). Updates compute advantages with GAE
inside each trajectory against the stored rollout-time value, standardize
them per batch, and take one AdamW step per batch on the combined
objective  L = -J_clip + alpha * J_value  with per-network global-norm
gradient clipping. A flag switches to plain REINFORCE (raw discounted
returns, no baseline, no value update) for ablations.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from .config import TrainerConfig
from .policy import (
    META_FIELDS,
    POLICY_FIELDS,
    VALUE_FIELDS,
    TokenPolicy,
    ValueHead,
    clip_by_global_norm,
)

CHECKPOINT_VERSION = 2
# the keys of a checkpoint's trainer_meta, in the order state_meta writes them
TRAINER_META = ("opt_policy_t", "opt_value_t", "updates_done", "shuffle_rng")

# the statistics of one update, averaged over its batches; train_log.csv adds a step column
DIAGNOSTICS = (
    "mean_ratio", "clip_fraction", "policy_loss", "value_loss",
    "mean_advantage", "grad_norm_policy", "grad_norm_value",
)


def gae(rewards: Sequence[float], values: Sequence[float], gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimates by reverse recursion over the last axis.

    ``values[..., l]`` approximates V(s_l); the terminal value V(s_n) is 0
    by convention. delta_l = r_l + gamma * V(s_{l+1}) - V(s_l), and
    A_l = delta_l + gamma * lam * A_{l+1}. Rows of a 2-D batch padded with
    zero rewards and zero values after their length come out as if each
    were run alone, with zero advantages in the padding.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if r.shape != v.shape:
        raise ValueError(f"length mismatch: {r.shape} rewards vs {v.shape} values")
    adv = np.empty_like(r)
    nxt = np.zeros(r.shape[:-1])
    acc = np.zeros(r.shape[:-1])
    for l in range(r.shape[-1] - 1, -1, -1):
        delta = r[..., l] + gamma * nxt - v[..., l]
        acc = delta + gamma * lam * acc
        adv[..., l] = acc
        nxt = v[..., l]
    return adv


def policy_surrogate(
    ratio: np.ndarray, advantage: np.ndarray, eps_low: float, eps_high: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-token clipped objective and its derivative w.r.t. log-prob.

    Returns (objective, dobj_dlogp). The derivative is exactly zero on the
    clipped-flat branch: when the min selects the clipped term and the
    ratio sits outside [1 - eps_low, 1 + eps_high], the surrogate is
    locally constant in the logits.
    """
    t1 = ratio * advantage
    t2 = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * advantage
    obj = np.minimum(t1, t2)
    dlogp = np.where(t1 <= t2, t1, 0.0)  # d(r*A)/dlogp = r*A
    return obj, dlogp


def value_loss(
    v_new: np.ndarray,
    v_old: np.ndarray,
    returns: np.ndarray,
    eps_value: float,
) -> Tuple[float, np.ndarray]:
    """Clipped value regression loss and its derivative w.r.t. v_new.

    The value change is clipped around the rollout-time value ``v_old``.
    """
    err = v_new - returns
    v_clip = v_old + np.clip(v_new - v_old, -eps_value, eps_value)
    err_clip = v_clip - returns
    per = np.maximum(err**2, err_clip**2)
    dv = np.where(err**2 >= err_clip**2, err, 0.0)
    n = per.size
    return 0.5 * float(per.mean()), dv / n


def standardize(x: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    mean = x.mean()
    std = x.std()
    return (x - mean) / max(std, floor)


class AdamW:
    """Adam with decoupled weight decay over a named-parameter dict."""

    def __init__(self, params: Dict[str, np.ndarray], lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {f: np.zeros_like(p) for f, p in params.items()}
        self.v = {f: np.zeros_like(p) for f, p in params.items()}

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for f in self.m:
            g = grads[f]
            self.m[f] = self.beta1 * self.m[f] + (1.0 - self.beta1) * g
            self.v[f] = self.beta2 * self.v[f] + (1.0 - self.beta2) * g * g
            m_hat = self.m[f] / bc1
            v_hat = self.v[f] / bc2
            params[f] -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * params[f])


# the buffer's arrays, one row per record; also its checkpoint entries
BUFFER_FIELDS = ("time", "features", "tokens", "logps_old", "rewards", "v_old")


class ReplayBuffer:
    """Trajectory store windowed by simulation time, oldest evicted first.

    Records are rows of padded arrays: ``tokens`` (N, max_len) padded with
    -1, ``logps_old`` and ``rewards`` (N, max_len) padded with 0, and
    ``time``, ``features`` and ``v_old`` one entry or row each. A row's
    response length is its count of tokens >= 0.
    """

    def __init__(self, window: float, n_features: int, max_len: int):
        self.window = window
        self.max_len = max_len
        self.time = np.zeros(0)
        self.features = np.zeros((0, n_features))
        self.tokens = np.zeros((0, max_len), dtype=np.int64)
        self.logps_old = np.zeros((0, max_len))
        self.rewards = np.zeros((0, max_len))
        self.v_old = np.zeros(0)

    def add(self, *, time, features, tokens, logps_old, rewards, v_old) -> None:
        """Append one response trajectory; ``time`` is the decision's global simulation time.

        ``tokens`` is one response, 1-D with no padding id, and ``logps_old``
        and ``rewards`` have one entry per token; :meth:`batch` reads a
        row's length back as its count of tokens >= 0.
        """
        if tokens.ndim != 1 or np.shape(logps_old) != tokens.shape or np.shape(rewards) != tokens.shape:
            raise ValueError(f"tokens {np.shape(tokens)}, logps_old {np.shape(logps_old)} and rewards "
                             f"{np.shape(rewards)} must be one 1-D response of equal lengths")
        if np.any(tokens < 0):
            raise ValueError("response holds a negative token id; a padding id would shorten its length")
        n = tokens.size
        if n > self.max_len:
            raise ValueError(f"response of {n} tokens exceeds max_len {self.max_len}")
        row = {
            "time": time,
            "features": features,
            "tokens": np.full(self.max_len, -1, dtype=np.int64),
            "logps_old": np.zeros(self.max_len),
            "rewards": np.zeros(self.max_len),
            "v_old": v_old,
        }
        row["tokens"][:n], row["logps_old"][:n], row["rewards"][:n] = tokens, logps_old, rewards
        for name, value in row.items():
            setattr(self, name, np.concatenate([getattr(self, name), [value]]))

    def evict(self, now: float) -> None:
        keep = self.time > now - self.window
        for name in BUFFER_FIELDS:
            setattr(self, name, getattr(self, name)[keep])

    def batch(self, rows: np.ndarray):
        """(features, tokens, logps_old, rewards, lengths, v_old) of ``rows``,
        cut to the longest response among them."""
        lengths = (self.tokens[rows] >= 0).sum(1)
        cut = slice(int(lengths.max()))
        return (
            self.features[rows],
            self.tokens[rows, cut],
            self.logps_old[rows, cut],
            self.rewards[rows, cut],
            lengths,
            self.v_old[rows],
        )

    def __len__(self) -> int:
        return self.time.size


class PPOTrainer:
    """Owns the policy, its frozen reference, the value head, and updates."""

    def __init__(
        self,
        policy: TokenPolicy,
        value_head: ValueHead,
        config: TrainerConfig,
        shuffle_rng: np.random.Generator,
    ):
        self.policy = policy
        self.value_head = value_head
        self.config = config
        self.reference = policy.snapshot()
        self.buffer = ReplayBuffer(config.buffer_window, policy.feature_len, policy.max_len)
        self.shuffle_rng = shuffle_rng
        self.opt_policy = AdamW(policy.params, config.actor_lr, config.actor_weight_decay)
        self.opt_value = AdamW(value_head.params, config.value_lr, config.value_weight_decay)
        self.updates_done = 0

    # -- the update ------------------------------------------------------

    def _advantages(self, rewards, mask, v_old):
        """Per-token advantages and lambda-returns, padded like the batch.

        Without a critic the values are 0 and lambda is 1, which makes both
        the raw discounted return-to-go (plain REINFORCE).
        """
        cfg = self.config
        lam = cfg.lam if cfg.use_critic else 1.0
        values = np.where(mask, v_old[:, None], 0.0) if cfg.use_critic else np.zeros_like(rewards)
        adv = gae(rewards, values, cfg.gamma, lam)
        return adv, adv + values

    def update(self, step: float) -> dict:
        """One optimization pass: n_b shuffled batches, one step each.

        ``step`` is the global simulation time, recorded in diagnostics.
        Raises on an empty buffer.
        """
        cfg = self.config
        n = len(self.buffer)
        if not n:
            raise ValueError("update called with an empty buffer")

        order = self.shuffle_rng.permutation(n)
        pos = 0
        diag = dict.fromkeys(DIAGNOSTICS, 0.0)

        for _ in range(cfg.batches_per_update):
            take = min(cfg.batch_size, n)
            if pos + take > n:
                order = self.shuffle_rng.permutation(n)
                pos = 0
            stats = self._update_batch(order[pos : pos + take])
            pos += take
            for k in DIAGNOSTICS:
                diag[k] += stats[k] / cfg.batches_per_update

        self.updates_done += 1
        diag["step"] = step
        return diag

    def _update_batch(self, rows: np.ndarray) -> dict:
        cfg = self.config
        features, tokens, logps_old, rewards, lengths, v_old = self.buffer.batch(rows)
        B, lmax = tokens.shape
        mask = np.arange(lmax)[None, :] < lengths[:, None]
        n_tok = int(mask.sum())

        adv, rets = self._advantages(rewards, mask, v_old)
        flat_adv = adv[mask]
        raw_adv_mean = float(flat_adv.mean())
        adv_std = standardize(flat_adv)
        adv_padded = np.zeros_like(adv)
        adv_padded[mask] = adv_std

        logps_new, logits, cache = self.policy.logprobs_batch(features, tokens, lengths)
        ratio = np.where(mask, np.exp(logps_new - logps_old), 1.0)
        obj, dlogp = policy_surrogate(ratio, adv_padded, cfg.eps_low, cfg.eps_high)
        obj = np.where(mask, obj, 0.0)
        j_clip = float(obj.sum() / n_tok)
        # loss = -J: each valid token contributes -dobj / n_tok through its log-prob
        dlogp_loss = np.where(mask, -dlogp / n_tok, 0.0)

        # -probs * dlogp_loss, built in the logits' own array: logits - lse -> exp -> negate -> scale
        dlogits = np.subtract(logits, cache["lse"][..., None], out=logits)
        np.exp(dlogits, out=dlogits)
        np.negative(dlogits, out=dlogits)
        np.multiply(dlogits, dlogp_loss[:, :, None], out=dlogits)
        rows = np.arange(B)[:, None]
        cols = np.arange(lmax)[None, :]
        dlogits[rows, cols, cache["ids"]] += dlogp_loss
        dlogits *= mask[:, :, None]

        policy_grads = self.policy.backward_from_dlogits(cache, dlogits)
        norm_p = clip_by_global_norm(policy_grads, cfg.grad_clip_policy)

        v_loss = 0.0
        norm_v = 0.0
        if cfg.use_critic:
            v_new, v_cache = self.value_head.forward_batch(features)
            v_tok = np.repeat(v_new, lengths)
            vo_tok = np.repeat(v_old, lengths)
            v_loss, dv_tok = value_loss(v_tok, vo_tok, rets[mask], cfg.eps_value)
            dv_rec = np.zeros(B)
            splits = np.cumsum(lengths)[:-1]
            for i, part in enumerate(np.split(dv_tok, splits)):
                dv_rec[i] = part.sum()
            value_grads = self.value_head.backward(v_cache, cfg.alpha * dv_rec)
            norm_v = clip_by_global_norm(value_grads, cfg.grad_clip_value)

        # a non-finite norm means non-finite gradients; a step would spread them
        if not (math.isfinite(norm_p) and math.isfinite(norm_v)):
            raise ValueError(f"non-finite gradient norm (policy {norm_p!r}, value {norm_v!r}); step not taken")
        self.opt_policy.step(self.policy.params, policy_grads)
        if cfg.use_critic:
            self.opt_value.step(self.value_head.params, value_grads)

        flat_ratio = ratio[mask]
        clipped = (flat_ratio < 1.0 - cfg.eps_low) | (flat_ratio > 1.0 + cfg.eps_high)
        # in DIAGNOSTICS order
        stats = (float(flat_ratio.mean()), float(clipped.mean()), -j_clip, v_loss, raw_adv_mean, norm_p, norm_v)
        return dict(zip(DIAGNOSTICS, stats, strict=True))

    # -- persistence -----------------------------------------------------

    def _entries(self):
        """(checkpoint entry, dict holding its array, key in that dict) in file order, which is
        part of the checkpoint bytes: ``np.savez`` writes the members in it."""
        for f in POLICY_FIELDS:
            yield f"policy.{f}", self.policy.params, f
            yield f"ref.{f}", self.reference.params, f
        for f in VALUE_FIELDS:
            yield f"value.{f}", self.value_head.params, f
        for name, opt in (("optp", self.opt_policy), ("optv", self.opt_value)):
            for moment, holder in (("m", opt.m), ("v", opt.v)):
                for f in holder:
                    yield f"{name}.{moment}.{f}", holder, f
        for name in BUFFER_FIELDS:
            yield f"buf.{name}", vars(self.buffer), name

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {entry: holder[key] for entry, holder, key in self._entries()}

    def state_meta(self) -> dict:
        state = (self.opt_policy.t, self.opt_value.t, self.updates_done, self.shuffle_rng.bit_generator.state)
        return dict(zip(TRAINER_META, state, strict=True))

    def load_state(self, arrays: Dict[str, np.ndarray], meta: dict) -> None:
        for entry, holder, key in self._entries():
            holder[key] = np.array(arrays[entry])
        self.opt_policy.t = int(meta["opt_policy_t"])
        self.opt_value.t = int(meta["opt_value_t"])
        self.updates_done = int(meta["updates_done"])
        self.shuffle_rng.bit_generator.state = meta["shuffle_rng"]


def save_checkpoint(path, trainer: PPOTrainer, config_hash: str, runner_meta: dict) -> None:
    """Write a fully resumable training snapshot to ``path``, as named.

    ``runner_meta`` carries the caller's state between episodes (the next
    episode's index, the run's seed, the lengths and digests of the run
    logs); it round-trips unchanged. The archive is written to a temporary file next to ``path``
    and then renamed over it, so a write that fails partway leaves any
    previous snapshot at ``path`` whole.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "policy_meta": trainer.policy.meta(),
        "trainer_meta": trainer.state_meta(),
        "runner_meta": runner_meta,
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **trainer.state_arrays())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_object(name: str, value, keys: Sequence[str]) -> None:
    """Raise ValueError unless ``value``, the ``name`` part of a checkpoint's meta, is an object holding ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} holds a {type(value).__name__}, not a JSON object")
    missing = sorted(set(keys) - value.keys())
    if missing:
        raise ValueError(f"{name} lacks {', '.join(missing)}")


def load_checkpoint(path, runner_keys: Sequence[str] = ()) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a snapshot; returns (meta, arrays). Errors name the problem.

    The meta and each of its sections must be an object holding its keys:
    ``policy.META_FIELDS``, :data:`TRAINER_META`, and ``runner_keys`` in the
    ``runner_meta`` that its caller wrote; anything else is unreadable.
    """
    try:
        # np.load given a path leaves the file open when the zip archive in it is broken
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy file loads as one array
                raise ValueError("not an .npz archive")
            with data:
                arrays = {k: np.array(data[k]) for k in data.files if k != "meta"}
                meta = json.loads(str(data["meta"]))
        sections = {"policy_meta": META_FIELDS, "trainer_meta": TRAINER_META, "runner_meta": runner_keys}
        _check_object("meta", meta, ("version", "config_hash", *sections))
        for name, keys in sections.items():
            _check_object(name, meta[name], keys)
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ValueError(f"unreadable checkpoint {path}: {exc}") from exc
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: file has {meta['version']}, expected {CHECKPOINT_VERSION}")
    return meta, arrays
