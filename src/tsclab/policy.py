"""Token-emitting policy, frozen reference snapshots, and value head.

The policy is a small feed-forward net over the observation features plus
the mean embedding of the last ``k_history`` generated tokens, giving a
genuine token-level process with position-dependent distributions. All
gradients are computed by hand-derived reverse-mode passes; the finite-
difference suite in the tests pins them to the analytic contract.

The batched sampler and the teacher-forced batch paths share one trunk,
which the one-key sampler writes out in its loop; the random streams come
from the counter-based keys in ``_kernels``.

The sampler's outputs are exact to the bit, and one rule keeps them so:
each decoding step runs on exactly the rows still active, compacted in
their original order. A lone active row keeps NumPy's 1-row (gemv) matmul
path, whose last bits differ from those of the same row inside a larger
(gemm) batch, so rows are never padded, and a row's bits are fixed by the
call it is drawn in. :meth:`TokenPolicy.sample` draws the responses of one
decision; :meth:`TokenPolicy.sample_window` draws rows of many decisions
in one batch by design, each with its own features: a training run's
entropy responses of one update window, where the parameters do not change.

A call with one key (every decision's action and the held-out episode) runs
a 1-row loop on 1-D arrays, which gives the bits of the batched loop at
g = 1 with fewer and cheaper NumPy calls per token:

- a 1-D row times a C-contiguous matrix is the same gemv as the (1, d)
  batch, and ``np.dot`` calls that gemv as ``np.matmul`` does, with less
  dispatch, so the loop runs the trunk's layers itself through ``np.dot``;
- ``np.add.reduce`` along axis 0 of the window's (w, d) rows adds them one
  row after another, so the loop adds the window's per-token rows in that
  order; the mean of a one-row window is the row, as x / 1 is x;
- a 0-d array operand holds the value of the scalar it stands for;
- a reduction over a contiguous 1-D row is the same loop as one along
  axis 1 of a (1, V) array;
- the CDF is nondecreasing, and NaN from its first NaN on, which
  ``searchsorted`` orders last, so ``searchsorted(u, side="right")`` is
  the count of entries <= u that the batched loop takes.

A G > 1 call keeps the batched loop to its end, even once one row is left.

A temperature T other than 1 draws from ``exp((logits - mx) / T)``, where
``mx`` is the maximum the step already takes for the log-normaliser. For
finite logits and T > 0 every exponent is <= 0 and the largest is 0, so
the normaliser lies in [1, vocab_size] and never overflows; as T tends to 0
the draw tends to the argmax. Non-finite logits, from non-finite
parameters or features, end the call at its check of the log-probs.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .rewards import check_float

POLICY_FIELDS = (
    "emb",
    "w_ctx",
    "b_ctx",
    "w_hist",
    "b_hist",
    "w_h1",
    "b_h1",
    "w_h2",
    "b_h2",
    "w_out",
    "b_out",
)

VALUE_FIELDS = ("w1", "b1", "w2", "b2")

# the policy's shape, in the order meta() lists it; checkpoints store meta() in this order
META_FIELDS = ("vocab_size", "feature_len", "eos_id", "d_embed", "d_hidden", "k_history", "max_len")


def _uniform_init(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _leaky(x, out=None):
    out = np.multiply(x, 0.01, out=out)
    return np.maximum(x, out, out=out)


def _leaky_backward(d, z):
    """Scales the gradient ``d`` in place by leaky ReLU's slope at ``z`` and returns it.

    The slope is 1 where ``z >= 0`` and 0.01 elsewhere, NaN included; ``d``
    is left as it is where the slope is 1, which is ``d * 1.0`` to the bit.
    """
    return np.multiply(d, 0.01, out=d, where=~(z >= 0.0))


class TokenPolicy:
    """Autoregressive categorical policy over a small token vocabulary."""

    def __init__(
        self,
        vocab_size: int,
        feature_len: int,
        eos_id: int,
        d_embed: int = 16,
        d_hidden: int = 64,
        k_history: int = 4,
        max_len: int = 32,
        rng: Optional[np.random.Generator] = None,
        params: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.vocab_size = vocab_size
        self.feature_len = feature_len
        self.eos_id = eos_id
        self.d_embed = d_embed
        self.d_hidden = d_hidden
        self.k_history = k_history
        self.max_len = max_len
        if params is not None:
            self.params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
        else:
            self.params = self._init_params(rng)

    def _init_params(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        V, F, d_e, d_h = self.vocab_size, self.feature_len, self.d_embed, self.d_hidden
        return {
            "emb": _uniform_init(rng, (V, d_e), d_e),
            "w_ctx": _uniform_init(rng, (F, d_h), F),
            "b_ctx": np.zeros(d_h),
            "w_hist": _uniform_init(rng, (d_e, d_h), d_e),
            "b_hist": np.zeros(d_h),
            "w_h1": _uniform_init(rng, (d_h, d_h), d_h),
            "b_h1": np.zeros(d_h),
            "w_h2": _uniform_init(rng, (d_h, d_h), d_h),
            "b_h2": np.zeros(d_h),
            "w_out": _uniform_init(rng, (d_h, V), d_h),
            "b_out": np.zeros(V),
        }

    # -- the trunk, shared by batched sampling and teacher forcing -------

    def _trunk(self, z0: np.ndarray, layers: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Runs the hidden layers from the first pre-activation ``z0`` up to the logits.

        Writes into ``layers``, the arrays (h, z1, z2, logits), and returns
        the logits. ``h`` holds h0, then h1, then h2, each ``_leaky`` of its
        pre-activation (``z0``, ``z1``, ``z2``), so the pre-activations are
        all :meth:`backward_from_dlogits` needs.
        """
        p = self.params
        h, z1, z2, logits = layers
        _leaky(z0, out=h)
        np.add(np.matmul(h, p["w_h1"], out=z1), p["b_h1"], out=z1)
        _leaky(z1, out=h)
        np.add(np.matmul(h, p["w_h2"], out=z2), p["b_h2"], out=z2)
        _leaky(z2, out=h)
        return np.add(np.matmul(h, p["w_out"], out=logits), p["b_out"], out=logits)

    # -- sampling --------------------------------------------------------

    def sample(
        self, features: np.ndarray, keys: Sequence[int], temperature: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``len(keys)`` responses, one independent stream each.

        Token ``t`` of a response is drawn from softmax(logits / temperature)
        by inverse CDF with uniform ``t + 1`` of its key's stream, so a
        response depends only on its key. Returns (tokens, lengths, logps):
        tokens is (g, max_len) padded with -1, logps is (g, max_len) padded
        with 0 and holds the log-probs of the temperature-1 distribution, so
        they agree with :meth:`logprobs` on the same tokens.

        Any finite temperature above 0 samples (see the module docstring).
        Raises ``ValueError`` if ``temperature`` is not finite and above 0,
        or if a sampled log-prob is not finite, which non-finite parameters
        or features cause.

        One key runs :meth:`_sample_row` on 1-D arrays, more keys run
        :meth:`_sample_rows`; both give the same bits (see the module
        docstring).
        """
        check_float("temperature", temperature, 0.0, strict=True)
        p = self.params
        ctx_pre = np.asarray(features, dtype=np.float64) @ p["w_ctx"] + p["b_ctx"]
        if len(keys) == 1:
            return self._draw(self._sample_row, ctx_pre, keys, temperature)
        return self._draw(self._sample_rows, np.broadcast_to(ctx_pre, (len(keys), self.d_hidden)), keys, temperature)

    def sample_window(self, features: np.ndarray, keys: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one response per key at temperature 1, row ``i`` reading ``features[i]``.

        ``features`` is (len(keys), feature_len). Returns what :meth:`sample`
        does, one row per key, and raises as it does. All rows run in one
        :meth:`_sample_rows` batch, each with its own context row, so the
        responses of many decisions share every step's matmuls.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (len(keys), self.feature_len):
            raise ValueError(f"features of shape {features.shape} for {len(keys)} keys; "
                             f"expected one row of {self.feature_len} per key")
        p = self.params
        return self._draw(self._sample_rows, features @ p["w_ctx"] + p["b_ctx"], keys, 1.0)

    def _draw(self, loop, ctx_pre, keys, temperature):
        """Runs ``loop`` over the keys' uniforms from the context pre-activation ``ctx_pre``,
        one row per key or, for one key, 1-D; raises on a non-finite log-prob."""
        p = self.params
        # the projected mean embedding of the window is the mean of projected rows
        hist_proj = p["emb"] @ p["w_hist"]
        u = _kernels.uniforms_from_key(keys, self.max_len)
        # a tempered exponent below the float range rounds to -inf, whose exp is the 0 it stands for
        with np.errstate(over="ignore") if temperature != 1.0 else nullcontext():
            tokens, lengths, logps = loop(u, hist_proj, ctx_pre, temperature)
        if not np.isfinite(logps).all():
            raise ValueError("sampler produced a non-finite log-prob; check parameters and features")
        return tokens, lengths, logps

    def _sample_row(self, u, hist_proj, ctx_pre, temperature):
        """The loop of :meth:`sample` for one key, on 1-D arrays.

        ``u`` is the (1, n_steps) uniforms of the key. Each step sums the
        window's projected rows, runs the trunk's layers on one
        (d_hidden,) row with ``np.dot``, reduces the (vocab_size,) logits to
        scalars and draws by a binary search of the CDF. The tokens and
        log-probs go into lists, written into the padded outputs once.
        """
        p = self.params
        w_h1, b_h1, w_h2, b_h2, w_out, b_out = (p[f] for f in ("w_h1", "b_h1", "w_h2", "b_h2", "w_out", "b_out"))
        k, eos, b_hist = self.k_history, self.eos_id, p["b_hist"]
        add, divide, dot, exp, log, maximum, multiply, subtract = (
            np.add, np.divide, np.dot, np.exp, np.log, np.maximum, np.multiply, np.subtract)
        max_reduce, sum_reduce, accumulate = np.maximum.reduce, np.add.reduce, np.add.accumulate
        # the pre-activation of an empty window, which steps with a window overwrite with theirs
        z0 = ctx_pre + np.zeros(self.d_hidden) + b_hist
        h, z = np.empty(self.d_hidden), np.empty(self.d_hidden)
        slope, mx = np.array(0.01), np.empty(())  # 0-d arrays, cheaper operands than scalars
        logits, e = np.empty(self.vocab_size), np.empty(self.vocab_size)
        head = e[:-1]  # the CDF but its last entry, as in _sample_rows
        tok, lp, picked = [], [], []  # the drawn tokens, their log-probs and their projected rows
        for step, u_step in enumerate(u[0]):
            if step and k:
                window = picked[-k:]
                if len(window) == 1:  # the mean of one row is the row
                    add(ctx_pre, window[0], out=z0)
                else:  # the window's sum, one row at a time in np.add.reduce's order along axis 0
                    add(window[0], window[1], out=z0)
                    for row in window[2:]:
                        add(z0, row, out=z0)
                    add(ctx_pre, divide(z0, float(len(window)), out=z0), out=z0)
                add(z0, b_hist, out=z0)
            maximum(z0, multiply(z0, slope, out=h), out=h)
            add(dot(h, w_h1, out=z), b_h1, out=z)
            maximum(z, multiply(z, slope, out=h), out=h)
            add(dot(h, w_h2, out=z), b_h2, out=z)
            maximum(z, multiply(z, slope, out=h), out=h)
            add(dot(h, w_out, out=logits), b_out, out=logits)

            max_reduce(logits, out=mx)
            exp(subtract(logits, mx, out=e), out=e)
            total = sum_reduce(e)
            lse = mx[()] + log(total)
            if temperature != 1.0:
                exp(divide(subtract(logits, mx, out=e), temperature, out=e), out=e)
                total = sum_reduce(e)
            accumulate(divide(head, total, out=head), out=head)
            drawn = int(head.searchsorted(u_step, side="right"))

            tok.append(drawn)
            lp.append(logits[drawn] - lse)
            if drawn == eos:
                break
            picked.append(hist_proj[drawn])
        tokens, logps = np.full((1, u.shape[1]), -1, dtype=np.int64), np.zeros((1, u.shape[1]))
        tokens[0, : len(tok)], logps[0, : len(lp)] = tok, lp
        return tokens, np.full(1, len(tok), dtype=np.int64), logps

    def _sample_rows(self, u, hist_proj, ctx_pre, temperature):
        """The loop of :meth:`sample` for several keys, on 2-D arrays.

        ``u`` is the (g, n_steps) uniforms and ``ctx_pre`` the (g, d_hidden)
        context rows, one row per key. Each step works on the active rows
        only, compacted in key order: their tokens, log-probs, uniforms and
        context rows sit in per-call buffers, and a row is copied into the
        padded outputs when it ends.
        """
        g, n_steps = u.shape
        k, eos, b_hist = self.k_history, self.eos_id, self.params["b_hist"]
        tokens = np.full((g, n_steps), -1, dtype=np.int64)
        logps = np.zeros((g, n_steps), dtype=np.float64)
        lengths = np.full(g, n_steps, dtype=np.int64)
        # the active rows in key order: the output row of each, and step-major
        # buffers of their uniforms, tokens and log-probs (buffer[step] is one step of every row)
        rows = np.arange(g)
        u = np.ascontiguousarray(u.T)[:, :, None]
        tok = np.empty((n_steps, g), dtype=np.int64)
        lp = np.empty((n_steps, g))
        # z0, one embedding row, the activation and the pre-activation of each active row, its
        # logits, exp(logits - max) and then the CDF, and its max, sum and lse
        buffers = (*(np.empty((g, self.d_hidden)) for _ in range(4)),
                   *(np.empty((g, self.vocab_size)) for _ in range(2)), *(np.empty((g, 1)) for _ in range(3)))
        n = -1
        for step in range(n_steps):
            if n != rows.size:  # rows ended: slice the buffers to the active ones
                n = rows.size
                z0, row, h, z, logits, e, mx, total, lse = (b[:n] for b in buffers)
                layers = (h, z, z, logits)  # the trunk reads z1 into h before it writes z2
                pick, lse_flat = np.arange(n), lse[:, 0]
                # the CDF but its last column: the count of its entries <= u is the
                # count over the whole CDF capped at vocab_size - 1, as the CDF is
                # nondecreasing (and NaN from the first NaN on)
                head = e[:, :-1]
            if step and k:
                window = tok[max(0, step - k) : step]
                # the window's sum, one projected row at a time in np.add.reduce's order
                # along axis 0; "clip" writes straight into the buffer, and ids are in range
                hist_proj.take(window[0], axis=0, out=z0, mode="clip")
                for ids in window[1:]:
                    np.add(z0, hist_proj.take(ids, axis=0, out=row, mode="clip"), out=z0)
                np.divide(z0, window.shape[0], out=z0)
            else:  # the mean of an empty window
                z0[...] = 0.0
            np.add(ctx_pre, z0, out=z0)
            logits = self._trunk(np.add(z0, b_hist, out=z0), layers)

            np.maximum.reduce(logits, axis=1, keepdims=True, out=mx)
            np.exp(np.subtract(logits, mx, out=e), out=e)
            np.add.reduce(e, axis=1, keepdims=True, out=total)
            np.add(mx, np.log(total, out=lse), out=lse)
            if temperature != 1.0:
                np.exp(np.divide(np.subtract(logits, mx, out=e), temperature, out=e), out=e)
                np.add.reduce(e, axis=1, keepdims=True, out=total)
            np.add.accumulate(np.divide(head, total, out=head), axis=1, out=head)
            drawn = np.add.reduce(np.less_equal(head, u[step]), axis=1)

            tok[step] = drawn
            np.subtract(logits[pick, drawn], lse_flat, out=lp[step])
            if eos in drawn.tolist():
                ended = drawn == eos
                done = rows[ended]
                tokens[done, : step + 1] = tok[: step + 1, ended].T
                logps[done, : step + 1] = lp[: step + 1, ended].T
                lengths[done] = step + 1
                live = ~ended
                rows, u, tok, lp = rows[live], u[:, live], tok[:, live], lp[:, live]
                ctx_pre = ctx_pre[live]
                if not rows.size:
                    break
        else:
            tokens[rows] = tok.T
            logps[rows] = lp.T
        return tokens, lengths, logps

    # -- teacher-forced evaluation ---------------------------------------

    def forward_batch(self, features: np.ndarray, tokens: np.ndarray, lengths: np.ndarray):
        """Teacher-forced logits for padded token batches.

        ``features`` is (B, F), ``tokens`` is (B, L) padded with -1,
        ``lengths`` gives the valid prefix of each row. Returns
        (logits (B, L, V), cache) where the cache feeds
        :meth:`backward_from_dlogits`. The cache holds the pre-activations
        ``z0``, ``z1`` and ``z2`` and no activation: three (B, L, d_hidden)
        arrays besides the window means ``m`` (B, L, d_embed).
        """
        p = self.params
        B, L = tokens.shape
        k = self.k_history
        valid = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)
        ids = np.maximum(tokens, 0)
        emb_seq = p["emb"][ids]
        emb_seq *= valid[:, :, None]

        m = np.zeros((B, L, self.d_embed))
        for off in range(1, k + 1):
            if off < L:
                m[:, off:, :] += emb_seq[:, :-off, :]
        wcount = np.minimum(np.arange(L), k).clip(min=1).astype(np.float64)
        np.divide(m, wcount[None, :, None], out=m)  # the window sums become their means

        ctx_pre = features @ p["w_ctx"] + p["b_ctx"]
        z0 = m @ p["w_hist"]
        np.add(ctx_pre[:, None, :], z0, out=z0)
        np.add(z0, p["b_hist"], out=z0)
        z1, z2 = np.empty_like(z0), np.empty_like(z0)
        logits = self._trunk(z0, (np.empty_like(z0), z1, z2, np.empty((B, L, self.vocab_size))))

        cache = {
            "features": features,
            "ids": ids,
            "valid": valid,
            "wcount": wcount,
            "m": m,
            "z0": z0,
            "z1": z1,
            "z2": z2,
        }
        return logits, cache

    def logprobs_batch(self, features: np.ndarray, tokens: np.ndarray, lengths: np.ndarray):
        """Per-token log-probs of the given tokens; zeros past each length.

        Returns (logps, logits, cache); the cache of :meth:`forward_batch`
        also holds ``lse``, the log-normaliser of every position's logits.
        Raises ``ValueError`` on a token id outside the vocabulary, or on the
        padding id -1 inside a row's length.
        """
        lowest = tokens.min()
        if lowest < -1 or tokens.max() >= self.vocab_size:
            raise ValueError("token id outside vocabulary")
        if lowest < 0 and np.any(tokens < 0, where=np.arange(tokens.shape[1]) < lengths[:, None]):
            raise ValueError("padding id -1 inside a response's length")
        logits, cache = self.forward_batch(features, tokens, lengths)
        lse = cache["lse"] = _logsumexp(logits)
        B, L = tokens.shape
        rows = np.arange(B)[:, None]
        cols = np.arange(L)[None, :]
        picked = logits[rows, cols, cache["ids"]]
        logps = (picked - lse) * cache["valid"]
        return logps, logits, cache

    def logprobs(self, features: np.ndarray, tokens: Sequence[int]) -> np.ndarray:
        """Log-probs for a single response (convenience wrapper)."""
        toks = np.asarray(tokens, dtype=np.int64)[None, :]
        lengths = np.array([toks.shape[1]], dtype=np.int64)
        logps, _, _ = self.logprobs_batch(np.asarray(features, dtype=np.float64)[None, :], toks, lengths)
        return logps[0]

    def backward_from_dlogits(self, cache: dict, dlogits: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(logits).

        ``dlogits`` must already be zero at padded positions (the loss
        builders only write valid positions). The activations h2, h1 and h0
        are recomputed with ``_leaky`` from the cached pre-activations, each
        just before the weight gradient that reads it and dropped after;
        the cache is only read. Each layer's gradient is scaled in place
        (see :func:`_leaky_backward`), so besides the cache at most two
        (B, L, d_hidden) arrays are alive at a time. One toy8 update
        (B = 20, L = 32) peaks at about 7.5 such arrays.
        """
        p = self.params
        B, L, V = dlogits.shape
        d_h, d_e, k = self.d_hidden, self.d_embed, self.k_history
        dlf = dlogits.reshape(-1, V)

        grads = {}
        grads["w_out"] = _leaky(cache["z2"]).reshape(-1, d_h).T @ dlf
        grads["b_out"] = dlf.sum(axis=0)

        d = _leaky_backward(dlogits @ p["w_out"].T, cache["z2"])
        grads["w_h2"] = _leaky(cache["z1"]).reshape(-1, d_h).T @ d.reshape(-1, d_h)
        grads["b_h2"] = d.sum(axis=(0, 1))

        d = _leaky_backward(d @ p["w_h2"].T, cache["z1"])
        grads["w_h1"] = _leaky(cache["z0"]).reshape(-1, d_h).T @ d.reshape(-1, d_h)
        grads["b_h1"] = d.sum(axis=(0, 1))

        d = _leaky_backward(d @ p["w_h1"].T, cache["z0"])
        grads["b_hist"] = d.sum(axis=(0, 1))
        grads["b_ctx"] = grads["b_hist"].copy()
        grads["w_hist"] = cache["m"].reshape(-1, d_e).T @ d.reshape(-1, d_h)
        grads["w_ctx"] = cache["features"].T @ d.sum(axis=1)

        dwsum = d @ p["w_hist"].T
        np.divide(dwsum, cache["wcount"][None, :, None], out=dwsum)
        demb = np.zeros((B, L, d_e))
        for off in range(1, k + 1):
            if off < L:
                demb[:, :-off, :] += dwsum[:, off:, :]
        demb *= cache["valid"][:, :, None]
        grads["emb"] = np.zeros_like(p["emb"])
        np.add.at(grads["emb"], cache["ids"].ravel(), demb.reshape(-1, d_e))
        return grads

    # -- reference snapshots and serialization ---------------------------

    def snapshot(self) -> "TokenPolicy":
        """Deep-copied frozen reference; later updates never leak into it."""
        return TokenPolicy.from_meta(self.meta(), copy.deepcopy(self.params))

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def meta(self) -> dict:
        return {f: getattr(self, f) for f in META_FIELDS}

    @staticmethod
    def from_meta(meta: dict, params: Dict[str, np.ndarray]) -> "TokenPolicy":
        return TokenPolicy(**{f: int(meta[f]) for f in META_FIELDS}, params=params)


class ValueHead:
    """Two-layer state-value estimator over the observation features."""

    def __init__(
        self,
        feature_len: int,
        rng: Optional[np.random.Generator] = None,
        params: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.feature_len = feature_len
        hidden = 2 * feature_len
        if params is not None:
            self.params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
        else:
            self.params = {
                "w1": _uniform_init(rng, (feature_len, hidden), feature_len),
                "b1": np.zeros(hidden),
                "w2": _uniform_init(rng, (hidden, 1), hidden),
                "b2": np.zeros(1),
            }

    def value(self, features: np.ndarray) -> float:
        """Scalar value of one feature vector."""
        v, _ = self.forward_batch(np.asarray(features, dtype=np.float64)[None, :])
        return float(v[0])

    def forward_batch(self, features: np.ndarray):
        """Values of a (B, F) batch and the cache :meth:`backward` reads: the
        features and the pre-activation ``z1``, and no activation."""
        p = self.params
        z1 = features @ p["w1"] + p["b1"]
        v = (_leaky(z1) @ p["w2"])[:, 0] + p["b2"][0]
        return v, {"features": features, "z1": z1}

    def backward(self, cache: dict, dv: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients given d(loss)/d(values); h1 is recomputed from ``z1``."""
        p = self.params
        grads = {}
        grads["w2"] = _leaky(cache["z1"]).T @ dv[:, None]
        grads["b2"] = np.array([dv.sum()])
        dz1 = _leaky_backward(dv[:, None] @ p["w2"].T, cache["z1"])
        grads["w1"] = cache["features"].T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    mx = logits.max(axis=-1, keepdims=True)
    e = np.subtract(logits, mx)
    total = np.exp(e, out=e).sum(axis=-1, keepdims=True)
    return (mx + np.log(total))[..., 0]


def global_norm(grads: Dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_by_global_norm(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    """In-place global-norm clipping; returns the pre-clip norm."""
    norm = global_norm(grads)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
