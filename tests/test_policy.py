import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsclab import _kernels
from tsclab._kernels import derive_key, uniforms_from_key
from tsclab.phases import feature_length
from tsclab.policy import (
    POLICY_FIELDS,
    VALUE_FIELDS,
    TokenPolicy,
    ValueHead,
    clip_by_global_norm,
    global_norm,
)


def flatten_params(params, fields):
    return np.concatenate([params[f].ravel() for f in fields])


def assign_flat(params, fields, vec):
    pos = 0
    for f in fields:
        size = params[f].size
        params[f][...] = vec[pos : pos + size].reshape(params[f].shape)
        pos += size
    if pos != vec.size:
        raise ValueError("flat vector length mismatch")


def weighted_logp_loss(policy, features, tokens, lengths, weights):
    """Scalar sum of weights * per-token log-probs; the FD target."""
    logps, _, _ = policy.logprobs_batch(features, tokens, lengths)
    mask = np.arange(tokens.shape[1])[None, :] < lengths[:, None]
    return float((weights * logps)[mask].sum())


def analytic_grad(policy, features, tokens, lengths, weights):
    logits, cache = policy.forward_batch(features, tokens, lengths)
    B, L, V = logits.shape
    mask = np.arange(L)[None, :] < lengths[:, None]
    m = logits.max(axis=2, keepdims=True)
    probs = np.exp(logits - m)
    probs /= probs.sum(axis=2, keepdims=True)
    dlogits = -probs * weights[..., None]
    rows, cols = np.nonzero(mask)
    dlogits[rows, cols, tokens[rows, cols]] += weights[rows, cols]
    dlogits[~mask] = 0.0
    return policy.backward_from_dlogits(cache, dlogits)


class TestGradientOracle:
    """Central finite differences pin the hand-derived backward pass."""

    def _case(self, policy, rng, batch=3, lmax=6):
        F = policy.feature_len
        features = rng.uniform(0.0, 4.0, size=(batch, F))
        lengths = rng.integers(1, lmax + 1, size=batch)
        tokens = np.full((batch, lmax), -1, dtype=np.int64)
        for i in range(batch):
            tokens[i, : lengths[i]] = rng.integers(0, policy.vocab_size, size=lengths[i])
        weights = rng.normal(size=(batch, lmax))
        return features, tokens, lengths, weights

    def test_policy_gradient_matches_fd(self, small_policy):
        rng = np.random.Generator(np.random.PCG64(3))
        features, tokens, lengths, weights = self._case(small_policy, rng)
        grads = analytic_grad(small_policy, features, tokens, lengths, weights)

        h = 1e-5
        flat = flatten_params(small_policy.params, POLICY_FIELDS)
        g_an = flatten_params(grads, POLICY_FIELDS)
        g_fd = np.empty_like(flat)
        for i in range(flat.size):
            for sgn, slot in ((1.0, 0), (-1.0, 1)):
                vec = flat.copy()
                vec[i] += sgn * h
                assign_flat(small_policy.params, POLICY_FIELDS, vec)
                val = weighted_logp_loss(small_policy, features, tokens, lengths, weights)
                if slot == 0:
                    hi = val
                else:
                    lo = val
            g_fd[i] = (hi - lo) / (2 * h)
        assign_flat(small_policy.params, POLICY_FIELDS, flat)

        rel = np.linalg.norm(g_fd - g_an) / max(np.linalg.norm(g_fd), np.linalg.norm(g_an), 1e-12)
        assert rel <= 1e-6

    def test_value_gradient_matches_fd(self, small_value):
        rng = np.random.Generator(np.random.PCG64(5))
        F = small_value.feature_len
        features = rng.uniform(0.0, 4.0, size=(4, F))
        targets = rng.normal(size=4)

        v, cache = small_value.forward_batch(features)
        dv = (v - targets) / 4.0  # d/dv of 0.5*mean((v-target)^2)
        grads = small_value.backward(cache, dv)

        def loss():
            vv, _ = small_value.forward_batch(features)
            return float(0.5 * np.mean((vv - targets) ** 2))

        h = 1e-5
        flat = flatten_params(small_value.params, VALUE_FIELDS)
        g_an = flatten_params(grads, VALUE_FIELDS)
        g_fd = np.empty_like(flat)
        for i in range(flat.size):
            vec = flat.copy()
            vec[i] += h
            assign_flat(small_value.params, VALUE_FIELDS, vec)
            hi = loss()
            vec[i] -= 2 * h
            assign_flat(small_value.params, VALUE_FIELDS, vec)
            lo = loss()
            g_fd[i] = (hi - lo) / (2 * h)
        assign_flat(small_value.params, VALUE_FIELDS, flat)

        rel = np.linalg.norm(g_fd - g_an) / max(np.linalg.norm(g_fd), np.linalg.norm(g_an), 1e-12)
        assert rel <= 1e-6


def reference_backward(policy, cache, dlogits):
    """The backward pass with one new array per layer gradient: the bit-exact
    oracle of ``TokenPolicy.backward_from_dlogits``."""
    p = policy.params
    B, L, V = dlogits.shape
    d_h, d_e, k = policy.d_hidden, policy.d_embed, policy.k_history

    def leaky(x):
        return np.where(x >= 0.0, x, 0.01 * x)

    def dleaky(x):
        return np.where(x >= 0.0, 1.0, 0.01)

    grads = {}
    grads["w_out"] = leaky(cache["z2"]).reshape(-1, d_h).T @ dlogits.reshape(-1, V)
    grads["b_out"] = dlogits.reshape(-1, V).sum(axis=0)
    dh2 = dlogits @ p["w_out"].T
    dz2 = dh2 * dleaky(cache["z2"])
    grads["w_h2"] = leaky(cache["z1"]).reshape(-1, d_h).T @ dz2.reshape(-1, d_h)
    grads["b_h2"] = dz2.sum(axis=(0, 1))
    dh1 = dz2 @ p["w_h2"].T
    dz1 = dh1 * dleaky(cache["z1"])
    grads["w_h1"] = leaky(cache["z0"]).reshape(-1, d_h).T @ dz1.reshape(-1, d_h)
    grads["b_h1"] = dz1.sum(axis=(0, 1))
    dh0 = dz1 @ p["w_h1"].T
    dz0 = dh0 * dleaky(cache["z0"])
    grads["b_hist"] = dz0.sum(axis=(0, 1))
    grads["b_ctx"] = grads["b_hist"].copy()
    grads["w_hist"] = cache["m"].reshape(-1, d_e).T @ dz0.reshape(-1, d_h)
    grads["w_ctx"] = cache["features"].T @ dz0.sum(axis=1)
    dm = dz0 @ p["w_hist"].T
    dwsum = dm / cache["wcount"][None, :, None]
    demb = np.zeros((B, L, d_e))
    for off in range(1, k + 1):
        if off < L:
            demb[:, :-off, :] += dwsum[:, off:, :]
    demb *= cache["valid"][:, :, None]
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], cache["ids"].ravel(), demb.reshape(-1, d_e))

    return grads


def reference_value_backward(head, cache, dv):
    """``ValueHead.backward`` with a new array per step, as ``reference_backward``."""
    p = head.params
    z1 = cache["z1"]
    dz1 = (dv[:, None] @ p["w2"].T) * np.where(z1 >= 0.0, 1.0, 0.01)
    return {
        "w2": np.where(z1 >= 0.0, z1, 0.01 * z1).T @ dv[:, None],
        "b2": np.array([dv.sum()]),
        "w1": cache["features"].T @ dz1,
        "b1": dz1.sum(axis=0),
    }


@settings(max_examples=120, deadline=None)
@given(
    batch=st.integers(1, 7),
    max_len=st.sampled_from([1, 2, 5, 32]),
    k_history=st.sampled_from([0, 1, 4]),
    d_hidden=st.sampled_from([3, 64]),
    signed_zeros=st.booleans(),
    nan_param=st.sampled_from([None, "b_hist", "b_h1", "b_h2"]),
    seed=st.integers(0, 2**16),
)
@example(batch=6, max_len=1, k_history=4, d_hidden=64, signed_zeros=False, nan_param=None, seed=0)
@example(batch=1, max_len=1, k_history=4, d_hidden=64, signed_zeros=True, nan_param=None, seed=1)
@example(batch=5, max_len=32, k_history=4, d_hidden=64, signed_zeros=True, nan_param=None, seed=2)
@example(batch=4, max_len=5, k_history=1, d_hidden=3, signed_zeros=False, nan_param="b_h2", seed=3)
@example(batch=4, max_len=5, k_history=4, d_hidden=64, signed_zeros=True, nan_param="b_hist", seed=4)
def test_backward_matches_reference_bit_for_bit(
    toy8, vocab8, batch, max_len, k_history, d_hidden, signed_zeros, nan_param, seed
):
    """The in-place backward passes give the reference's gradients to the bit.

    Rows are padded past their lengths. With ``signed_zeros`` some
    pre-activations are exactly 0.0 and -0.0, where the slope is 1; a NaN
    parameter makes pre-activations NaN, where the slope is 0.01. The
    caches hold pre-activations and no activation, and the backward passes
    leave them as they found them.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    F = feature_length(toy8)
    policy = TokenPolicy(
        vocab8.size, F, vocab8.eos_id, d_embed=5, d_hidden=d_hidden,
        k_history=k_history, max_len=max_len, rng=rng,
    )
    head = ValueHead(F, rng=rng)
    if nan_param is not None:
        policy.params[nan_param][0] = np.nan
        head.params["b1"][0] = np.nan
    features = rng.uniform(0.0, 4.0, size=(batch, F))
    lengths = rng.integers(1, max_len + 1, size=batch)
    tokens = np.where(
        np.arange(max_len)[None, :] < lengths[:, None],
        rng.integers(0, vocab8.size, size=(batch, max_len)),
        -1,
    )
    _, cache = policy.forward_batch(features, tokens, lengths)
    dlogits = rng.normal(size=(batch, max_len, vocab8.size)) * cache["valid"][:, :, None]
    _, v_cache = head.forward_batch(features)
    dv = rng.normal(size=batch)
    if signed_zeros:
        for z in (cache["z0"], cache["z1"], cache["z2"], v_cache["z1"]):
            z[..., 0] = 0.0
            z[..., -1] = -0.0

    assert sorted(cache) == ["features", "ids", "m", "valid", "wcount", "z0", "z1", "z2"]
    assert sorted(v_cache) == ["features", "z1"]

    def cache_bytes():
        return [{name: value.tobytes() for name, value in c.items()} for c in (cache, v_cache)]

    before = cache_bytes()

    got = policy.backward_from_dlogits(cache, dlogits)
    want = reference_backward(policy, cache, dlogits)
    assert sorted(got) == sorted(want) == sorted(POLICY_FIELDS)
    for name in POLICY_FIELDS:
        assert np.array_equal(got[name], want[name], equal_nan=True), name
    got_v = head.backward(v_cache, dv)
    want_v = reference_value_backward(head, v_cache, dv)
    assert sorted(got_v) == sorted(VALUE_FIELDS)
    for name in VALUE_FIELDS:
        assert np.array_equal(got_v[name], want_v[name], equal_nan=True), name
    assert cache_bytes() == before


class TestForward:
    def test_logprobs_are_normalized(self, small_policy):
        rng = np.random.Generator(np.random.PCG64(9))
        features = rng.uniform(0.0, 3.0, size=(1, small_policy.feature_len))
        V = small_policy.vocab_size
        # same prefix, every possible token at the last position
        tokens = np.tile(np.array([[2, 5, 0]]), (V, 1))
        tokens = np.concatenate([tokens, np.arange(V)[:, None]], axis=1)
        lengths = np.full(V, 4)
        logps, _, _ = small_policy.logprobs_batch(
            np.tile(features, (V, 1)), tokens, lengths
        )
        total = np.exp(logps[:, 3]).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_history_window_locality(self, small_policy):
        k = small_policy.k_history
        rng = np.random.Generator(np.random.PCG64(13))
        features = rng.uniform(0.0, 3.0, size=(2, small_policy.feature_len))
        features[1] = features[0]
        L = k + 3
        tokens = rng.integers(0, small_policy.vocab_size, size=(2, L))
        tokens[1] = tokens[0]
        tokens[1, 0] = (tokens[0, 0] + 1) % small_policy.vocab_size
        lengths = np.full(2, L)
        logits, _ = small_policy.forward_batch(features, tokens, lengths)
        # positions whose window no longer contains position 0 must agree exactly
        assert np.array_equal(logits[0, k + 1 :], logits[1, k + 1 :])
        # and the immediately affected position must differ
        assert not np.array_equal(logits[0, 1], logits[1, 1])

    def test_empty_history_uses_zero_vector(self, small_policy):
        feats = np.zeros((1, small_policy.feature_len))
        tokens = np.array([[4]])
        logits, cache = small_policy.forward_batch(feats, tokens, np.array([1]))
        assert np.all(cache["m"][0, 0] == 0.0)

    def test_value_is_the_one_row_batch_value(self, small_value):
        features = np.random.Generator(np.random.PCG64(5)).uniform(0.0, 3.0, size=small_value.feature_len)
        v, _ = small_value.forward_batch(features[None, :])
        assert small_value.value(features) == float(v[0])

    def test_oov_token_rejected(self, small_policy):
        with pytest.raises(ValueError):
            small_policy.logprobs(np.zeros(small_policy.feature_len), [small_policy.vocab_size])

    def test_padding_id_inside_length_rejected(self, small_policy):
        """-1 would be scored as token 0; past a row's length it is padding."""
        features = np.zeros(small_policy.feature_len)
        with pytest.raises(ValueError, match="padding id"):
            small_policy.logprobs(features, [3, -1, 5])
        tokens = np.array([[3, 5, -1], [3, -1, 5]])
        with pytest.raises(ValueError, match="padding id"):
            small_policy.logprobs_batch(np.stack([features, features]), tokens, np.array([2, 3]))
        logps, _, _ = small_policy.logprobs_batch(np.stack([features, features]), tokens, np.array([2, 1]))
        assert np.all(logps[:, 0] < 0.0) and logps[0, 1] < 0.0
        assert logps[0, 2] == logps[1, 1] == logps[1, 2] == 0.0


def reference_sample(policy, features, keys, temperature=1.0):
    """The sampler as one loop over the padded outputs, indexed by an
    active-row index that is a plain slice until the first row ends: the
    bit-exact oracle of ``TokenPolicy.sample``."""
    p = policy.params

    def leaky(x):
        return np.maximum(x, 0.01 * x)

    g = len(keys)
    n_steps = policy.max_len
    k = policy.k_history
    uniforms = uniforms_from_key(keys, n_steps)
    hist_proj = p["emb"] @ p["w_hist"]
    ctx_pre = np.asarray(features, dtype=np.float64) @ p["w_ctx"] + p["b_ctx"]

    tokens = np.full((g, n_steps), -1, dtype=np.int64)
    logps = np.zeros((g, n_steps), dtype=np.float64)
    rows = slice(None)
    pick = np.arange(g)
    for step in range(n_steps):
        if step and k:
            window = tokens[rows, max(0, step - k) : step]
            hist = hist_proj[window].sum(axis=1) / window.shape[1]
        else:
            hist = np.zeros((pick.size, policy.d_hidden))
        h0 = leaky(ctx_pre + hist + p["b_hist"])
        h1 = leaky(h0 @ p["w_h1"] + p["b_h1"])
        h2 = leaky(h1 @ p["w_h2"] + p["b_h2"])
        logits = h2 @ p["w_out"] + p["b_out"]

        mx = logits.max(axis=1, keepdims=True)
        exp1 = np.exp(logits - mx)
        total = exp1.sum(axis=1, keepdims=True)
        lse = (mx + np.log(total))[:, 0]
        if temperature == 1.0:
            probs = exp1 / total
        else:
            exp_t = np.exp((logits - mx) / temperature)
            probs = exp_t / exp_t.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        drawn = (cdf <= uniforms[rows, step][:, None]).sum(axis=1)
        drawn = np.minimum(drawn, policy.vocab_size - 1)

        tokens[rows, step] = drawn
        logps[rows, step] = logits[pick, drawn] - lse
        ended = drawn == policy.eos_id
        if ended.any():
            rows = np.arange(g)[rows][~ended]
            if not rows.size:
                break
            pick = np.arange(rows.size)

    if not np.isfinite(logps).all():
        raise ValueError("sampler produced a non-finite log-prob")
    return tokens, (tokens >= 0).sum(axis=1), logps


# an EOS logit bias that ends every row at its first token, ends some rows early, or ends none
EOS_BIASES = (50.0, 2.0, 0.0, -50.0)


@pytest.mark.filterwarnings("error")  # a deprecated or warning NumPy call in the sampler fails
@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(1, 9),
    k_history=st.sampled_from([0, 1, 4, 40]),
    max_len=st.sampled_from([1, 2, 7, 32]),
    temperature=st.sampled_from([0.5, 1.0, 2.0]),
    eos_bias=st.sampled_from(EOS_BIASES),
    d_hidden=st.sampled_from([6, 64]),
    seed=st.integers(0, 2**16),
)
@example(g=1, k_history=4, max_len=32, temperature=1.0, eos_bias=0.0, d_hidden=64, seed=0)
@example(g=9, k_history=40, max_len=32, temperature=0.5, eos_bias=2.0, d_hidden=64, seed=1)
@example(g=8, k_history=4, max_len=32, temperature=2.0, eos_bias=50.0, d_hidden=64, seed=2)
@example(g=8, k_history=0, max_len=7, temperature=1.0, eos_bias=-50.0, d_hidden=6, seed=3)
# one key runs the 1-row loop
@example(g=1, k_history=0, max_len=1, temperature=0.5, eos_bias=50.0, d_hidden=64, seed=4)
@example(g=1, k_history=40, max_len=32, temperature=2.0, eos_bias=-50.0, d_hidden=64, seed=5)
@example(g=1, k_history=0, max_len=32, temperature=2.0, eos_bias=2.0, d_hidden=6, seed=6)
@example(g=1, k_history=40, max_len=1, temperature=0.5, eos_bias=-50.0, d_hidden=6, seed=7)
@example(g=1, k_history=4, max_len=7, temperature=0.5, eos_bias=50.0, d_hidden=64, seed=8)
def test_sample_matches_reference_loop_bit_for_bit(
    toy8, vocab8, g, k_history, max_len, temperature, eos_bias, d_hidden, seed
):
    rng = np.random.Generator(np.random.PCG64(seed))
    policy = TokenPolicy(
        vocab8.size, feature_length(toy8), vocab8.eos_id,
        d_embed=16, d_hidden=d_hidden, k_history=k_history, max_len=max_len, rng=rng,
    )
    policy.params["b_out"] += rng.normal(0.0, 0.5, size=vocab8.size)
    policy.params["b_out"][vocab8.eos_id] += eos_bias
    features = rng.uniform(0.0, 6.0, size=policy.feature_len)
    keys = [derive_key(seed, r) for r in range(g)]
    got = policy.sample(features, keys, temperature=temperature)
    want = reference_sample(policy, features, keys, temperature=temperature)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit for bit: -0.0 is not 0.0 here
    lengths = got[1]
    if eos_bias == EOS_BIASES[0]:
        assert np.all(lengths == 1)
    if eos_bias == EOS_BIASES[-1]:
        assert np.all(lengths == max_len)


class TestSampling:
    def test_self_consistency_with_teacher_forcing(self, small_policy):
        rng = np.random.Generator(np.random.PCG64(21))
        features = rng.uniform(0.0, 4.0, size=small_policy.feature_len)
        keys = [derive_key(42, 0, r) for r in range(6)]
        tokens, lengths, logps = small_policy.sample(features, keys, temperature=0.8)
        for r in range(6):
            seq = tokens[r, : lengths[r]]
            recomputed = small_policy.logprobs(features, seq)
            assert np.allclose(logps[r, : lengths[r]], recomputed, atol=1e-12, rtol=0)

    def test_deterministic_per_key(self, small_policy):
        features = np.full(small_policy.feature_len, 1.5)
        keys = [derive_key(7, 3, 0)]
        a = small_policy.sample(features, keys)
        b = small_policy.sample(features, keys)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_distinct_keys_give_distinct_streams(self, small_policy):
        features = np.full(small_policy.feature_len, 1.5)
        keys = [derive_key(7, d, 0) for d in range(40)]
        tokens, lengths, _ = small_policy.sample(features, keys)
        seqs = {tuple(tokens[r, : lengths[r]]) for r in range(40)}
        assert len(seqs) > 1

    def test_first_token_distribution(self, small_policy):
        """Empirical first-token frequencies sit within 3 standard errors."""
        rng = np.random.Generator(np.random.PCG64(17))
        features = rng.uniform(0.0, 3.0, size=small_policy.feature_len)
        n = 100_000
        keys = [derive_key(99, i, 0) for i in range(n)]
        one_token = TokenPolicy.from_meta({**small_policy.meta(), "max_len": 1}, small_policy.params)
        tokens, lengths, _ = one_token.sample(features, keys)
        draws = tokens[:, 0]

        probe = np.zeros((1, 1), dtype=np.int64)
        logits, _ = small_policy.forward_batch(features[None, :], probe, np.array([1]))
        z = logits[0, 0]
        p = np.exp(z - z.max())
        p /= p.sum()

        freq = np.bincount(draws, minlength=small_policy.vocab_size) / n
        se = np.sqrt(p * (1 - p) / n)
        checked = p * n >= 5
        assert checked.any()
        assert np.all(np.abs(freq - p)[checked] <= 3.0 * se[checked] + 1e-9)

    @pytest.mark.parametrize("g", [1, 4])
    def test_non_finite_weight_raises(self, small_policy, g):
        small_policy.params["w_out"][0, 0] = np.nan
        keys = [derive_key(3, i, 0) for i in range(g)]
        with pytest.raises(ValueError, match="non-finite"):
            small_policy.sample(np.full(small_policy.feature_len, 1.0), keys)

    @pytest.mark.parametrize("g", [1, 3])
    def test_uniform_on_a_cdf_entry_draws_the_next_token(self, small_policy, monkeypatch, g):
        """A uniform equal to a CDF entry counts that entry, as ``(cdf <= u).sum()`` does.

        Only tokens 2, 3, 5 and 7 have mass, a quarter each, so the CDF is
        exactly 0, 0, 0.25, 0.5, 0.5, 0.75, 0.75, 1, ... and every uniform
        below lands on an entry."""
        for name in POLICY_FIELDS:
            small_policy.params[name][...] = 0.0
        small_policy.params["b_out"][...] = -1000.0  # exp underflows to exactly 0
        small_policy.params["b_out"][[2, 3, 5, 7]] = 0.0
        ties = np.array([0.0, 0.25, 0.5, 0.75, 0.5, 0.25, 0.0, 0.75])
        monkeypatch.setattr(_kernels, "uniforms_from_key", lambda keys, n: np.tile(ties[:n], (len(keys), 1)))
        keys = [derive_key(3, i, 0) for i in range(g)]
        tokens, lengths, _ = small_policy.sample(np.zeros(small_policy.feature_len), keys)
        assert np.array_equal(tokens, np.tile([2, 3, 5, 7, 5, 3, 2, 7], (g, 1)))
        assert np.all(lengths == 8)

    @pytest.mark.parametrize("g", [1, 4])
    def test_subnormal_temperature_draws_the_argmax(self, small_policy, g):
        """At 1e-310 every logit but the largest scales below the float range,
        so each step draws the argmax of its logits, the teacher-forced ones."""
        rng = np.random.Generator(np.random.PCG64(5))
        features = rng.uniform(0.0, 4.0, size=small_policy.feature_len)
        keys = [derive_key(3, i, 0) for i in range(g)]
        tokens, lengths, logps = small_policy.sample(features, keys, temperature=1e-310)
        assert np.isfinite(logps).all()
        logits, _ = small_policy.forward_batch(np.tile(features, (g, 1)), tokens, lengths)
        for r in range(g):
            n = lengths[r]
            assert np.array_equal(tokens[r, :n], logits[r, :n].argmax(axis=1))
            assert np.allclose(logps[r, :n], small_policy.logprobs(features, tokens[r, :n]), atol=1e-12, rtol=0)
        assert np.all(tokens == tokens[0])  # every key draws the same greedy response

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_temperature_must_be_finite_and_positive(self, small_policy, temperature):
        keys = [derive_key(3, i, 0) for i in range(4)]
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            small_policy.sample(np.full(small_policy.feature_len, 1.0), keys, temperature=temperature)

    def test_greedy_low_temperature(self, small_policy):
        features = np.full(small_policy.feature_len, 2.0)
        keys = [derive_key(1, i, 0) for i in range(8)]
        short = TokenPolicy.from_meta({**small_policy.meta(), "max_len": 3}, small_policy.params)
        tokens, lengths, _ = short.sample(features, keys, temperature=1e-6)
        for r in range(1, 8):
            assert np.array_equal(tokens[r], tokens[0])


class TestSampleWindow:
    """One response per (features row, key) in one batch at temperature 1:
    the entropy responses of five decisions, seven each."""

    G = 7

    @classmethod
    def _window(cls, policy, n_decisions=5, seed=11):
        rng = np.random.Generator(np.random.PCG64(seed))
        decisions = rng.uniform(0.0, 6.0, size=(n_decisions, policy.feature_len))
        keys = [derive_key(seed, 0, i, r) for i in range(n_decisions) for r in range(1, cls.G + 1)]
        return decisions, np.repeat(decisions, cls.G, axis=0), keys

    def test_rows_are_well_formed_and_match_logprobs(self, small_policy):
        """Each row ends at EOS or at max_len, is padded with -1 and 0, and its
        log-probs are TokenPolicy.logprobs on its own features to 1e-9."""
        _, features, keys = self._window(small_policy)
        tokens, lengths, logps = small_policy.sample_window(features, keys)
        max_len, eos = small_policy.max_len, small_policy.eos_id
        assert tokens.shape == logps.shape == (len(keys), max_len) and lengths.shape == (len(keys),)
        for r in range(len(keys)):
            n = lengths[r]
            assert 1 <= n <= max_len
            assert (tokens[r, : n - 1] != eos).all() and (tokens[r, :n] >= 0).all()
            assert n == max_len or tokens[r, n - 1] == eos
            assert (tokens[r, n:] == -1).all() and (logps[r, n:] == 0.0).all()
            ref = small_policy.logprobs(features[r], tokens[r, :n])
            assert np.abs(ref - logps[r, :n]).max() <= 1e-9
        assert (lengths < max_len).any() and (lengths == max_len).any()  # rows end both ways

    def test_tokens_are_each_decisions_own_draws(self, small_policy):
        """Each decision's rows hold the tokens a G-key call on its features draws."""
        decisions, features, keys = self._window(small_policy)
        tokens, lengths, _ = small_policy.sample_window(features, keys)
        for i, row in enumerate(decisions):
            rows = slice(i * self.G, (i + 1) * self.G)
            own_tokens, own_lengths, _ = small_policy.sample(row, keys[rows])
            assert np.array_equal(own_tokens, tokens[rows]) and np.array_equal(own_lengths, lengths[rows])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_row_raises(self, small_policy, value):
        _, features, keys = self._window(small_policy)
        features[9, 2] = value
        # an inf feature leaves inf - inf, a NaN, in the matmuls, which numpy reports; the sampler refuses it
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            small_policy.sample_window(features, keys)

    def test_one_feature_row_per_key(self, small_policy):
        _, features, keys = self._window(small_policy)
        with pytest.raises(ValueError, match="one row of"):
            small_policy.sample_window(features[1:], keys)


class TestParamUtils:
    def test_flatten_roundtrip(self, small_policy):
        flat = flatten_params(small_policy.params, POLICY_FIELDS)
        assert flat.size == small_policy.n_params
        doubled = flat * 2.0
        assign_flat(small_policy.params, POLICY_FIELDS, doubled)
        again = flatten_params(small_policy.params, POLICY_FIELDS)
        assert np.array_equal(again, doubled)

    def test_clip_by_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert global_norm(grads) == pytest.approx(1.0)
        assert grads["a"][0] == pytest.approx(0.6)
        assert grads["b"][0] == pytest.approx(0.8)

    def test_clip_noop_when_below(self):
        grads = {"a": np.array([0.3])}
        norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(0.3)
        assert grads["a"][0] == 0.3

    def test_init_bounds_and_biases(self, toy8, vocab8):
        rng = np.random.Generator(np.random.PCG64(0))
        pol = TokenPolicy(vocab8.size, feature_length(toy8), vocab8.eos_id, rng=rng)
        for name in ("b_ctx", "b_hist", "b_h1", "b_h2", "b_out"):
            assert np.all(pol.params[name] == 0.0)
        bound = 1.0 / np.sqrt(pol.feature_len)
        assert np.all(np.abs(pol.params["w_ctx"]) <= bound)
        assert np.all(np.abs(pol.params["emb"]) <= 1.0 / np.sqrt(pol.d_embed))

    def test_snapshot_is_independent(self, small_policy):
        snap = small_policy.snapshot()
        before = snap.params["w_out"].copy()
        small_policy.params["w_out"][:] += 1.0
        assert np.array_equal(snap.params["w_out"], before)

    def test_meta_lists_the_shape_in_checkpoint_order(self, small_policy):
        # checkpoints store meta() JSON-dumped without sort_keys, so this order is part of their bytes
        assert list(small_policy.meta()) == [
            "vocab_size", "feature_len", "eos_id", "d_embed", "d_hidden", "k_history", "max_len",
        ]

    def test_from_meta_rebuilds_the_policy(self, small_policy):
        rebuilt = TokenPolicy.from_meta(small_policy.meta(), small_policy.params)
        assert rebuilt.meta() == small_policy.meta()
        features = np.full(small_policy.feature_len, 1.5)
        keys = [derive_key(11, d, 0) for d in range(5)]
        for a, b in zip(small_policy.sample(features, keys), rebuilt.sample(features, keys)):
            assert np.array_equal(a, b)
