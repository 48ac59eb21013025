from pathlib import Path

import numpy as np
import pytest

from tsclab import _kernels
from tsclab.phases import Vocabulary, feature_length
from tsclab.policy import TokenPolicy
from tsclab.sim import build_topology

GOLDEN = Path(__file__).parent / "data" / "sampler_golden.npz"


def _u64_reference_key(seed, *indices):
    """derive_key in wrapping uint64 arithmetic, as the streams were first defined."""
    golden = np.uint64(0x9E3779B97F4A7C15)

    def finalize(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        key = finalize(np.uint64(seed % (1 << 64)) + golden)
        for ix in indices:
            key = finalize((key ^ np.uint64(ix % (1 << 64))) + golden)
    return int(key)


def _toy8_policy():
    topo = build_topology("toy8")
    vocab = Vocabulary.for_topology(topo)
    rng = np.random.Generator(np.random.PCG64(3))
    return TokenPolicy(vocab.size, feature_length(topo), vocab.eos_id, rng=rng)


class TestRngStream:
    def test_uniforms_in_unit_interval(self):
        key = _kernels.derive_key(0, 1, 2)
        u = _kernels.uniforms_from_key(key, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        # crude uniformity: mean near 1/2, spread near 1/12
        assert abs(u.mean() - 0.5) < 0.02
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_keys_differ_across_indices(self):
        keys = {_kernels.derive_key(0, d, r) for d in range(30) for r in range(8)}
        assert len(keys) == 240

    def test_key_chain_order_matters(self):
        assert _kernels.derive_key(0, 1, 2) != _kernels.derive_key(0, 2, 1)

    def test_repeatable(self):
        a = _kernels.uniforms_from_key(_kernels.derive_key(7, 3), 64)
        b = _kernels.uniforms_from_key(_kernels.derive_key(7, 3), 64)
        assert np.array_equal(a, b)

    def test_derive_key_matches_uint64_reference(self):
        seeds = (0, 1, 123456789, 2**63, 2**64 - 1, 2**64, 2**70, -1, -(2**70))
        paths = ((), (0,), (5, 9), (2, 3, 4), (-1,), (0, -3, 7), (2**65 + 3, -(2**64) - 1))
        for seed in seeds:
            for path in paths:
                assert _kernels.derive_key(seed, *path) == _u64_reference_key(seed, *path), (seed, path)

    def test_batched_uniforms_match_per_key_streams(self):
        keys = [_kernels.derive_key(11, 0, r) for r in range(5)]
        batch = _kernels.uniforms_from_key(keys, 40)
        assert batch.shape == (5, 40)
        for row, key in zip(batch, keys):
            assert np.array_equal(row, _kernels.uniforms_from_key(key, 40))


class TestGoldenStream:
    """The sampler against a stream recorded from its earlier row-by-row form.

    ``sampler_golden.npz`` holds, for 24 calls (4 feature vectors x g in
    {1, 8} x temperature in {0.5, 1, 2}), the keys ``derive_key(31, call,
    response)``, and the tokens, lengths and log-probs that the unbatched
    NumPy sampler returned for toy8 parameters initialised from PCG64(3).
    Responses end at EOS and at the 32-token cap.
    """

    @pytest.mark.filterwarnings("error")  # a deprecated or warning NumPy call in the sampler fails
    def test_matches_golden_stream(self):
        policy = _toy8_policy()
        gold = np.load(GOLDEN)
        row = 0
        for call, g in enumerate(gold["case_g"]):
            keys = [_kernels.derive_key(31, call, r) for r in range(g)]
            assert keys == [int(k) for k in gold["keys"][row : row + g]]
            features = gold["features"][gold["case_feature"][call]]
            temperature = float(gold["case_temperature"][call])
            tokens, lengths, logps = policy.sample(features, keys, temperature=temperature)
            assert np.array_equal(tokens, gold["tokens"][row : row + g]), f"call {call} tokens"
            assert np.array_equal(lengths, gold["lengths"][row : row + g]), f"call {call} lengths"
            assert np.allclose(logps, gold["logps"][row : row + g], atol=1e-12, rtol=0), f"call {call}"
            row += g
        assert row == len(gold["keys"])


class TestSamplerBackends:
    def test_numpy_backend_deterministic(self):
        policy = _toy8_policy()
        rng = np.random.Generator(np.random.PCG64(5))
        features = rng.uniform(0.0, 4.0, size=policy.feature_len)
        keys = [_kernels.derive_key(5, d, 0) for d in range(4)]
        a = policy.sample(features, keys)
        b = policy.sample(features, keys)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_eos_terminates_early(self):
        policy = _toy8_policy()
        # force EOS to dominate by biasing its output weight
        policy.params["b_out"][policy.eos_id] = 50.0
        keys = [_kernels.derive_key(0, 0, 0)]
        tokens, lengths, _ = policy.sample(np.zeros(policy.feature_len), keys)
        assert lengths[0] == 1
        assert tokens[0, 0] == policy.eos_id

    def test_max_len_cap(self):
        policy = _toy8_policy()
        policy = TokenPolicy.from_meta({**policy.meta(), "max_len": 5}, policy.params)
        policy.params["b_out"][policy.eos_id] = -50.0
        keys = [_kernels.derive_key(0, 0, 0)]
        tokens, lengths, _ = policy.sample(np.zeros(policy.feature_len), keys)
        assert lengths[0] == 5
        assert np.all(tokens[0, :5] >= 0)


class TestBackendSelection:
    def test_module_exposes_contract(self):
        # one NumPy implementation; the benchmark records the constants among its machine facts
        assert (_kernels.BACKEND, _kernels.COMPILED) == ("numpy", False)
        for fn in ("derive_key", "uniforms_from_key"):
            assert callable(getattr(_kernels, fn))
