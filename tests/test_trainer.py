import json
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab.phases import feature_length
from tsclab.policy import POLICY_FIELDS, VALUE_FIELDS, TokenPolicy, ValueHead
from tsclab.rewards import RewardConfig, decision_reward
from tsclab.trainer import (
    BUFFER_FIELDS,
    CHECKPOINT_VERSION,
    DIAGNOSTICS,
    AdamW,
    PPOTrainer,
    ReplayBuffer,
    TrainerConfig,
    gae,
    load_checkpoint,
    policy_surrogate,
    save_checkpoint,
    standardize,
    value_loss,
)


def discounted_returns(rewards, gamma):
    """Raw discounted reward-to-go; gae with values 0 and lam = 1 must equal it."""
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(r)
    acc = 0.0
    for l in range(r.size - 1, -1, -1):
        acc = r[l] + gamma * acc
        out[l] = acc
    return out


def gae_double_sum(rewards, values, gamma, lam):
    """O(n^2) definition: A_l = sum_j (gamma*lam)^(j-l) * delta_j."""
    n = len(rewards)
    v_next = list(values[1:]) + [0.0]
    delta = [rewards[j] + gamma * v_next[j] - values[j] for j in range(n)]
    out = np.zeros(n)
    for l in range(n):
        for j in range(l, n):
            out[l] += (gamma * lam) ** (j - l) * delta[j]
    return out


class TestGaeOracle:
    def test_worked_example(self):
        # rewards [1, 2], values [0.5, 0.5], gamma = lam = 1:
        # delta = [1, 1.5], A = [2.5, 1.5]
        adv = gae([1.0, 2.0], [0.5, 0.5], 1.0, 1.0)
        assert adv == pytest.approx([2.5, 1.5], abs=1e-12)

    def test_matches_double_sum(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(200):
            n = int(rng.integers(1, 11))
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            gamma = float(rng.uniform(0, 1))
            lam = float(rng.uniform(0, 1))
            assert np.allclose(
                gae(r, v, gamma, lam), gae_double_sum(r, v, gamma, lam), atol=1e-10, rtol=0
            )

    def test_lambda_zero_is_td_error(self):
        rng = np.random.Generator(np.random.PCG64(3))
        r = rng.normal(size=6)
        v = rng.normal(size=6)
        adv = gae(r, v, 0.9, 0.0)
        v_next = np.append(v[1:], 0.0)
        td = r + 0.9 * v_next - v
        assert np.allclose(adv, td, atol=1e-12, rtol=0)

    def test_lambda_one_is_discounted_return_minus_value(self):
        rng = np.random.Generator(np.random.PCG64(4))
        r = rng.normal(size=7)
        v = rng.normal(size=7)
        adv = gae(r, v, 0.95, 1.0)
        mc = discounted_returns(r, 0.95) - v
        assert np.allclose(adv, mc, atol=1e-10, rtol=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gae([1.0], [1.0, 2.0], 0.9, 0.9)

    def test_padded_batch_equals_rows_alone(self):
        """A batch padded with zero rewards and values gives each row's own
        advantages bit for bit, and zeros in the padding."""
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(200):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 6)))
            mask = np.arange(lengths.max())[None, :] < lengths[:, None]
            rewards = np.where(mask, rng.normal(size=mask.shape), 0.0)
            values = np.where(mask, rng.normal(size=(mask.shape[0], 1)), 0.0)
            gamma, lam = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            rows = np.zeros_like(rewards)
            for i, n in enumerate(lengths):
                rows[i, :n] = gae(rewards[i, :n], values[i, :n], gamma, lam)
            assert np.array_equal(gae(rewards, values, gamma, lam), rows)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=10),
        st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0]),
        st.sampled_from([0.0, 0.5, 0.7, 0.95, 1.0]),
    )
    @settings(max_examples=200)
    def test_double_sum_property(self, rewards, gamma, lam):
        values = [0.3] * len(rewards)
        assert np.allclose(
            gae(rewards, values, gamma, lam),
            gae_double_sum(rewards, values, gamma, lam),
            atol=1e-10,
            rtol=0,
        )


class TestSurrogate:
    def test_unclipped_gradient_is_ratio_times_advantage(self):
        ratio = np.array([1.1])
        adv = np.array([2.0])
        obj, dlogp = policy_surrogate(ratio, adv, 0.2, 0.5)
        assert obj[0] == pytest.approx(2.2)
        assert dlogp[0] == pytest.approx(2.2)

    def test_clipped_flat_branch_gradient_exact_zero(self):
        # positive advantage, ratio above the upper bound: min picks the
        # clipped constant and the derivative is exactly 0.0
        obj, dlogp = policy_surrogate(np.array([2.0]), np.array([1.0]), 0.2, 0.5)
        assert obj[0] == pytest.approx(1.5)
        assert dlogp[0] == 0.0

        # negative advantage, ratio below the lower bound
        obj, dlogp = policy_surrogate(np.array([0.5]), np.array([-1.0]), 0.2, 0.5)
        assert obj[0] == pytest.approx(-0.8)
        assert dlogp[0] == 0.0

    def test_negative_advantage_large_ratio_unclipped(self):
        # pessimistic min keeps the raw term when it is the smaller one
        obj, dlogp = policy_surrogate(np.array([2.0]), np.array([-1.0]), 0.2, 0.5)
        assert obj[0] == pytest.approx(-2.0)
        assert dlogp[0] == pytest.approx(-2.0)

    def test_asymmetric_bounds(self):
        # ratio 1.4 sits inside [0.8, 1.5]: no clipping with the wide
        # upper bound, clipped under a symmetric 0.2 bound
        obj_wide, d_wide = policy_surrogate(np.array([1.4]), np.array([1.0]), 0.2, 0.5)
        assert d_wide[0] == pytest.approx(1.4)
        obj_sym, d_sym = policy_surrogate(np.array([1.4]), np.array([1.0]), 0.2, 0.2)
        assert d_sym[0] == 0.0
        assert obj_sym[0] == pytest.approx(1.2)

    @given(st.floats(0.01, 5.0), st.floats(-3, 3))
    @settings(max_examples=300)
    def test_objective_never_exceeds_raw(self, ratio, adv):
        obj, _ = policy_surrogate(np.array([ratio]), np.array([adv]), 0.2, 0.5)
        assert obj[0] <= ratio * adv + 1e-12


class TestValueLoss:
    def test_standard_mode_hand_case(self):
        v_new = np.array([1.0, 2.0])
        v_old = np.array([0.0, 0.0])
        rets = np.array([0.0, 0.0])
        # clipped values: 0 + clip(1, .2) = .2 ; 0 + clip(2, .2) = .2
        # per-element max((v-G)^2, (vc-G)^2) = max(1, .04), max(4, .04)
        loss, dv = value_loss(v_new, v_old, rets, eps_value=0.2)
        assert loss == pytest.approx(0.5 * (1.0 + 4.0) / 2)
        assert dv == pytest.approx([0.5, 1.0])

    def test_standard_mode_clipped_branch_pins_gradient(self):
        # moving v_new toward the target from a clipped start: the clipped
        # term dominates and contributes zero derivative w.r.t. v_new
        v_new = np.array([0.05])
        v_old = np.array([1.0])
        rets = np.array([0.0])
        loss, dv = value_loss(v_new, v_old, rets, eps_value=0.2)
        # v_clip = 1 + clip(0.05 - 1) = 0.8; max(0.0025, 0.64) -> clipped wins
        assert loss == pytest.approx(0.5 * 0.64)
        assert dv[0] == 0.0

    def test_clip_is_inert_within_range(self):
        # a value change no larger than eps_value leaves v_clip == v_new, so
        # the loss and its derivative are those of the plain squared error
        rng = np.random.Generator(np.random.PCG64(8))
        v_old = rng.normal(size=50)
        v_new = v_old + rng.uniform(-0.2, 0.2, size=50)
        rets = rng.normal(size=50)
        loss, dv = value_loss(v_new, v_old, rets, eps_value=0.2)
        assert loss == 0.5 * float(np.mean((v_new - rets) ** 2))
        assert np.array_equal(dv, (v_new - rets) / 50)


class TestStandardize:
    def test_moments(self):
        rng = np.random.Generator(np.random.PCG64(12))
        x = rng.normal(3.0, 7.0, size=500)
        z = standardize(x)
        assert abs(z.mean()) <= 1e-8
        assert abs(z.std() - 1.0) <= 1e-6

    def test_constant_input_hits_floor(self):
        # degenerate spread must not blow up; the floored divisor leaves
        # at most rounding residue
        z = standardize(np.full(10, 4.2))
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(z) <= 1e-6)


class TestAdamW:
    def test_first_step_matches_hand_computation(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        opt.step(params, grads)
        m_hat = 0.05 / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expect = 1.0 - 0.1 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.01 * 1.0)
        assert params["w"][0] == pytest.approx(expect, rel=1e-12)

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks weights, by lr * wd * theta exactly
        params = {"w": np.array([2.0])}
        opt = AdamW(params, lr=0.5, weight_decay=0.1)
        opt.step(params, {"w": np.array([0.0])})
        assert params["w"][0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)


def _record(t, n_tokens=1):
    """``ReplayBuffer.add`` keywords of a record at time ``t``."""
    return dict(
        time=t,
        features=np.full(2, t),
        tokens=np.arange(n_tokens),
        logps_old=np.full(n_tokens, -0.5),
        rewards=np.ones(n_tokens),
        v_old=t / 10,
    )


class TestBuffer:
    def test_eviction_keeps_strictly_inside_window(self):
        buf = ReplayBuffer(400.0, n_features=2, max_len=4)
        for t in (0.0, 100.0, 3200.0, 3210.0, 3590.0):
            buf.add(**_record(t))
        buf.evict(3600.0)
        assert buf.time.tolist() == [3210.0, 3590.0]
        assert buf.features[:, 0].tolist() == [3210.0, 3590.0]
        assert buf.v_old.tolist() == [321.0, 359.0]
        assert len(buf) == 2

    def test_rows_are_padded_to_max_len(self):
        buf = ReplayBuffer(400.0, n_features=2, max_len=4)
        buf.add(**_record(0.0, n_tokens=2))
        assert buf.tokens.tolist() == [[0, 1, -1, -1]]
        assert buf.logps_old.tolist() == [[-0.5, -0.5, 0.0, 0.0]]
        assert buf.rewards.tolist() == [[1.0, 1.0, 0.0, 0.0]]

    def test_response_longer_than_max_len_raises(self):
        buf = ReplayBuffer(400.0, n_features=2, max_len=4)
        with pytest.raises(ValueError, match="max_len 4"):
            buf.add(**_record(0.0, n_tokens=5))
        assert len(buf) == 0

    @pytest.mark.parametrize(
        "change",
        [
            {"tokens": np.array([3, -1, 5])},
            {"tokens": np.array([[0, 1, 2]])},
            {"logps_old": np.full(2, -0.5)},
            {"rewards": np.ones(4)},
        ],
        ids=["padding-id", "2-d", "short-logps", "long-rewards"],
    )
    def test_malformed_response_raises(self, change):
        """A padding id would make ``batch`` read the response back shorter,
        so its last reward would fall outside the trained prefix."""
        buf = ReplayBuffer(400.0, n_features=2, max_len=4)
        with pytest.raises(ValueError):
            buf.add(**{**_record(0.0, n_tokens=3), **change})
        assert len(buf) == 0

    def test_batch_cuts_to_longest_chosen_response(self):
        buf = ReplayBuffer(400.0, n_features=2, max_len=6)
        for i, n in enumerate((1, 4, 2)):
            buf.add(**_record(float(i), n_tokens=n))
        features, tokens, logps_old, rewards, lengths, v_old = buf.batch(np.array([2, 0]))
        assert lengths.tolist() == [2, 1]
        assert tokens.tolist() == [[0, 1], [0, -1]]
        assert logps_old.tolist() == [[-0.5, -0.5], [-0.5, 0.0]]
        assert rewards.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert features[:, 0].tolist() == [2.0, 0.0]
        assert v_old.tolist() == [0.2, 0.0]


def _make_trainer(toy8, vocab8, **overrides):
    cfg = TrainerConfig(**overrides)
    rng = np.random.Generator(np.random.PCG64(31))
    policy = TokenPolicy(vocab8.size, feature_length(toy8), vocab8.eos_id, d_embed=4, d_hidden=6, rng=rng)
    value = ValueHead(feature_length(toy8), rng=rng)
    shuffle = np.random.Generator(np.random.PCG64(32))
    return PPOTrainer(policy, value, cfg, shuffle)


def _records_from_policy(trainer, n, seed=0, r_final=1.0):
    """Sample on-policy records, as ``ReplayBuffer.add`` keywords, so stored
    log-probs match the current net."""
    from tsclab._kernels import derive_key

    rng = np.random.Generator(np.random.PCG64(seed))
    records = []
    for i in range(n):
        features = rng.uniform(0.0, 3.0, size=trainer.policy.feature_len)
        keys = [derive_key(seed, i, 0)]
        tokens, lengths, logps = trainer.policy.sample(features, keys)
        L = int(lengths[0])
        rewards = np.zeros(L)
        rewards[-1] = r_final if np.isscalar(r_final) else r_final[i]
        records.append(
            dict(
                time=float(i * 10),
                features=features,
                tokens=tokens[0, :L].copy(),
                logps_old=logps[0, :L].copy(),
                rewards=rewards,
                v_old=trainer.value_head.value(features),
            )
        )
    return records


class TestTrainerUpdate:
    def test_empty_buffer_raises(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8)
        with pytest.raises(ValueError):
            trainer.update(0.0)

    def test_on_policy_ratio_one_and_diag_keys(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, batch_size=6, batches_per_update=1)
        for rec in _records_from_policy(trainer, 6):
            trainer.buffer.add(**rec)
        diag = trainer.update(360.0)
        assert set(diag) == {
            "step", "mean_ratio", "clip_fraction", "policy_loss", "value_loss",
            "mean_advantage", "grad_norm_policy", "grad_norm_value",
        }
        assert diag["mean_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert diag["clip_fraction"] == 0.0
        assert diag["step"] == 360.0

    def test_batch_statistics_are_the_diagnostics(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, batch_size=6, batches_per_update=1)
        for rec in _records_from_policy(trainer, 6):
            trainer.buffer.add(**rec)
        assert list(trainer._update_batch(np.arange(6))) == list(DIAGNOSTICS)

    def test_zero_lr_is_noop(self, toy8, vocab8):
        trainer = _make_trainer(
            toy8, vocab8, actor_lr=0.0, value_lr=0.0,
            actor_weight_decay=0.0, value_weight_decay=0.0,
            batch_size=4, batches_per_update=1,
        )
        for rec in _records_from_policy(trainer, 4):
            trainer.buffer.add(**rec)
        before = {k: v.copy() for k, v in trainer.policy.params.items()}
        trainer.update(0.0)
        for k in before:
            assert np.array_equal(trainer.policy.params[k], before[k])

    def test_non_finite_gradient_raises_before_step(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, batch_size=4, batches_per_update=1)
        for rec in _records_from_policy(trainer, 4):
            trainer.buffer.add(**rec)
        trainer.policy.params["w_h2"][0, 0] = np.inf
        before = {k: v.copy() for k, v in trainer.policy.params.items()}
        value_before = {k: v.copy() for k, v in trainer.value_head.params.items()}
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite gradient"):
            trainer.update(0.0)
        for k in before:
            assert np.array_equal(trainer.policy.params[k], before[k])
        for k in value_before:
            assert np.array_equal(trainer.value_head.params[k], value_before[k])
        assert trainer.opt_policy.t == 0 and trainer.opt_value.t == 0

    def test_reference_never_moves(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, actor_lr=1e-2, batch_size=4, batches_per_update=2)
        ref_before = {k: v.copy() for k, v in trainer.reference.params.items()}
        for rec in _records_from_policy(trainer, 8):
            trainer.buffer.add(**rec)
        for step in range(3):
            trainer.update(float(step))
        for k in ref_before:
            assert np.array_equal(trainer.reference.params[k], ref_before[k])
        # and the policy itself did move
        moved = any(
            not np.array_equal(trainer.policy.params[k], trainer.reference.params[k])
            for k in ref_before
        )
        assert moved

    def test_final_reward_shift_invariance_reinforce(self, toy8, vocab8):
        """The reward hurdle cancels in this recipe.

        With no critic, gamma = lam = 1 and the DSE bonus off, a hurdle
        shifts every final reward, and so every token's advantage, by the
        same -h_r, and the batch standardization subtracts it again. One
        update step on a batch moves the parameters by the same amount at
        h_r 0 and at h_r 3.
        """
        kw = dict(
            gamma=1.0, lam=1.0, use_critic=False,
            batch_size=8, batches_per_update=1,
            actor_lr=1e-3, actor_weight_decay=0.0,
        )
        r_env = np.random.Generator(np.random.PCG64(44)).normal(size=8)
        steps = []
        for h_r in (0.0, 3.0):
            cfg = RewardConfig(h_r=h_r, w_e=0.0)
            finals = np.array([decision_reward(None, 0, r, cfg)["r_total"] for r in r_env])
            trainer = _make_trainer(toy8, vocab8, **kw)
            for rec in _records_from_policy(trainer, 8, r_final=finals):
                trainer.buffer.add(**rec)
            before = {k: v.copy() for k, v in trainer.policy.params.items()}
            trainer._update_batch(np.arange(8))
            steps.append({k: trainer.policy.params[k] - before[k] for k in before})
        assert max(np.abs(d).max() for d in steps[0].values()) > 1e-4
        assert max(np.abs(steps[0][k] - steps[1][k]).max() for k in steps[0]) <= 1e-12

    def test_positive_advantage_raises_chosen_logprob(self, toy8, vocab8):
        trainer = _make_trainer(
            toy8, vocab8, use_critic=False, gamma=1.0, lam=1.0,
            batch_size=2, batches_per_update=1,
            actor_lr=1e-2, actor_weight_decay=0.0,
        )
        recs = _records_from_policy(trainer, 2, r_final=np.array([4.0, -4.0]))
        for rec in recs:
            trainer.buffer.add(**rec)
        lp_hi_before = trainer.policy.logprobs(recs[0]["features"], recs[0]["tokens"]).sum()
        lp_lo_before = trainer.policy.logprobs(recs[1]["features"], recs[1]["tokens"]).sum()
        trainer.update(0.0)
        lp_hi_after = trainer.policy.logprobs(recs[0]["features"], recs[0]["tokens"]).sum()
        lp_lo_after = trainer.policy.logprobs(recs[1]["features"], recs[1]["tokens"]).sum()
        assert lp_hi_after > lp_hi_before
        assert lp_lo_after < lp_lo_before

    def test_reinforce_skips_value_update(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, use_critic=False, batch_size=4, batches_per_update=1)
        v_before = {k: v.copy() for k, v in trainer.value_head.params.items()}
        for rec in _records_from_policy(trainer, 4):
            trainer.buffer.add(**rec)
        trainer.update(0.0)
        for k in v_before:
            assert np.array_equal(trainer.value_head.params[k], v_before[k])

    def test_update_peak_memory(self, toy8, vocab8):
        """One update holds at most 9 (B, L, d_hidden) float64 arrays at its peak.

        Batches of B = 20 responses of L = 32 tokens on the toy8 policy's
        default shape. The forward cache holds the 3 pre-activations and no
        activation; the backward recomputes each activation when it needs
        it and keeps one layer gradient alive at a time, and the softmax
        gradient is built in the logits' array.
        """
        B, L = 20, 32
        rng = np.random.Generator(np.random.PCG64(33))
        F = feature_length(toy8)
        policy = TokenPolicy(vocab8.size, F, vocab8.eos_id, max_len=L, rng=rng)
        trainer = PPOTrainer(policy, ValueHead(F, rng=rng), TrainerConfig(batch_size=B),
                             np.random.Generator(np.random.PCG64(34)))
        for i in range(B):
            features = rng.uniform(0.0, 3.0, size=F)
            tokens = rng.integers(0, vocab8.size, size=L)
            rewards = np.zeros(L)
            rewards[-1] = 1.0
            trainer.buffer.add(time=float(i), features=features, tokens=tokens,
                               logps_old=policy.logprobs(features, tokens), rewards=rewards, v_old=0.0)
        trainer.update(0.0)
        tracemalloc.start()
        try:
            trainer.update(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * B * L * policy.d_hidden * 8

    def test_critic_value_moves(self, toy8, vocab8):
        trainer = _make_trainer(toy8, vocab8, batch_size=4, batches_per_update=1, value_lr=1e-2)
        v_before = {k: v.copy() for k, v in trainer.value_head.params.items()}
        for rec in _records_from_policy(trainer, 4, r_final=3.0):
            trainer.buffer.add(**rec)
        trainer.update(0.0)
        changed = any(not np.array_equal(trainer.value_head.params[k], v_before[k]) for k in v_before)
        assert changed


class TestTrainerConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            TrainerConfig(eps_low=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(gamma=1.5)

    def test_few_responses_warns(self):
        cfg = TrainerConfig(g_responses=4)
        with pytest.warns(UserWarning):
            cfg.warn_if_few_responses(8)


class TestCheckpoint:
    def _saved(self, toy8, vocab8, tmp_path, n_records, name="ckpt.npz"):
        trainer = _make_trainer(toy8, vocab8, batch_size=3, batches_per_update=2)
        for rec in _records_from_policy(trainer, n_records):
            trainer.buffer.add(**rec)
        trainer.update(0.0)
        path = tmp_path / name
        save_checkpoint(path, trainer, "hash", {})
        return trainer, path

    def test_failed_write_keeps_the_previous_snapshot(self, toy8, vocab8, tmp_path, monkeypatch):
        """A write that fails after some entries are written leaves the file
        already at the path as it was, and no temporary file beside it."""
        trainer, path = self._saved(toy8, vocab8, tmp_path, 3)
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk went away")

        arrays = trainer.state_arrays()
        monkeypatch.setattr(trainer, "state_arrays", lambda: {**arrays, "zzz": Unwritable()})
        with pytest.raises(RuntimeError, match="disk went away"):
            save_checkpoint(path, trainer, "hash", {"step": 1})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_entry_count_does_not_grow_with_the_buffer(self, toy8, vocab8, tmp_path):
        counts = []
        for n in (3, 30):
            _, path = self._saved(toy8, vocab8, tmp_path, n, name=f"ckpt{n}.npz")
            with zipfile.ZipFile(path) as zf:
                counts.append(len(zf.infolist()))
        assert counts[0] == counts[1]

    def test_buffer_and_optimizer_round_trip(self, toy8, vocab8, tmp_path):
        trainer, path = self._saved(toy8, vocab8, tmp_path, 5)
        meta, arrays = load_checkpoint(path)
        twin = _make_trainer(toy8, vocab8)
        for params in (twin.policy.params, twin.reference.params, twin.value_head.params):
            for arr in params.values():
                arr += 1.0  # so each entry compared below is what load_state wrote, not the shared init
        twin.load_state(arrays, meta["trainer_meta"])
        for f in POLICY_FIELDS:
            assert np.array_equal(trainer.policy.params[f], twin.policy.params[f]), f
            assert np.array_equal(trainer.reference.params[f], twin.reference.params[f]), f
        for f in VALUE_FIELDS:
            assert np.array_equal(trainer.value_head.params[f], twin.value_head.params[f]), f
        # np.savez writes the entries in this order, so it is part of the checkpoint bytes
        assert list(trainer.state_arrays())[:4] == ["policy.emb", "ref.emb", "policy.w_ctx", "ref.w_ctx"]
        for name in BUFFER_FIELDS:
            a, b = getattr(trainer.buffer, name), getattr(twin.buffer, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for opt, opt_twin in ((trainer.opt_policy, twin.opt_policy), (trainer.opt_value, twin.opt_value)):
            assert opt.t == opt_twin.t == 2
            for f in opt.m:
                assert np.array_equal(opt.m[f], opt_twin.m[f]) and np.array_equal(opt.v[f], opt_twin.v[f])

    def test_version_1_is_refused(self, toy8, vocab8, tmp_path):
        _, path = self._saved(toy8, vocab8, tmp_path, 3)
        meta, arrays = load_checkpoint(path)
        old = tmp_path / "v1.npz"
        np.savez(old, meta=json.dumps({**meta, "version": 1}), **arrays)
        with pytest.raises(ValueError, match=f"file has 1, expected {CHECKPOINT_VERSION}"):
            load_checkpoint(old)
        assert CHECKPOINT_VERSION == 2
