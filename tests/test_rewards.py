import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsclab.rewards import (
    RewardConfig,
    assemble_token_rewards,
    decision_reward,
    env_reward,
    gated_entropy_reward,
    k3_kl,
    softmax_dse_prob,
    total_reward,
)


class TestK3Oracle:
    """Closed-form values computed by hand pin the divergence estimate."""

    def test_hand_values(self):
        # ratio 2: 2 - ln 2 - 1; ratio 0.5: 0.5 - ln 0.5 - 1
        lp, lr = 0.0, math.log(2.0)
        assert k3_kl(lp, lr) == pytest.approx(2.0 - math.log(2.0) - 1.0, abs=1e-12)
        lp, lr = 0.0, math.log(0.5)
        assert k3_kl(lp, lr) == pytest.approx(0.5 - math.log(0.5) - 1.0, abs=1e-12)

    def test_zero_at_agreement(self):
        assert k3_kl(-1.3, -1.3) == 0.0

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @example(lp=0.0, lr=1e-8)
    @settings(max_examples=300)
    def test_nonnegative(self, lp, lr):
        val = float(k3_kl(lp, lr))
        assert val >= 0.0
        if abs(lp - lr) > 1e-9:
            assert val > 0.0

    def test_elementwise(self):
        lp = np.array([0.0, -1.0, -2.0])
        lr = np.array([0.0, -1.5, -1.0])
        out = k3_kl(lp, lr)
        assert out.shape == (3,)
        assert out[0] == 0.0
        for i in range(3):
            assert out[i] == pytest.approx(float(k3_kl(lp[i], lr[i])), abs=0)


class TestDse:
    def test_softmax_matches_direct_formula(self):
        counts = [1, 0, 4, 3]
        tau = 0.7
        e = np.exp(np.array(counts) / tau)
        for j in range(4):
            assert softmax_dse_prob(counts, j, tau) == pytest.approx(e[j] / e.sum(), rel=1e-12)

    def test_high_temperature_is_uniform(self):
        counts = [8, 0, 0, 0, 0, 0, 0, 0]
        p = softmax_dse_prob(counts, 3, 1e9)
        assert abs(p - 1.0 / 8.0) <= 1e-6

    def test_low_temperature_is_indicator(self):
        counts = [1, 5, 2, 0]
        assert softmax_dse_prob(counts, 1, 1e-6) >= 1.0 - 1e-6
        assert softmax_dse_prob(counts, 0, 1e-6) <= 1e-6

    def test_uniform_counts_exact(self):
        counts = [2, 2, 2, 2]
        for j in range(4):
            assert softmax_dse_prob(counts, j, 0.37) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_softmax_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            softmax_dse_prob([1, 1], 0, tau)


class TestGate:
    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0.001, 1.0),
    )
    @settings(max_examples=300)
    def test_gate_exact_zero_or_full(self, r_env, h_r, p):
        bonus = gated_entropy_reward(p, r_env, h_r)
        if r_env > h_r:
            assert bonus == p
        else:
            assert bonus == 0.0

    def test_boundary_is_closed(self):
        # exactly at the hurdle the bonus stays off
        assert gated_entropy_reward(0.9, 3.0, 3.0) == 0.0
        assert gated_entropy_reward(0.9, 3.0 + 1e-12, 3.0) == 0.9

    def test_total_reward_composition(self):
        assert total_reward(2.0, 3.0, 1.5, 0.5) == pytest.approx(2.0 - 3.0 + 0.75)
        assert total_reward(2.0, 3.0, 0.0, 0.0) == -1.0


class TestEnvReward:
    def test_queue_difference(self):
        assert env_reward(5.0, 3.0) == 2.0
        assert env_reward(1.0, 4.0) == -3.0


class TestTokenRewards:
    def test_final_token_carries_task_reward_only(self):
        lp = np.array([-1.0, -2.0, -0.5])
        lr = np.array([-1.1, -2.0, -3.0])
        out = assemble_token_rewards(lp, lr, 7.25, beta=0.05)
        assert out[-1] == 7.25
        for i in range(2):
            assert out[i] == pytest.approx(-0.05 * float(k3_kl(lp[i], lr[i])), abs=0)
        # zero divergence at position 1 means exactly zero reward there
        assert out[1] == 0.0

    def test_beta_zero_disables_penalty(self):
        out = assemble_token_rewards([-1.0, -2.0], [-3.0, -4.0], 1.0, beta=0.0)
        assert out[0] == 0.0 and out[1] == 1.0

    def test_single_token(self):
        out = assemble_token_rewards([-1.0], [-9.0], 4.0, beta=0.05)
        assert out.shape == (1,) and out[0] == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assemble_token_rewards([-1.0, -2.0], [-1.0], 0.0, 0.05)

    def test_empty(self):
        with pytest.raises(ValueError):
            assemble_token_rewards([], [], 0.0, 0.05)


class TestDecisionReward:
    def test_softmax_bundle(self):
        cfg = RewardConfig(h_r=0.5, w_e=2.0, tau=1.0)
        counts = [6, 1, 1, 0, 0, 0, 0, 0]
        out = decision_reward(counts, 0, r_env=2.0, cfg=cfg)
        p = softmax_dse_prob(counts, 0, 1.0)
        assert out["gate_open"] is True
        assert out["p_chosen"] == pytest.approx(p)
        assert out["r_total"] == pytest.approx(2.0 - 0.5 + 2.0 * p)

    def test_closed_gate_drops_bonus_exactly(self):
        cfg = RewardConfig(h_r=3.0, w_e=1.0)
        out = decision_reward([8, 0, 0, 0, 0, 0, 0, 0], 0, r_env=3.0, cfg=cfg)
        assert out["gate_open"] is False
        assert out["r_entropy"] == 0.0
        assert out["r_total"] == 3.0 - 3.0

    def test_zero_weight_pays_no_bonus(self):
        cfg = RewardConfig(w_e=0.0, h_r=1.0)
        out = decision_reward([4, 4], 0, r_env=5.0, cfg=cfg)
        assert out["p_chosen"] == 0.5 and out["gate_open"] is True
        assert out["r_total"] == 4.0

    def test_no_ensemble(self):
        cfg = RewardConfig(h_r=1.0)
        out = decision_reward(None, 0, r_env=5.0, cfg=cfg)
        assert out["p_chosen"] is None
        assert out["r_total"] == 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(tau=0.0)
        with pytest.raises(ValueError):
            RewardConfig(beta=-0.1)
