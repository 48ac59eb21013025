"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints exactly one ``criterion NN PASS/FAIL`` line (visible
with -s, or in the failure report otherwise) and pins its tolerances to
the module-level constants below. The training-trend runs are expensive,
so one session fixture runs the full matrix and criteria 10 and 11
share it.
"""

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from test_phases import load_extraction_cases
from test_policy import analytic_grad, assign_flat, flatten_params, weighted_logp_loss
from test_trainer import gae_double_sum

from tsclab import cli
from tsclab.baselines import FixedTimeController
from tsclab.experiment import ExperimentConfig, ExperimentRunner, compare, run_config
from tsclab.phases import feature_length, Vocabulary, extract_phase
from tsclab.policy import (
    POLICY_FIELDS,
    VALUE_FIELDS,
    TokenPolicy,
    ValueHead,
)
from tsclab.rewards import (
    gated_entropy_reward,
    k3_kl,
    softmax_dse_prob,
    total_reward,
)
from tsclab.sim import DemandProfile, Intersection
from tsclab.trainer import PPOTrainer, TrainerConfig, gae

# -- pinned tolerances and budgets --------------------------------------

FD_STEP = 1e-5
FD_SEEDS = 10
FD_TOL = 1e-4          # max per-component relative error
FD_FLOOR = 1e-4        # floor below which FD rounding noise (~5e-10) dominates
FD_GLOBAL_TOL = 1e-6   # relative 2-norm agreement of the whole gradient
FD_KINK_MARGIN = 1e-3  # min |preactivation| so the stencil stays one-sided
FD_BUDGET_S = 10.0

GAE_TRAJECTORIES = 1000
GAE_MAX_LEN = 10
GAE_TOL = 1e-10
GAMMA_GRID = (0.0, 0.5, 0.9, 0.999, 1.0)
LAMBDA_GRID = (0.0, 0.5, 0.7, 0.95, 1.0)

DSE_TOL = 1e-6
SPOT_TOL = 1e-12

GATE_CASES = 10_000
K3_CASES = 10_000
K3_RATIO_EXCLUSION = 1e-5   # |ratio - 1| below this is numerically zero

EXTRACTION_MIN_CASES = 20

BASELINE_SEEDS = (0, 1, 2, 3, 4)
BASELINE_RATIO = 0.7
BASELINE_BUDGET_S = 60.0

TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPISODES = 8          # <= 20 allowed
TREND_HURDLE = 0.5
TREND_BETA = 0.1
TREND_LR = 3e-4
TREND_REDUCTION = 0.25
TREND_DSE_FACTOR = 1.05
TREND_BUDGET_S = 1800.0

SURGED_DEMAND = {
    "kind": "poisson",
    "base_rate": 0.04,
    "surges": [
        {"lanes": ["N_T", "S_T"], "start": 600, "end": 1200, "rate": 0.125},
        {"lanes": ["E_T", "W_T"], "start": 2000, "end": 2600, "rate": 0.125},
    ],
}

# sustained asymmetric load: the through movement east/west dominates,
# so the learnable structure is simple while cross traffic still matters
TREND_DEMAND = {
    "kind": "poisson",
    "base_rate": 0.02,
    "rates": {"E_T": 0.15, "W_T": 0.15},
}

TREND_TRAINER = {
    "actor_lr": TREND_LR,
    "use_critic": False,
    "gamma": 1.0,
    "lam": 1.0,
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), FD_FLOOR)
    return float((np.abs(a - b) / denom).max())


# -- criterion 1: analytic gradients vs central finite differences -------


def _fd_policy_case(seed: int, topo):
    """Random small policy plus a batch whose activations clear the kink.

    The hidden layers are piecewise linear, so a preactivation inside the
    finite-difference stencil would make the two-sided estimate blend the
    slopes on either side of zero. Cases are redrawn until every valid
    position sits at least FD_KINK_MARGIN from the kink.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    vocab = Vocabulary.for_topology(topo, n_filler=16)
    policy = TokenPolicy(
        vocab_size=vocab.size,
        feature_len=feature_length(topo),
        eos_id=vocab.eos_id,
        d_embed=4,
        d_hidden=6,
        k_history=4,
        max_len=8,
        rng=rng,
    )
    while True:
        features = rng.uniform(0.0, 4.0, size=(2, policy.feature_len))
        lengths = rng.integers(1, 6, size=2)
        lmax = int(lengths.max())
        tokens = np.full((2, lmax), -1, dtype=np.int64)
        for i in range(2):
            tokens[i, : lengths[i]] = rng.integers(0, policy.vocab_size, size=lengths[i])
        weights = rng.normal(size=(2, lmax))
        _, cache = policy.forward_batch(features, tokens, lengths)
        on_mask = cache["valid"].astype(bool)
        margin = min(
            float(np.abs(cache[z][on_mask]).min()) for z in ("z0", "z1", "z2")
        )
        if margin > FD_KINK_MARGIN:
            return policy, features, tokens, lengths, weights


def _fd_value_case(seed: int, topo):
    rng = np.random.Generator(np.random.PCG64(seed))
    value = ValueHead(feature_length(topo), rng=rng)
    while True:
        vf = rng.uniform(0.0, 4.0, size=(4, value.feature_len))
        targets = rng.normal(size=4)
        _, cache = value.forward_batch(vf)
        if float(np.abs(cache["z1"]).min()) > FD_KINK_MARGIN:
            return value, vf, targets


def test_criterion_01_gradients_match_finite_differences(toy8):
    t0 = time.perf_counter()
    worst_policy = 0.0
    worst_value = 0.0
    worst_global = 0.0
    for seed in range(FD_SEEDS):
        policy, features, tokens, lengths, weights = _fd_policy_case(seed, toy8)
        n_params = policy.n_params
        assert n_params <= 5000
        grads = analytic_grad(policy, features, tokens, lengths, weights)
        g_an = flatten_params(grads, POLICY_FIELDS)
        flat = flatten_params(policy.params, POLICY_FIELDS)
        g_fd = np.empty_like(flat)
        for i in range(flat.size):
            vec = flat.copy()
            vec[i] += FD_STEP
            assign_flat(policy.params, POLICY_FIELDS, vec)
            hi = weighted_logp_loss(policy, features, tokens, lengths, weights)
            vec[i] -= 2 * FD_STEP
            assign_flat(policy.params, POLICY_FIELDS, vec)
            lo = weighted_logp_loss(policy, features, tokens, lengths, weights)
            g_fd[i] = (hi - lo) / (2 * FD_STEP)
        assign_flat(policy.params, POLICY_FIELDS, flat)
        worst_policy = max(worst_policy, _rel_err(g_fd, g_an))
        worst_global = max(
            worst_global,
            float(
                np.linalg.norm(g_fd - g_an)
                / max(np.linalg.norm(g_fd), np.linalg.norm(g_an), 1e-12)
            ),
        )

        value, vf, targets = _fd_value_case(1000 + seed, toy8)
        assert value.n_params <= 5000
        v, cache = value.forward_batch(vf)
        vgrads = value.backward(cache, (v - targets) / 4.0)
        vg_an = flatten_params(vgrads, VALUE_FIELDS)
        vflat = flatten_params(value.params, VALUE_FIELDS)
        vg_fd = np.empty_like(vflat)
        for i in range(vflat.size):
            vec = vflat.copy()
            vec[i] += FD_STEP
            assign_flat(value.params, VALUE_FIELDS, vec)
            vv, _ = value.forward_batch(vf)
            hi = float(0.5 * np.mean((vv - targets) ** 2))
            vec[i] -= 2 * FD_STEP
            assign_flat(value.params, VALUE_FIELDS, vec)
            vv, _ = value.forward_batch(vf)
            lo = float(0.5 * np.mean((vv - targets) ** 2))
            vg_fd[i] = (hi - lo) / (2 * FD_STEP)
        assign_flat(value.params, VALUE_FIELDS, vflat)
        worst_value = max(worst_value, _rel_err(vg_fd, vg_an))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_policy <= FD_TOL
        and worst_value <= FD_TOL
        and worst_global <= FD_GLOBAL_TOL
        and elapsed < FD_BUDGET_S
    )
    _report(
        1,
        "gradient check",
        ok,
        f"max rel err policy {worst_policy:.2e} value {worst_value:.2e} "
        f"global 2-norm {worst_global:.2e} over {FD_SEEDS} seeds in {elapsed:.1f}s "
        f"(tol {FD_TOL:g}/{FD_GLOBAL_TOL:g}, budget {FD_BUDGET_S:g}s)",
    )


# -- criterion 2: GAE recursion vs direct double sum ---------------------


def test_criterion_02_gae_matches_double_sum():
    rng = np.random.Generator(np.random.PCG64(202))
    per_combo = GAE_TRAJECTORIES // (len(GAMMA_GRID) * len(LAMBDA_GRID))
    worst = 0.0
    td_exact = True
    n_run = 0
    for gamma in GAMMA_GRID:
        for lam in LAMBDA_GRID:
            for _ in range(per_combo):
                n = int(rng.integers(1, GAE_MAX_LEN + 1))
                rewards = rng.normal(scale=2.0, size=n)
                values = rng.normal(scale=2.0, size=n)
                fast = gae(rewards, values, gamma, lam)
                slow = gae_double_sum(rewards, values, gamma, lam)
                worst = max(worst, float(np.abs(fast - slow).max()))
                if lam == 0.0:
                    nxt = np.append(values[1:], 0.0)
                    deltas = rewards + gamma * nxt - values
                    td_exact = td_exact and np.array_equal(fast, deltas)
                n_run += 1
    ok = worst <= GAE_TOL and td_exact and n_run >= GAE_TRAJECTORIES
    _report(
        2,
        "advantage recursion",
        ok,
        f"max |recursive - double sum| {worst:.1e} over {n_run} trajectories "
        f"(tol {GAE_TOL:g}); lambda=0 equals TD residuals exactly: {td_exact}",
    )


# -- criterion 3: softmax confidence limits and exact special cases ------


def test_criterion_03_softmax_dse_limits():
    rng = np.random.Generator(np.random.PCG64(303))
    n_p = 8
    ok = True
    detail = []

    for _ in range(50):
        counts = rng.integers(0, 13, size=n_p)
        chosen = int(rng.integers(0, n_p))
        p = softmax_dse_prob(counts, chosen, tau=1e9)
        ok = ok and abs(p - 1.0 / n_p) <= DSE_TOL
    detail.append("tau=1e9 uniform")

    for _ in range(50):
        counts = rng.integers(0, 9, size=n_p)
        top = int(rng.integers(0, n_p))
        counts[top] = counts.max() + 2  # unique majority
        for chosen in range(n_p):
            p = softmax_dse_prob(counts, chosen, tau=1e-6)
            if chosen == top:
                ok = ok and p >= 1.0 - DSE_TOL
            else:
                ok = ok and p <= DSE_TOL
    detail.append("tau=1e-6 majority vote")

    for c in (0, 1, 3, 7):
        for tau in (1e-6, 0.37, 1.0, 19.3, 1e9):
            for chosen in range(n_p):
                ok = ok and softmax_dse_prob([c] * n_p, chosen, tau) == 1.0 / n_p
    detail.append("uniform counts exact 1/8")

    _report(3, "confidence limits", ok, "; ".join(detail))


# -- criterion 4: uncertainty bonus gate exactness -----------------------


def test_criterion_04_reward_gate_exactness():
    rng = np.random.Generator(np.random.PCG64(404))
    bad = 0
    for i in range(GATE_CASES):
        p = float(rng.uniform(0.0, 1.0))
        h_r = float(rng.uniform(-2.0, 4.0))
        kind = i % 3
        if kind == 0:
            r_env = h_r  # boundary: gate must stay closed
        elif kind == 1:
            r_env = h_r + float(rng.uniform(1e-12, 8.0))
        else:
            r_env = h_r - float(rng.uniform(1e-12, 8.0))
        w_e = float(rng.uniform(0.0, 2.0))

        r_entropy = gated_entropy_reward(p, r_env, h_r)
        base = r_env - h_r
        got = total_reward(r_env, h_r, w_e, r_entropy)
        if r_env > h_r:
            if r_entropy != p or got != base + w_e * p:
                bad += 1
        else:
            if r_entropy != 0.0 or got != base:
                bad += 1
    ok = bad == 0
    _report(
        4,
        "bonus gate",
        ok,
        f"{GATE_CASES - bad}/{GATE_CASES} randomized (p, R_env, H_R) triples exact "
        "(0 below or at the hurdle, w_e * p strictly above)",
    )


# -- criterion 5: per-token divergence estimator properties --------------


def test_criterion_05_k3_properties():
    rng = np.random.Generator(np.random.PCG64(505))
    log_ratio = rng.uniform(-4.0, 4.0, size=K3_CASES)
    # floating-point absorption makes the estimator exactly zero in a
    # narrow band around ratio 1, so push samples out of it
    too_close = np.abs(np.expm1(log_ratio)) < K3_RATIO_EXCLUSION
    log_ratio[too_close] = 2 * K3_RATIO_EXCLUSION
    vals = k3_kl(np.zeros(K3_CASES), log_ratio)

    nonneg = bool((vals >= 0.0).all())
    positive_off_one = bool((vals > SPOT_TOL).all())
    zero_at_one = abs(k3_kl(np.array([0.3]), np.array([0.3]))[0]) <= SPOT_TOL

    spot2 = abs(k3_kl(np.array([0.0]), np.array([math.log(2.0)]))[0] - (2 - math.log(2) - 1))
    spot_half = abs(
        k3_kl(np.array([0.0]), np.array([math.log(0.5)]))[0] - (0.5 - math.log(0.5) - 1)
    )
    spots = spot2 <= SPOT_TOL and spot_half <= SPOT_TOL

    ok = nonneg and positive_off_one and zero_at_one and spots
    _report(
        5,
        "divergence estimator",
        ok,
        f"{K3_CASES} ratios all >= 0, strictly positive away from 1, zero at 1; "
        f"spot errors {spot2:.1e} / {spot_half:.1e} (tol {SPOT_TOL:g})",
    )


# -- criterion 6: clipped-flat branch has exactly zero gradient ----------


def _flat_branch_trainer(toy8, ratio_shift: float):
    """Trainer plus a buffer of single-token records at a set log-ratio.

    ``ratio_shift`` is subtracted from the stored rollout log-probs, so
    the recomputed ratio is exp(ratio_shift). Positive-advantage records
    and negative-advantage records get opposite shifts, putting every
    token on the clipped-flat branch when the shift is large.
    """
    rng = np.random.Generator(np.random.PCG64(606))
    vocab = Vocabulary.for_topology(toy8, n_filler=16)
    policy = TokenPolicy(
        vocab_size=vocab.size,
        feature_len=feature_length(toy8),
        eos_id=vocab.eos_id,
        d_embed=4,
        d_hidden=6,
        k_history=4,
        max_len=8,
        rng=rng,
    )
    value = ValueHead(feature_length(toy8), rng=rng)
    cfg = TrainerConfig(
        use_critic=False,
        gamma=1.0,
        batch_size=12,
        batches_per_update=1,
    )
    shuffle = np.random.Generator(np.random.PCG64(607))
    trainer = PPOTrainer(policy, value, cfg, shuffle)

    for i in range(12):
        features = rng.uniform(0.0, 4.0, size=policy.feature_len)
        token = int(rng.integers(0, policy.vocab_size))
        logp_now = float(policy.logprobs(features, [token])[0])
        advantage_sign = 1.0 if i % 2 == 0 else -1.0
        shift = ratio_shift if advantage_sign > 0 else -ratio_shift
        trainer.buffer.add(
            time=float(i),
            features=features,
            tokens=np.array([token], dtype=np.int64),
            logps_old=np.array([logp_now - shift]),
            rewards=np.array([advantage_sign]),
            v_old=0.0,
        )
    return trainer


def test_criterion_06_clipped_flat_branch_zero_gradient(toy8):
    # ratio 2 on positive advantages (above 1 + eps_high = 1.5) and
    # ratio 1/2 on negative ones (below 1 - eps_low = 0.8)
    trainer = _flat_branch_trainer(toy8, math.log(2.0))
    diag = trainer.update(0.0)
    flat_zero = diag["grad_norm_policy"] == 0.0
    all_clipped = diag["clip_fraction"] == 1.0

    control = _flat_branch_trainer(toy8, 0.0)
    diag_in = control.update(0.0)
    inside_moves = diag_in["grad_norm_policy"] > 0.0 and diag_in["clip_fraction"] == 0.0

    ok = flat_zero and all_clipped and inside_moves
    _report(
        6,
        "clip flatness",
        ok,
        f"clipped batch: grad norm {diag['grad_norm_policy']!r} at clip fraction "
        f"{diag['clip_fraction']:.2f}; unclipped control batch grad norm "
        f"{diag_in['grad_norm_policy']:.3e}",
    )


# -- criterion 7: phase extraction corpus --------------------------------


def test_criterion_07_extraction_corpus(toy8, vocab8):
    cases = load_extraction_cases(Path(__file__).parent / "data" / "extraction_cases.tsv")
    assert len(cases) >= EXTRACTION_MIN_CASES
    codes = {p.mnemonic: i for i, p in enumerate(toy8.phases)}
    default_code = codes["NTST"]
    failures = []
    for text, expected in cases:
        got = extract_phase(text, toy8, default_code, vocab8)
        if got != codes[expected]:
            failures.append((text, expected, toy8.phases[got].mnemonic))
    has_tagged_case = any(t == "<signal>ETEL</signal>" for t, _ in cases)
    ok = not failures and has_tagged_case
    _report(
        7,
        "extraction corpus",
        ok,
        f"{len(cases) - len(failures)}/{len(cases)} cases agree "
        f"(tagged ETEL case present: {has_tagged_case})"
        + (f"; first failure {failures[0]!r}" if failures else ""),
    )


# -- criterion 8: conservation and bit-identical reruns ------------------


def test_criterion_08_conservation_and_determinism(tmp_path, toy8):
    demand = DemandProfile.from_dict(SURGED_DEMAND)
    rng = np.random.Generator(np.random.PCG64(808))
    sim = Intersection(toy8, demand, rng)
    controller = FixedTimeController(10.0)
    violations = 0
    for t in range(3600):
        if t % 10 == 0:
            sim.set_phase(controller.decide(sim.observe(), sim.active_phase, t, toy8))
        sim.step()
        if sim.injected_count != sim.in_network() + len(sim.completed):
            violations += 1
    conserved = violations == 0

    cfg = ExperimentConfig.from_dict(
        {
            "topology": "toy8",
            "demand": SURGED_DEMAND,
            "controller": "maxpressure",
            "episodes": 1,
            "seed": 11,
        }
    )
    reports_a = run_config(cfg, out_dir=tmp_path / "a")
    reports_b = run_config(cfg, out_dir=tmp_path / "b")
    same_steps = (tmp_path / "a" / "ep000_steps.csv").read_bytes() == (
        tmp_path / "b" / "ep000_steps.csv"
    ).read_bytes()
    same_metrics = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    decisions = reports_a[0].decisions
    jsonl_lines = len(
        (tmp_path / "a" / "ep000_decisions.jsonl").read_text().strip().splitlines()
    )

    ok = (
        conserved
        and same_steps
        and same_metrics
        and decisions == 360
        and jsonl_lines == 360
        and reports_b[0].decisions == 360
    )
    _report(
        8,
        "conservation and determinism",
        ok,
        f"conservation held at all 3600 steps ({violations} violations); same-seed "
        f"reruns bit-identical (steps {same_steps}, metrics {same_metrics}); "
        f"{decisions} decisions per episode",
    )


# -- criterion 9: classical baseline ordering ----------------------------


def test_criterion_09_baseline_ordering(tmp_path):
    t0 = time.perf_counter()
    base = {"topology": "toy8", "demand": SURGED_DEMAND, "episodes": 1, "seed": 0}
    fixed = ExperimentConfig.from_dict({**base, "controller": "fixed", "t_fixed": 10.0})
    mp = ExperimentConfig.from_dict({**base, "controller": "maxpressure"})
    rows = compare(
        [fixed, mp], seeds=BASELINE_SEEDS, out_dir=tmp_path, labels=["fixed", "maxpressure"]
    )
    elapsed = time.perf_counter() - t0
    by_label = {row["label"]: row for row in rows}
    q_fixed = by_label["fixed"]["queue_length"]
    q_mp = by_label["maxpressure"]["queue_length"]
    ok = q_mp <= BASELINE_RATIO * q_fixed and elapsed < BASELINE_BUDGET_S
    _report(
        9,
        "baseline ordering",
        ok,
        f"median queue over {len(BASELINE_SEEDS)} seeds: maxpressure {q_mp:.3f} vs "
        f"fixed-time {q_fixed:.3f} (need <= {BASELINE_RATIO:g}x) in {elapsed:.1f}s",
    )


# -- criteria 10 and 11: training trend and reward distribution ----------


def _trend_config(variant: str, seed: int) -> ExperimentConfig:
    reward = {
        "untrained": {"h_r": TREND_HURDLE, "w_e": 0.0},
        "env-only": {"h_r": 0.0, "w_e": 0.0},
        "hurdle": {"h_r": TREND_HURDLE, "w_e": 0.0},
        "hurdle-dse": {"h_r": TREND_HURDLE, "w_e": 1.0, "tau": 1.0},
    }[variant]
    reward["beta"] = TREND_BETA
    return ExperimentConfig.from_dict(
        {
            "topology": "toy8",
            "demand": TREND_DEMAND,
            "controller": "policy",
            "episodes": TREND_EPISODES,
            "seed": seed,
            "reward": reward,
            "trainer": dict(TREND_TRAINER),
        }
    )


def _trend_run(variant: str, seed: int, run_dir: Path) -> dict:
    """One run of the reward ablation grid: its final-episode queue and decision logs."""
    runner = ExperimentRunner(_trend_config(variant, seed), out_dir=run_dir)
    reports = runner.evaluate(1) if variant == "untrained" else runner.train()
    return {
        "queue": reports[-1].metrics["queue_length"],
        "first_jsonl": reports[0].decisions_jsonl,
        "final_jsonl": reports[-1].decisions_jsonl,
    }


@pytest.fixture(scope="session")
def trend_runs(tmp_path_factory):
    """Final-episode queues and decision logs for the reward ablation grid.

    The runs share nothing, so forked workers run them side by side; each
    writes the same files it writes alone.
    """
    root = tmp_path_factory.mktemp("trend")
    t0 = time.perf_counter()
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {
            variant: [
                pool.submit(_trend_run, variant, seed, root / f"{variant}_s{seed}")
                for seed in TREND_SEEDS
            ]
            for variant in ("untrained", "env-only", "hurdle", "hurdle-dse")
        }
        out = {variant: [f.result() for f in fs] for variant, fs in futures.items()}
    out["elapsed"] = time.perf_counter() - t0
    out["root"] = root
    return out


def _agreement(jsonl: str) -> float:
    """Mean over the logged decisions of max(counts) / sum(counts): how far the G responses agree."""
    with open(jsonl, "r", encoding="utf-8") as fh:
        counts = [json.loads(line)["counts"] for line in fh]
    return float(np.mean([max(c) / sum(c) for c in counts]))


def test_criterion_10_training_trend(trend_runs):
    med = {
        v: float(np.median([r["queue"] for r in trend_runs[v]]))
        for v in ("untrained", "env-only", "hurdle", "hurdle-dse")
    }
    # printed beside the queues, not gated: the bonus is meant to raise agreement
    agreement = {
        v: [float(np.median([_agreement(r[log]) for r in trend_runs[v]])) for log in ("first_jsonl", "final_jsonl")]
        for v in ("env-only", "hurdle", "hurdle-dse")
    }
    elapsed = trend_runs["elapsed"]
    ordering = med["untrained"] >= med["env-only"] >= med["hurdle"]
    dse_close = med["hurdle-dse"] <= TREND_DSE_FACTOR * med["hurdle"]
    reduced = med["hurdle"] <= (1.0 - TREND_REDUCTION) * med["untrained"]
    ok = ordering and dse_close and reduced and elapsed <= TREND_BUDGET_S
    _report(
        10,
        "training trend",
        ok,
        f"median final-episode queue: untrained {med['untrained']:.2f} >= env-only "
        f"{med['env-only']:.2f} >= hurdle {med['hurdle']:.2f} ({ordering}); "
        f"hurdle+DSE {med['hurdle-dse']:.2f} <= {TREND_DSE_FACTOR:g}x hurdle ({dse_close}); "
        f"reduction {(1 - med['hurdle'] / med['untrained']) * 100:.0f}% >= "
        f"{TREND_REDUCTION * 100:.0f}% ({reduced}); {elapsed:.0f}s of "
        f"{TREND_BUDGET_S:.0f}s budget; median agreement ep000 -> ep{TREND_EPISODES - 1:03d}: "
        + "; ".join(f"{v} {first:.3f} -> {final:.3f}" for v, (first, final) in agreement.items()),
    )


def test_criterion_11_hurdle_distribution_shift(trend_runs):
    """The histogram subcommand itself reports the before/after fractions."""

    def fraction_via_cli(jsonl: str, out_dir: Path) -> float:
        rc = cli.main(
            ["reward-hist", jsonl, "--hurdle", str(TREND_HURDLE), "--out", str(out_dir)]
        )
        assert rc == 0
        with open(out_dir / "reward_hist.json", "r", encoding="utf-8") as fh:
            return float(json.load(fh)["fraction_above"])

    root = trend_runs["root"]
    before = []
    after = []
    for i, seed in enumerate(TREND_SEEDS):
        before.append(
            fraction_via_cli(trend_runs["untrained"][i]["first_jsonl"], root / f"hb{seed}")
        )
        after.append(
            fraction_via_cli(trend_runs["hurdle"][i]["final_jsonl"], root / f"ha{seed}")
        )
    med_before = float(np.median(before))
    med_after = float(np.median(after))
    ok = med_after >= med_before
    _report(
        11,
        "reward distribution shift",
        ok,
        f"median fraction of decisions above the hurdle: {med_before:.3f} before "
        f"training -> {med_after:.3f} after (non-decreasing: {ok})",
    )


# -- criterion 12: checkpoint round trip ---------------------------------


def _roundtrip_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "topology": "toy8",
            "demand": TREND_DEMAND,
            "controller": "policy",
            "episodes": 2,
            "seed": seed,
            "reward": {"h_r": TREND_HURDLE},
            "trainer": {
                "episode_length": 720,
                "update_interval": 360,
                "actor_lr": TREND_LR,
            },
        }
    )


def test_criterion_12_checkpoint_round_trip(tmp_path):
    cfg = _roundtrip_config(seed=21)

    dir_a = tmp_path / "full"
    runner_a = ExperimentRunner(cfg, out_dir=dir_a)
    runner_a.train()

    # continuation: train on from the end-of-episode-0 snapshot
    dir_b = tmp_path / "resumed"
    ExperimentRunner(cfg, out_dir=dir_b, checkpoint=dir_a / "ckpt_ep001_t00000.npz").train()

    same_steps = (dir_a / "ep001_steps.csv").read_bytes() == (
        dir_b / "ep001_steps.csv"
    ).read_bytes()
    same_decisions = (dir_a / "ep001_decisions.jsonl").read_bytes() == (
        dir_b / "ep001_decisions.jsonl"
    ).read_bytes()
    log_a = (dir_a / "train_log.csv").read_text().splitlines()
    log_b = (dir_b / "train_log.csv").read_text().splitlines()
    rows_per_episode = 720 // 360
    same_log = log_b[1:] == log_a[1 + rows_per_episode :] and len(log_b) == 1 + rows_per_episode

    # greedy rollouts: two runners started from the final snapshot must match
    greedy = []
    for name in ("greedy1", "greedy2"):
        d = tmp_path / name
        ExperimentRunner(cfg, out_dir=d, checkpoint=dir_a / "ckpt_final.npz").evaluate(1, temperature=1e-6)
        greedy.append(
            (
                (d / "ep002_steps.csv").read_bytes(),
                (d / "ep002_decisions.jsonl").read_bytes(),
            )
        )
    same_greedy = greedy[0] == greedy[1]

    ok = same_steps and same_decisions and same_log and same_greedy
    _report(
        12,
        "checkpoint round trip",
        ok,
        f"resumed episode bit-identical (steps {same_steps}, decisions "
        f"{same_decisions}, training log {same_log}); greedy rollouts from the "
        f"final snapshot bit-identical ({same_greedy})",
    )
