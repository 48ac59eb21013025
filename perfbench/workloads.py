"""The three workloads, each driven through the package's public API.

A workload runs in whole rounds. A round is one `tsclab train`, `tsclab
eval` or `tsclab compare` invocation's worth of work with a fresh runner,
seeded from the benchmark seed and the round index, so every round of a
workload does the same kind and amount of work and the same seed always
gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, List

import checks
from common import CONFIGS

TRAIN_EPISODES = 1  # training episodes per round, each followed by the held-out episode
EVAL_EPISODES = 1  # eval episodes per round, from the seeded initial policy
COMPARE_SEEDS = 5  # seeds per config in one compare round
BASELINES = ("toy8_fixed", "toy8_maxpressure")


def round_seed(seed: int, index: int) -> int:
    """Config seed of round ``index``; compare uses this and the next seeds."""
    return seed * 1000 + index * 10


@dataclass(frozen=True)
class Workload:
    name: str
    episodes_per_round: int
    build: Callable  # (tsclab, out, seed) -> the state just before the first episode
    run: Callable  # (tsclab, out, seed) -> wall time of each episode (compare: of one run)
    check: Callable  # (tsclab, out, seed) -> list of failures in the round's outputs


def _toy8(tsclab, out: Path, seed: int, episodes: int):
    cfg = tsclab.ExperimentConfig.from_yaml(CONFIGS / "toy8.yaml")
    cfg.seed = seed
    cfg.episodes = episodes
    cfg.out = str(out)
    return cfg


def check_episodes(tsclab, run_dir: Path, cfg, g) -> List[str]:
    """Checks every episode a runner logged in ``run_dir``.

    ``g`` is the response count behind each decision's phase counts, or
    None where decisions take a single action with no ensemble.
    """
    tcfg, rcfg = cfg.trainer, cfg.reward
    rows = checks.read_csv(run_dir / "metrics.csv")
    if not rows:
        return [f"{run_dir}: no episodes in metrics.csv"]
    errors = []
    for row in rows:
        prefix = run_dir / f"ep{int(row['episode']):03d}"
        steps = checks.read_steps(f"{prefix}_steps.csv")
        decisions = checks.read_decisions(f"{prefix}_decisions.jsonl")
        found = checks.check_episode_shape(steps, decisions, tcfg.episode_length, tcfg.decision_interval)
        found += checks.check_metrics_row(row, steps)
        found += checks.check_env_rewards(decisions, steps, tcfg.decision_interval)
        found += checks.check_total_rewards(decisions, rcfg.h_r, rcfg.w_e, rcfg.tau, g)
        if cfg.controller == "fixed":
            n_phases = tsclab.build_topology(cfg.topology, **cfg.topology_overrides).n_phases
            found += checks.check_fixed_phases(decisions, cfg.t_fixed, n_phases)
        errors += [f"{prefix.name}: {e}" for e in found]
    return errors


def build_train(tsclab, out, seed):
    return tsclab.ExperimentRunner(_toy8(tsclab, out, seed, TRAIN_EPISODES))


def run_train(tsclab, out, seed):
    return [r.wall_clock for r in build_train(tsclab, out, seed).train()]


def check_train(tsclab, out, seed):
    cfg = _toy8(tsclab, out, seed, TRAIN_EPISODES)
    tcfg = cfg.trainer
    errors = check_episodes(tsclab, Path(out), cfg, tcfg.g_responses)
    updates = checks.expected_update_steps(
        TRAIN_EPISODES, tcfg.episode_length, tcfg.decision_interval, tcfg.update_interval
    )
    errors += checks.check_train_log(Path(out) / "train_log.csv", updates)
    errors += checks.check_checkpoint(Path(out) / "ckpt_final.npz", tsclab.load_checkpoint, len(updates))
    return errors


def build_eval(tsclab, out, seed):
    return tsclab.ExperimentRunner(_toy8(tsclab, out, seed, EVAL_EPISODES))


def run_eval(tsclab, out, seed):
    return [r.wall_clock for r in build_eval(tsclab, out, seed).evaluate()]


def check_eval(tsclab, out, seed):
    return check_episodes(tsclab, Path(out), _toy8(tsclab, out, seed, EVAL_EPISODES), None)


def compare_seeds(seed: int) -> List[int]:
    return [seed + i for i in range(COMPARE_SEEDS)]


def _baseline_configs(tsclab):
    return [tsclab.ExperimentConfig.from_yaml(CONFIGS / f"{name}.yaml") for name in BASELINES]


def build_compare(tsclab, out, seed):
    """What `compare` has done when its first baseline run starts."""
    first = _baseline_configs(tsclab)[0]
    run_cfg = tsclab.ExperimentConfig.from_dict({**first.to_dict(), "seed": seed})
    return tsclab.ExperimentRunner(run_cfg, out_dir=Path(out) / f"{BASELINES[0]}_seed{seed}")


def run_compare(tsclab, out, seed):
    configs = _baseline_configs(tsclab)
    runs = len(configs) * COMPARE_SEEDS
    t0 = perf_counter()
    tsclab.compare(configs, compare_seeds(seed), out, labels=list(BASELINES))
    wall = perf_counter() - t0
    # compare does not expose per-run times; a pool or a lockstep loop over
    # runs shows here as a shorter time per run
    return [wall / runs]


def check_compare(tsclab, out, seed):
    errors = []
    finals = {}
    for name, cfg in zip(BASELINES, _baseline_configs(tsclab)):
        finals[name] = []
        for s in compare_seeds(seed):
            run_dir = Path(out) / f"{name}_seed{s}"
            errors += check_episodes(tsclab, run_dir, cfg, None)
            finals[name].append(checks.read_csv(run_dir / "metrics.csv")[-1])
    errors += checks.check_comparison(Path(out) / "comparison.csv", finals)
    errors += checks.check_baseline_order(
        [float(r["queue_length"]) for r in finals["toy8_fixed"]],
        [float(r["queue_length"]) for r in finals["toy8_maxpressure"]],
    )
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-toy8", TRAIN_EPISODES, build_train, run_train, check_train),
        Workload("eval-toy8", EVAL_EPISODES, build_eval, run_eval, check_eval),
        Workload(
            "compare-baselines",
            len(BASELINES) * COMPARE_SEEDS,
            build_compare,
            run_compare,
            check_compare,
        ),
    )
}
