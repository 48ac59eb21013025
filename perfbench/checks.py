"""Correctness checks on a workload's outputs, computed apart from the program.

Each check reads what a run wrote (step CSVs, decision JSONL, metrics,
training logs, checkpoints) and recomputes the expected values from the
definitions of the method: the queue difference, the hurdle-gated reward,
the fixed-time cycle, the median. None compares against a stored copy of
an earlier output. A check returns a list of failure messages; empty means
the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ABS_TOL = 1e-9
SAMPLER_TOL = 1e-9


def _close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_csv(path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_steps(path) -> Dict[str, list]:
    rows = read_csv(path)
    return {
        "time": [float(r["time"]) for r in rows],
        "phase": [int(r["phase"]) for r in rows],
        "queue": [float(r["queue"]) for r in rows],
        "injected": [int(r["injected"]) for r in rows],
        "completed": [int(r["completed"]) for r in rows],
    }


def read_decisions(path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_episode_shape(steps, decisions, episode_length: int, decision_interval: int) -> List[str]:
    """One step row per step, one decision per interval, monotone vehicle counts."""
    errors = []
    if len(steps["time"]) != episode_length:
        errors.append(f"{len(steps['time'])} step rows, expected {episode_length}")
    if steps["time"] != [float(t) for t in range(1, len(steps["time"]) + 1)]:
        errors.append("step times are not 1, 2, ...")
    expected = episode_length // decision_interval
    if len(decisions) != expected:
        errors.append(f"{len(decisions)} decisions, expected {expected}")
    times = [d["time"] for d in decisions]
    if times != [float(t) for t in range(0, decision_interval * len(decisions), decision_interval)]:
        errors.append("decision times are not 0, interval, 2 * interval, ...")
    for col in ("injected", "completed"):
        vals = steps[col]
        if any(b < a for a, b in zip(vals, vals[1:])):
            errors.append(f"{col} decreases")
    if any(c > i for i, c in zip(steps["injected"], steps["completed"])):
        errors.append("completed exceeds injected")
    return errors


def check_metrics_row(row: dict, steps) -> List[str]:
    """metrics.csv queue is the mean step-log queue; throughput the final completed."""
    errors = []
    q = steps["queue"]
    mean_q = math.fsum(q) / len(q) if q else 0.0
    if not _close(float(row["queue_length"]), mean_q):
        errors.append(f"queue_length {row['queue_length']} != step-log mean {mean_q!r}")
    final = steps["completed"][-1] if steps["completed"] else 0
    if int(row["throughput"]) != final:
        errors.append(f"throughput {row['throughput']} != final completed {final}")
    return errors


def check_env_rewards(decisions, steps, decision_interval: int) -> List[str]:
    """R_env is the queue at a decision minus the queue at the next decision.

    The step row at time t holds the queue after step t - 1, which is the
    queue the decision at time t sees; the intersection starts empty.
    """
    queue_at = {0.0: 0.0}
    queue_at.update(zip(steps["time"], steps["queue"]))
    errors = []
    for d in decisions:
        t = d["time"]
        expected = queue_at.get(t, math.nan) - queue_at.get(t + decision_interval, math.nan)
        if not _close(d["R_env"], expected):
            errors.append(f"t={t}: R_env {d['R_env']!r} != queue difference {expected!r}")
            break
    return errors


def softmax_at(counts: Sequence[int], chosen: int, tau: float) -> float:
    scaled = [c / tau for c in counts]
    top = max(scaled)
    weights = [math.exp(s - top) for s in scaled]
    return weights[chosen] / math.fsum(weights)


def check_total_rewards(decisions, h_r: float, w_e: float, tau: float, g: Optional[int]) -> List[str]:
    """R_total = R_env - h_r + w_e * [R_env > h_r] * softmax(counts / tau)[chosen].

    ``g`` is the number of responses per decision when the run samples an
    ensemble (training), else None: then no counts are logged and the
    bonus is zero.
    """
    errors = []
    for d in decisions:
        counts = d["counts"]
        r_env = d["R_env"]
        if g is None:
            if counts is not None:
                errors.append(f"t={d['time']}: counts logged without an ensemble")
                break
            bonus = 0.0
        else:
            if counts is None or sum(counts) != g or min(counts) < 0:
                errors.append(f"t={d['time']}: counts {counts} do not sum to G={g}")
                break
            bonus = softmax_at(counts, d["chosen_phase"], tau) if r_env > h_r else 0.0
        expected = r_env - h_r + w_e * bonus
        if not _close(d["R_total"], expected):
            errors.append(f"t={d['time']}: R_total {d['R_total']!r} != {expected!r}")
            break
        if d["gate_open"] != (r_env > h_r):
            errors.append(f"t={d['time']}: gate_open {d['gate_open']} with R_env {r_env!r}")
            break
    return errors


def expected_update_steps(episodes: int, episode_length: int, decision_interval: int, update_interval: int):
    """Global steps of the updates: each update boundary at a decision, and episode end."""
    steps = []
    for ep in range(episodes):
        for t in range(update_interval, episode_length + 1, update_interval):
            if t == episode_length or t % decision_interval == 0:
                steps.append(float(ep * episode_length + t))
    return steps


def check_train_log(path, expected_steps: Sequence[float]) -> List[str]:
    """One row per update, at the expected steps, every value finite."""
    rows = read_csv(path)
    errors = []
    if len(rows) != len(expected_steps):
        errors.append(f"{len(rows)} train_log rows, expected {len(expected_steps)} updates")
    for row, step in zip(rows, expected_steps):
        if float(row["step"]) != step:
            errors.append(f"update logged at step {row['step']}, expected {step}")
            break
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            errors.append(f"non-finite train_log row at step {row['step']}")
            break
    return errors


def check_checkpoint(path, load_checkpoint, updates: int) -> List[str]:
    try:
        meta, arrays = load_checkpoint(path)
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        # load_checkpoint lets BadZipFile through on a truncated file
        return [f"unreadable checkpoint {path}: {exc!r}"]
    done = meta["trainer_meta"]["updates_done"]
    if done != updates:
        return [f"{path}: {done} updates recorded, expected {updates}"]
    if not arrays:
        return [f"{path}: no arrays"]
    return []


def check_fixed_phases(decisions, t_fixed: float, n_phases: int) -> List[str]:
    for d in decisions:
        expected = int(d["time"] // t_fixed) % n_phases
        if d["chosen_phase"] != expected:
            return [f"t={d['time']}: fixed-time phase {d['chosen_phase']}, expected {expected}"]
    return []


def check_baseline_order(fixed_queues, mp_queues, ratio: float = 0.7) -> List[str]:
    """Max pressure must beat fixed-time cycling clearly on the median queue."""
    mf, mm = statistics.median(fixed_queues), statistics.median(mp_queues)
    if not mm <= ratio * mf:
        return [f"max-pressure median queue {mm!r} > {ratio} x fixed-time {mf!r}"]
    return []


COMPARE_COLUMNS = ("travel_time", "queue_length", "delay_seconds", "delay_ratio", "throughput")


def check_comparison(comparison_csv, finals: Dict[str, List[dict]]) -> List[str]:
    """comparison.csv holds, per label, the medians of the runs' final metrics."""
    rows = {r["label"]: r for r in read_csv(comparison_csv)}
    errors = []
    if set(rows) != set(finals):
        return [f"comparison labels {sorted(rows)} != runs {sorted(finals)}"]
    for label, runs in finals.items():
        for col in COMPARE_COLUMNS:
            expected = statistics.median(float(r[col]) for r in runs)
            if not _close(float(rows[label][col]), expected):
                errors.append(f"{label} {col}: {rows[label][col]} != median {expected!r}")
    return errors


def log_files(directory: Path) -> Dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.suffix in (".csv", ".jsonl")
    }


def check_identical(first: Path, second: Path) -> List[str]:
    """Two runs of the same round wrote byte-identical logs."""
    a, b = log_files(first), log_files(second)
    if not a:
        return [f"no logs in {first}"]
    if set(a) != set(b):
        return [f"log files differ: {sorted(set(a) ^ set(b))}"]
    differ = [name for name in a if a[name] != b[name]]
    return [f"logs not byte-identical on a repeat: {differ}"] if differ else []


def check_sampler(records, token_policy_cls, tol: float = SAMPLER_TOL):
    """The sampler's log-probs agree with TokenPolicy.logprobs on the same tokens.

    ``records`` holds (policy meta, parameters, features, tokens, lengths,
    logps) as the sampler saw and returned them. Returns (errors, responses
    checked, largest difference).
    """
    errors = []
    checked = 0
    worst = 0.0
    policies = {}
    for meta, params, features, tokens, lengths, logps in records:
        policy = policies.get(id(params))
        if policy is None:
            policy = policies[id(params)] = token_policy_cls.from_meta(meta, params)
        for row in range(tokens.shape[0]):
            n = int(lengths[row])
            if not 1 <= n <= meta["max_len"] or (tokens[row, n:] != -1).any():
                errors.append(f"response of length {n} is malformed")
                return errors, checked, worst
            ref = policy.logprobs(features, tokens[row, :n])
            diff = float(abs(ref - logps[row, :n]).max())
            worst = max(worst, diff)
            checked += 1
            if not diff <= tol:
                errors.append(f"sampler log-probs differ from logprobs by {diff!r}")
                return errors, checked, worst
    return errors, checked, worst
