"""Shows that every correctness check rejects an output corrupted on purpose.

    python3 perfbench/selftest.py

Runs round 0 of each workload once (about 20 s), confirms that its outputs
pass, then applies one corruption at a time to a copy and confirms that
the check aimed at it reports it. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from common import WORK, import_tsclab


def _rewrite_csv(path: Path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_cell(path: Path, row: int, column: str, value):
    def edit(rows):
        rows[row][rows[0].index(column)] = str(value(rows[row][rows[0].index(column)]))
        return rows

    _rewrite_csv(path, edit)


def _rewrite_jsonl(path: Path, edit):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    rows = edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def _edit_decision(path: Path, pick, change):
    def edit(rows):
        change(next(r for r in rows if pick(r)))
        return rows

    _rewrite_jsonl(path, edit)


def _bump(key, amount):
    def change(row):
        row[key] = row[key] + amount

    return change


def _decrease_at(path: Path, column: str):
    """Makes ``column`` drop by one at a late row, keeping completed <= injected."""

    def edit(rows):
        col = rows[0].index(column)
        rows[-2][col] = str(int(rows[-3][col]) - 1 if column == "completed" else int(rows[-1][col]) + 5)
        return rows

    _rewrite_csv(path, edit)


CORRUPTIONS = {
    "train-toy8": [
        ("a step row missing", "step rows",
         lambda d: _rewrite_csv(d / "ep000_steps.csv", lambda rows: rows[:-1])),
        ("a decision missing", "decisions, expected",
         lambda d: _rewrite_jsonl(d / "ep000_decisions.jsonl", lambda rows: rows[:-1])),
        ("injected decreases", "injected decreases",
         lambda d: _decrease_at(d / "ep000_steps.csv", "injected")),
        ("completed decreases", "completed decreases",
         lambda d: _decrease_at(d / "ep000_steps.csv", "completed")),
        ("completed above injected", "completed exceeds injected",
         lambda d: _set_cell(d / "ep000_steps.csv", 50, "completed", lambda v: 10**6)),
        ("queue metric off", "queue_length",
         lambda d: _set_cell(d / "metrics.csv", 1, "queue_length", lambda v: float(v) + 0.01)),
        ("throughput off", "throughput",
         lambda d: _set_cell(d / "metrics.csv", 1, "throughput", lambda v: int(v) + 1)),
        ("R_env off", "R_env",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: r["time"] == 500.0,
                                  _bump("R_env", 0.125))),
        ("bonus dropped", "R_total",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: r["gate_open"],
                                  lambda r: r.update(R_total=r["R_env"] - 3.0))),
        ("counts not summing to G", "do not sum to G",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: True,
                                  lambda r: r["counts"].__setitem__(0, r["counts"][0] + 1))),
        ("an update row missing", "train_log rows",
         lambda d: _rewrite_csv(d / "train_log.csv", lambda rows: rows[:-1])),
        ("a non-finite update row", "non-finite",
         lambda d: _set_cell(d / "train_log.csv", 3, "value_loss", lambda v: "nan")),
        ("final checkpoint truncated", "unreadable checkpoint",
         lambda d: (d / "ckpt_final.npz").write_bytes((d / "ckpt_final.npz").read_bytes()[:1000])),
    ],
    "eval-toy8": [
        ("counts logged without an ensemble", "without an ensemble",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: True,
                                  lambda r: r.update(counts=[1] + [0] * 7))),
        ("hurdle not subtracted", "R_total",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: True,
                                  _bump("R_total", 3.0))),
        ("gate state wrong", "gate_open",
         lambda d: _edit_decision(d / "ep000_decisions.jsonl", lambda r: True,
                                  lambda r: r.update(gate_open=not r["gate_open"]))),
    ],
    "compare-baselines": [
        ("fixed-time phase out of cycle", "fixed-time phase",
         lambda d: _edit_decision(d / "toy8_fixed_seed3" / "ep000_decisions.jsonl",
                                  lambda r: r["time"] == 120.0,
                                  lambda r: r.update(chosen_phase=(r["chosen_phase"] + 1) % 8))),
        ("comparison median off", "median",
         lambda d: _set_cell(d / "comparison.csv", 2, "travel_time", lambda v: float(v) * 1.01)),
        ("max pressure no better", "max-pressure median queue",
         lambda d: [
             _set_cell(d / f"toy8_maxpressure_seed{s}" / "metrics.csv", 1, "queue_length", lambda v: 1e3)
             for s in range(5)
         ]),
    ],
}


def main() -> int:
    tsclab = import_tsclab()
    import checks
    from workloads import WORKLOADS, round_seed

    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    missed = []
    try:
        for name, corruptions in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            seed = round_seed(0, 0)
            clean = base / name / "clean"
            workload.run(tsclab, clean, seed)
            errors = workload.check(tsclab, clean, seed)
            print(f"{name}: clean outputs {'pass' if not errors else errors}")
            if errors:
                missed.append(f"{name}: clean outputs rejected")
            for what, expected, corrupt in corruptions:
                copy = base / name / "corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(clean, copy)
                corrupt(copy)
                found = workload.check(tsclab, copy, seed)
                caught = any(expected in e for e in found)
                print(f"  {what:<36} {'rejected' if caught else 'NOT REJECTED'}")
                if not caught:
                    missed.append(f"{name}: {what}")

            # determinism: a repeat must write the same bytes
            copy = base / name / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            log = next(copy.rglob("*_decisions.jsonl"))
            log.write_bytes(log.read_bytes().replace(b"0", b"1", 1))
            caught = bool(checks.check_identical(clean, copy)) and not checks.check_identical(clean, clean)
            print(f"  {'a repeat differing by one byte':<36} {'rejected' if caught else 'NOT REJECTED'}")
            if not caught:
                missed.append(f"{name}: differing repeat")

        # sampler log-probs: an exact record passes, a perturbed one fails
        runner = WORKLOADS["eval-toy8"].build(tsclab, base / "sampler", 0)
        policy = runner.trainer.policy
        features = np.linspace(0.0, 6.0, runner.feature_len)
        keys = [tsclab._kernels.derive_key(0, 0, d, r) for d in range(2) for r in range(4)]
        tokens, lengths, logps = policy.sample(features, keys)
        params = {k: v.copy() for k, v in policy.params.items()}
        record = (policy.meta(), params, features, tokens, lengths, logps)
        exact, _, _ = checks.check_sampler([record], tsclab.TokenPolicy)
        bad = logps.copy()
        bad[3, 0] += 1e-6
        perturbed, _, _ = checks.check_sampler([record[:5] + (bad,)], tsclab.TokenPolicy)
        caught = not exact and any("sampler log-probs differ" in e for e in perturbed)
        print(f"sampler: {'perturbed log-prob rejected' if caught else 'NOT REJECTED'}")
        if not caught:
            missed.append("sampler log-probs")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if missed:
        print("unnoticed corruptions: " + "; ".join(missed))
        return 1
    print("every corruption was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
