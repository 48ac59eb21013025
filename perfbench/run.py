"""End-to-end and per-layer benchmark of tsclab on the toy8 intersection.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-toy8 --seed 0 --seconds 20 --trace 0

Workloads: train-toy8, eval-toy8, compare-baselines (see README.md). The
workload runs inside this process through the public API, in whole rounds
until ``--seconds`` have passed. Round 0 is then repeated: with ``--trace
1`` under the layer tracer, which gives the per-layer figures and the
tracing overhead, and in every case to check that a repeat writes
byte-identical logs and that the sampler's log-probs match the policy's.
Every round's outputs are checked (see checks.py). Set-up time is measured
in fresh interpreters (setup_probe.py), after the timed rounds. A fixed
reference load (reference.py) is timed between rounds and between set-up
probes, and every timed end-to-end figure is reported at the reference
speed, so that how busy the shared host was during a run moves it less.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
same result, with the machine facts, is written to
``.perfbench/results/``. Exits 2 without a result when the checkout does
not hold the package.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import checks
import reference
import tracing
from common import WORK, SetupError, import_tsclab, machine_facts
from workloads import WORKLOADS, round_seed

SETUP_PROBES = 7
SAMPLER_CHECK_EVERY = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

END_TO_END = (
    ("setup_s", "s"),
    ("episode_s", "s"),
    ("decisions_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _decisions_logged(directory: Path) -> int:
    total = 0
    for path in directory.rglob("*_decisions.jsonl"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _vehicles_mean(directory: Path) -> float:
    """Mean vehicles in the network per logged step: injected minus completed."""
    in_network = []
    for path in sorted(directory.rglob("*_steps.csv")):
        steps = checks.read_steps(path)
        in_network += [i - c for i, c in zip(steps["injected"], steps["completed"])]
    return sum(in_network) / len(in_network) if in_network else 0.0


def measure_setup(workload: str, seed: int, out: Path):
    """Seconds from launching a fresh interpreter to the state before the first episode.

    Returns the probe times and the host-speed sample taken before each
    probe and after the last.
    """
    times, speed = [], [reference.sample()]
    for i in range(SETUP_PROBES):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed), str(out / f"probe{i}")],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=True,
            text=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
        speed.append(reference.sample())
    return times, speed


def speed_scale(speed):
    """Factor that brings each interval between reference samples to the reference speed.

    ``speed`` holds a reference sample before the first interval and after
    every interval. The host speed over interval ``i`` is taken as the mean
    of the samples on either side of it; ``reference.SENSITIVITY`` says how
    far the program's times follow it.
    """
    return [(2.0 * reference.REFERENCE_S / (a + b)) ** reference.SENSITIVITY for a, b in zip(speed, speed[1:])]


def run_workload(tsclab, workload, seed: int, seconds: float, trace: bool, out: Path):
    rounds = []  # (episode times, or None if the round raised; wall seconds; CPU seconds)
    speed = [reference.sample()]  # reference load before the first round and after every round
    failures = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        index = len(rounds)
        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        try:
            result = workload.run(tsclab, out / f"r{index:02d}", round_seed(seed, index))
        except Exception:
            result = None
            failures.append(f"round {index}: {traceback.format_exc()}")
        rounds.append((result, perf_counter() - t0, _cpu_seconds() - cpu0))
        speed.append(reference.sample())
    peak_rss = _peak_rss_mib()

    ok = [i for i, (r, _, _) in enumerate(rounds) if r is not None]
    if not ok:
        raise RuntimeError("every round failed:\n" + "\n".join(failures))
    episodes = workload.episodes_per_round * len(ok)
    attempted = workload.episodes_per_round * len(rounds)
    errors = []
    for i in ok:
        errors += [f"round {i}: {e}" for e in workload.check(tsclab, out / f"r{i:02d}", round_seed(seed, i))]

    # repeat round 0: determinism, sampler log-probs, and (traced) the layers
    tracer = tracing.Tracer()
    recorder = tracing.SamplerRecorder(SAMPLER_CHECK_EVERY)
    tracing.install_sampler(tracer, recorder)
    if trace:
        tracing.install_layers(tracer)
    repeat_dir = out / "repeat"
    repeat = None
    t0 = perf_counter()
    try:
        repeat = workload.run(tsclab, repeat_dir, round_seed(seed, 0))
    except Exception:
        failures.append(f"repeat of round 0: {traceback.format_exc()}")
    finally:
        tracer.uninstall()
    repeat_wall = perf_counter() - t0
    if rounds[0][0] is not None and repeat is not None:
        errors += checks.check_identical(out / "r00", repeat_dir)
    sampler_errors, responses, worst = checks.check_sampler(recorder.records, tsclab.TokenPolicy)
    errors += sampler_errors
    if recorder.calls and not responses:
        errors.append("no sampler call was checked")

    setup, setup_speed = measure_setup(workload.name, round_seed(seed, 0), out)

    # every timed figure as measured, and at the reference speed
    walls = [wall for _, wall, _ in rounds]
    cpus = [cpu for _, _, cpu in rounds]
    scale = speed_scale(speed)
    decisions = sum(_decisions_logged(out / f"r{i:02d}") for i in ok)
    raw_episodes = [t for i in ok for t in rounds[i][0]]
    episode_times = [t * scale[i] for i in ok for t in rounds[i][0]]
    raw = {
        "setup_s": statistics.median(setup),
        "episode_s": statistics.median(raw_episodes),
        "decisions_per_s": decisions / sum(walls),
        "cpu_s": sum(cpus) / max(episodes, 1),
        "peak_rss_mb": peak_rss,
    }
    end_to_end = {
        "setup_s": statistics.median([t * f for t, f in zip(setup, speed_scale(setup_speed))]),
        "episode_s": statistics.median(episode_times),
        "decisions_per_s": decisions / sum(w * f for w, f in zip(walls, scale)),
        "cpu_s": sum(c * f for c, f in zip(cpus, scale)) / max(episodes, 1),
        "peak_rss_mb": peak_rss,
    }
    layers = {}
    if trace:
        if repeat is None or rounds[0][0] is None:
            raise RuntimeError("no traced round to report:\n" + "\n".join(failures))
        layers = tracing.layer_values(
            tracer, workload.episodes_per_round, _vehicles_mean(repeat_dir), repeat_wall, rounds[0][1]
        )
    detail = {
        "rounds": len(rounds),
        "episodes": episodes,
        "decisions": decisions,
        "timed_wall_s": sum(walls),
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "reference_s_samples": speed,
        "episode_s_samples": raw_episodes,
        "setup_s_samples": setup,
        "setup_reference_s_samples": setup_speed,
        "as_measured": raw,
        "sampler_responses_checked": responses,
        "sampler_max_abs_diff": worst,
        "repeat_wall_s": repeat_wall,
        "errors": failures + errors,
    }
    return attempted, attempted - episodes, not errors, end_to_end, layers, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tsclab = import_tsclab()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = machine_facts(tsclab)
    out = WORK / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        attempted, failed, correct, end_to_end, layers, detail = run_workload(
            tsclab, workload, args.seed, args.seconds, bool(args.trace), out
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# {workload.name} seed {args.seed}: {detail['rounds']} rounds, "
          f"{attempted} attempted, {failed} failed, correct {correct}")
    print(f"# end to end, at the reference speed ({reference.REFERENCE_S} s per reference sample); as measured:")
    for name, unit in END_TO_END:
        print(f"#   {name:<28} {end_to_end[name]:>14.6g} {unit:<4} {detail['as_measured'][name]:>14.6g}")
    if args.trace:
        for name, unit in tracing.LAYER_METRICS:
            print(f"#   {name:<28} {layers[name]:>14.6g} {unit}")
    for err in detail["errors"]:
        print(f"# FAILED: {err}")

    chosen = tracing.LAYER_METRICS if args.trace else END_TO_END
    values = layers if args.trace else end_to_end
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "end_to_end": end_to_end,
        "layers": layers,
        "detail": detail,
        "result": result,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
