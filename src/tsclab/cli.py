"""Command line entry point.

Subcommands cover the whole workflow: ``train`` a signal policy,
``eval`` a trained or fresh one, run a ``baseline`` controller,
``compare`` several configs over shared seeds, and ``reward-hist`` to
summarize a decision log. Every run is seeded and config-driven; any
validation failure exits nonzero with a message naming the check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    BASELINES,
    CONTROLLERS,
    ExperimentConfig,
    ExperimentRunner,
    check_file,
    compare,
    reward_histogram,
)
from .rewards import RewardConfig, check_float, check_int


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ValueError("validation failed: --config is required")
    cfg = ExperimentConfig.from_yaml(args.config)
    if args.seed is not None:
        check_int("validation failed: --seed", args.seed, 0)
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.episodes is not None:
        check_int("validation failed: --episodes", args.episodes, 1)
        cfg.episodes = args.episodes
    if args.controller is not None:
        cfg.controller = args.controller
    return cfg


def _report(runner, reports) -> int:
    for rep in reports:
        m = rep.metrics
        print(
            f"episode {rep.episode}: queue {m['queue_length']:.3f}, "
            f"travel time {m['travel_time']:.1f}, throughput {m['throughput']}, "
            f"decisions {rep.decisions}"
        )
    print(f"outputs in {runner.out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if cfg.controller != "policy":
        raise ValueError("validation failed: train requires controller 'policy'")
    runner = ExperimentRunner(cfg, checkpoint=args.resume)
    return _report(runner, runner.train())


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    check_float("validation failed: --temperature", args.temperature, 0.0, strict=True)
    runner = ExperimentRunner(cfg, checkpoint=args.checkpoint)
    return _report(runner, runner.evaluate(temperature=args.temperature))


def cmd_baseline(args) -> int:
    cfg = _load_config(args)
    if cfg.controller == "policy":
        raise ValueError(f"validation failed: baseline requires controller in {{{', '.join(BASELINES)}}}")
    runner = ExperimentRunner(cfg)
    return _report(runner, runner.evaluate())


def cmd_compare(args) -> int:
    if len(args.config) < 2:
        raise ValueError("validation failed: compare needs at least two --config")
    if not args.seed:
        raise ValueError("validation failed: compare needs at least one --seed")
    configs = [ExperimentConfig.from_yaml(p) for p in args.config]
    labels = [Path(p).stem for p in args.config]
    out = args.out if args.out is not None else "runs/compare"
    rows = compare(configs, args.seed, out, labels=labels)
    for row in rows:
        print(
            f"{row['label']}: median queue {row['queue_length']:.3f}, "
            f"travel time {row['travel_time']:.1f}, throughput {row['throughput']:.0f}"
        )
    print(f"comparison table in {Path(out) / 'comparison.csv'}")
    return 0


def cmd_reward_hist(args) -> int:
    check_file("decision log", args.jsonl)
    hurdle = args.hurdle
    if hurdle is not None:
        check_float("validation failed: --hurdle", hurdle)
    elif args.config is not None:
        hurdle = ExperimentConfig.from_yaml(args.config).reward.h_r
    else:
        hurdle = RewardConfig().h_r
    hist = reward_histogram(args.jsonl, hurdle, bin_width=args.bin_width)
    print(f"decisions: {hist['n']}")
    print(f"fraction with reward above hurdle {hurdle}: {hist['fraction_above']:.4f}")
    for lo, hi, c in zip(hist["bin_edges"][:-1], hist["bin_edges"][1:], hist["counts"]):
        print(f"  [{lo:+.1f}, {hi:+.1f}): {c}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "reward_hist.json", "w", encoding="utf-8") as fh:
            json.dump(hist, fh, indent=2, sort_keys=True)
        print(f"histogram written to {out / 'reward_hist.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsclab",
        description="Seeded traffic-signal control experiments with a token-level policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="YAML config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="override the output directory")
        p.add_argument("--episodes", type=int, default=None, help="override the episode count")
        p.add_argument(
            "--controller",
            choices=CONTROLLERS,
            help="override the controller",
        )

    p = sub.add_parser("train", help="train the token policy")
    common(p)
    p.add_argument("--resume", type=str, default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run episodes without learning")
    common(p)
    p.add_argument("--checkpoint", type=str, default=None, help="checkpoint to load")
    p.add_argument(
        "--temperature",
        type=float,
        default=1.0,
        help="sampling temperature (default 1.0; small values approach greedy)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run a non-learning controller")
    common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="run several configs over shared seeds")
    p.add_argument("--config", action="append", default=[], help="repeatable config path")
    p.add_argument("--seed", action="append", type=int, default=[], help="repeatable seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reward-hist", help="histogram of per-decision rewards from a log")
    p.add_argument("jsonl", type=str, help="per-decision JSONL log")
    p.add_argument("--hurdle", type=float, default=None, help=f"hurdle (default: config or {RewardConfig().h_r})")
    p.add_argument("--bin-width", type=float, default=0.5, help="histogram bin width")
    p.add_argument("--config", type=str, default=None, help="config supplying the hurdle")
    p.add_argument("--out", type=str, default=None, help="directory for reward_hist.json")
    p.set_defaults(func=cmd_reward_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
