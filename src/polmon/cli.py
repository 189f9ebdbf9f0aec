"""Command-line interface.

Every subcommand reads the same JSON run config (--config) and writes its
slice of the report bundle into --out; run-all produces the whole bundle.
"""

from __future__ import annotations

import argparse
import logging
import sys
from datetime import date
from pathlib import Path

from .pipeline import Runner, RunConfig, StageError, run_all

_SUBCOMMANDS = ("filter", "graph", "stance", "stats", "polarize",
                "influencers", "communities", "ablate", "sweep", "run-all")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, type=Path,
                     help="JSON run configuration")
    sub.add_argument("--from", dest="date_from", type=date.fromisoformat,
                     metavar="DATE", help="clamp the study window start")
    sub.add_argument("--to", dest="date_to", type=date.fromisoformat,
                     metavar="DATE", help="clamp the study window end")
    sub.add_argument("--out", type=Path, help="output directory override")
    sub.add_argument("--threshold", type=_unit_interval, metavar="T",
                     help="stance threshold override, in [0, 1]")
    sub.add_argument("--drop-isolated", type=_parse_bool, metavar="BOOL",
                     help="drop newly isolated nodes in ablations")
    sub.add_argument("--k", type=_non_negative, metavar="K",
                     help="NetShield selection size")
    sub.add_argument("-v", "--verbose", action="store_true")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {raw!r}")


def _unit_interval(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1]: {raw!r}")
    return value


def _non_negative(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polmon",
        description="Monitor a political discussion: filter, graph, stance, "
                    "polarization, influencers, communities.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sub = subparsers.add_parser(name)
        _add_common(sub)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config)
    if args.out is not None:
        config.out_dir = args.out.resolve()
    for key in ("date_from", "date_to", "threshold", "drop_isolated", "k"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run-all":
            bundle = run_all(config)
            for name in sorted(bundle):
                print(f"wrote {bundle[name]}")
            return 0
        runner = Runner(config)
        runner.rule_set  # an empty study window fails before any input
        actions = {
            "filter": runner.write_filtered,
            "graph": runner.write_graphml,
            "stance": runner.write_stance,
            "stats": runner.write_stats,
            "polarize": runner.write_pi_series,
            "influencers": runner.write_influencers,
            "communities": runner.write_communities,
            "ablate": runner.write_ablation,
            "sweep": runner.write_sweep,
        }
        path = actions[args.command]()
        print(f"wrote {path}")
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
