"""Command-line interface.

Every subcommand reads the same JSON run config (--config) and writes its
slice of the report bundle into --out; run-all produces the whole bundle.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from datetime import date
from pathlib import Path
from typing import Callable

from .pipeline import Runner, RunConfig, StageError, check_option, run_all

# each subcommand and the Runner writer it calls (write_<writer>);
# run-all writes the whole bundle
_COMMANDS = {"filter": "filtered", "graph": "graphml", "stance": "stance",
             "stats": "stats", "polarize": "pi_series",
             "influencers": "influencers", "communities": "communities",
             "ablate": "ablation", "sweep": "sweep", "run-all": None}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, type=Path,
                     help="JSON run configuration")
    sub.add_argument("--from", dest="date_from", type=date.fromisoformat,
                     metavar="DATE", help="clamp the study window start")
    sub.add_argument("--to", dest="date_to", type=date.fromisoformat,
                     metavar="DATE", help="clamp the study window end")
    sub.add_argument("--out", dest="out_dir", metavar="OUT",
                     type=lambda raw: Path(raw).resolve(),
                     help="output directory override")
    sub.add_argument("--threshold", type=_option("threshold", float),
                     metavar="T", help="stance threshold override, in [0, 1]")
    sub.add_argument("--drop-isolated", type=_parse_bool, metavar="BOOL",
                     help="drop newly isolated nodes in ablations")
    sub.add_argument("--k", type=_option("k", int), metavar="K",
                     help="NetShield selection size")
    sub.add_argument("-v", "--verbose", action="store_true")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {raw!r}")


def _option(key: str, parse: Callable):
    """A flag's argparse type: parse, then RunConfig's range rule for key."""
    def convert(raw: str):
        try:
            return check_option(key, parse(raw))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polmon",
        description="Monitor a political discussion: filter, graph, stance, "
                    "polarization, influencers, communities.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(subparsers.add_parser(name))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """--config's run config, with each flag given in place of its key."""
    keys = {f.name for f in fields(RunConfig)}
    return replace(RunConfig.from_file(args.config), **{
        key: value for key, value in vars(args).items()
        if key in keys and value is not None})


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
            paths = run_all(config).values()
        else:
            runner = Runner(config)
            runner.rule_set  # an empty study window fails before any input
            paths = [runner.write(_COMMANDS[args.command])]
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in sorted(paths):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
