#!/usr/bin/env python3
"""Print the sha256 of every file a full run writes, to compare two builds.

Runs ``run_all`` and ``write_filtered`` for a run config, with OUT as the
output directory, and prints one ``<sha256>  <file name>`` line per file
in OUT, sorted by name.  The manifest records the output directory, so
its digest is taken with the manifest's ``out_dir`` blanked; two
checkouts that write the same bytes then print the same lines when both
are given the same config path.  The manifest also records the input
paths, which a config resolves against its own directory, so a config
inside each checkout makes the manifests differ:

    python3 A/scripts/bundle_digests.py A/tests/data/fixture_config.json outA/
    python3 B/scripts/bundle_digests.py A/tests/data/fixture_config.json outB/

It then writes stats_daily.csv again, through a Runner that writes
nothing else, into a temporary directory: that Runner's filter pass reads
no words.  If those bytes differ from the full run's, it names the file on
stderr and exits 1.  The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polmon.pipeline import RunConfig, Runner, run_all  # noqa: E402


def digests(config_path: str, out: str) -> list[tuple[str, str]]:
    """(sha256, file name) of each file of OUT after a full run."""
    out_dir = Path(out).resolve()
    config = dataclasses.replace(RunConfig.from_file(config_path),
                                 out_dir=out_dir)
    run_all(config)
    Runner(config).write_filtered()
    out_entry = '"out_dir": ' + json.dumps(str(out_dir), ensure_ascii=False)
    lines = []
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            data = data.replace(out_entry.encode("utf-8"), b'"out_dir": ""')
        lines.append((hashlib.sha256(data).hexdigest(), path.name))
    return lines


def stats_alone(config_path: str) -> bytes:
    """stats_daily.csv as a Runner that writes nothing else writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        config = dataclasses.replace(RunConfig.from_file(config_path),
                                     out_dir=Path(tmp))
        return Runner(config).write("stats").read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="run config (JSON)")
    parser.add_argument("out", help="output directory; overrides out_dir")
    args = parser.parse_args(argv)
    for digest, name in digests(args.config, args.out):
        print(f"{digest}  {name}")
    full_run = Path(args.out, "stats_daily.csv").read_bytes()
    if stats_alone(args.config) != full_run:
        print("stats_daily.csv: the stats writer alone wrote other bytes "
              "than the full run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
