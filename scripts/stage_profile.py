#!/usr/bin/env python3
"""Print the self time and memory of each stage of a full run.

Runs ``run_all`` for a run config, with OUT as the output directory, and
prints one line as each Runner stage or writer finishes, in the order
``run_all`` reaches them:

    <stage>  <self s>  <resident MB>  <peak MB>

A writer's line is named ``write_<name>``.  Self time leaves out the
stages that a stage or writer built first, which have lines of their own.
Resident MB is read from /proc/self/statm after the stage (where there is
none, it is getrusage's peak); peak MB is getrusage's ru_maxrss so far.
The first line, ``import``, gives the import time of ``polmon.pipeline``
and the memory right after it.  The last line, ``total``, gives the wall
time of the whole run.

    OPENBLAS_NUM_THREADS=1 python3 scripts/stage_profile.py config.json out/

The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def resident_mb() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
_start = perf_counter()
from polmon import pipeline  # noqa: E402

IMPORTED = perf_counter() - _start, resident_mb(), peak_mb()


def print_row(name: str, seconds: float, resident: float, peak: float
              ) -> None:
    print(f"{name:<22}{seconds:9.3f}{resident:10.1f}{peak:10.1f}", flush=True)


class Profile:
    """Times calls that may nest, and prints a line as each one ends."""

    def __init__(self):
        self._inner = [0.0]  # per open call: the time of the calls inside

    def line(self, name: str, seconds: float) -> None:
        print_row(name, seconds, resident_mb(), peak_mb())

    def measure(self, name: str, fn: Callable):
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            inner = self._inner.pop()
            self._inner[-1] += elapsed
            self.line(name, elapsed - inner)


def profiled_runner(profile: Profile) -> type:
    """A Runner whose stages and writers report to profile."""

    class Runner(pipeline.Runner):
        def _get(self, key, builder):
            if key in self._cache:
                return self._cache[key]
            build = super()._get
            return profile.measure(key, lambda: build(key, builder))

        def write(self, name, *args):
            write = super().write
            return profile.measure(f"write_{name}", lambda: write(name, *args))

    return Runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="run config (JSON)")
    parser.add_argument("out", help="output directory; overrides out_dir")
    args = parser.parse_args(argv)
    config = dataclasses.replace(pipeline.RunConfig.from_file(args.config),
                                 out_dir=Path(args.out).resolve())
    profile = Profile()
    print(f"{'stage':<22}{'self_s':>9}{'rss_mb':>10}{'peak_mb':>10}",
          flush=True)
    print_row("import", *IMPORTED)
    # run_all builds its Runner from the module's name at call time
    runner, pipeline.Runner = pipeline.Runner, profiled_runner(profile)
    try:
        start = perf_counter()
        pipeline.run_all(config)
        profile.line("total", perf_counter() - start)
    finally:
        pipeline.Runner = runner
    return 0


if __name__ == "__main__":
    sys.exit(main())
