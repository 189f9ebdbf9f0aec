#!/usr/bin/env python3
"""CPU-speed sampler: puts measured times on a fixed reference speed.

On a shared host the speed of a vCPU changes by up to ~1.7x within
seconds and for minutes at a time (another tenant on the same core, or a
lower clock), so the raw wall time of the same work spreads far more
than any change a pull request makes.  ``run.py`` pins itself, and so
every child it starts, to one CPU and runs this sampler on that same CPU.
Every ``INTERVAL`` seconds the sampler wakes, times a fixed pure-Python
loop (``PROBE``, about 0.25 ms) and appends ``<monotonic time> <seconds>``
to a file.  It costs the workload about 1% of the CPU.

A span of wall time is then scaled by the CPU's speed during it:

    reference_s = (t1 - t0) * mean(P_REF / p_i for samples i in [t0, t1])

that is, the time the same work would have taken on a CPU that runs the
probe loop in ``P_REF`` seconds.  Work done is speed integrated over time,
and the samples are evenly spaced, so the mean of the speeds is the
integral's average.  On the 2-vCPU VM the benchmark was built on, 30
repetitions of one full-report corpus took 4.7-7.9 s of raw wall time, a
range of 55% of their median; scaled, the range was 15%.

    python3 perfbench/speed.py OUT_FILE     (started by run.py)
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

INTERVAL = 0.025
# seconds PROBE takes on a fast, uncontended core of the reference machine
# (Intel Xeon vCPU, Python 3.11); only the unit of the scaled times
# depends on it, not their spread or their ratios
P_REF = 0.22e-3


def probe() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def sample(out: Path) -> None:
    """Append samples to out until the parent process is gone."""
    parent = os.getppid()
    with out.open("a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            stamp = time.monotonic()
            t0 = time.perf_counter()
            probe()
            fh.write(f"{stamp!r} {time.perf_counter() - t0!r}\n")
            fh.flush()
            time.sleep(INTERVAL)


def load(path: Path) -> list[tuple[float, float]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) == 2:  # the last line may be half written
            rows.append((float(parts[0]), float(parts[1])))
    return rows


def reference_s(samples: list[tuple[float, float]], t0: float,
                t1: float) -> float:
    """Wall span [t0, t1] in seconds at the reference speed."""
    inside = [p for stamp, p in samples if t0 <= stamp <= t1]
    if not inside:  # a span shorter than INTERVAL: take the nearest sample
        middle = (t0 + t1) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
    return (t1 - t0) * sum(P_REF / p for p in inside) / len(inside)


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
