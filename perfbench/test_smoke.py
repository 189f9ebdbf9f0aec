"""Smoke tests for the pipeline benchmark.

    python3 -m pytest perfbench/test_smoke.py

They run on the shipped 259-tweet fixture and small generated corpora, so
they take seconds, not the minutes a measured run takes.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gencorpus  # noqa: E402
import speed  # noqa: E402
from gate import check_bundle  # noqa: E402
from polmon.corpus import load_tweets  # noqa: E402
from polmon.pipeline import Runner, RunConfig  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FIXTURE = ROOT / "tests" / "data" / "fixture_config.json"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", ["full-report", "daily-series",
                                      "monitor-window"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_fixture_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--fixture")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def _fixture_bundle(tmp_path: Path) -> Runner:
    config = RunConfig.from_file(FIXTURE)
    config.out_dir = tmp_path
    runner = Runner(config)
    runner.write_pi_series()
    runner.write_ablation()
    runner.write_sweep()
    runner.write_communities()
    return runner


def test_gate_passes_on_fixture_bundle(tmp_path):
    gate = check_bundle(_fixture_bundle(tmp_path), tmp_path, 0)
    assert gate.failures == []
    assert gate.checks > 4 * 4


@pytest.mark.parametrize("name,column", [("pi_series.csv", "pi"),
                                         ("ablation.csv", "pi_without_media"),
                                         ("sweep.csv", "pi_full")])
def test_perturbed_pi_fails_gate(tmp_path, name, column):
    runner = _fixture_bundle(tmp_path)
    path = tmp_path / name
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = repr(float(rows[0][column]) + 1e-7)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    gate = check_bundle(runner, tmp_path, 0)
    assert len(gate.failures) == 1
    assert gate.failures[0].startswith(name)


def test_generator_is_seeded_and_counts_truncated_lines(tmp_path):
    kwargs = {"tweets": 400, "users": 60, "days": 3, "truncated": 7}
    gencorpus.generate(seed=5, out=tmp_path / "a", **kwargs)
    gencorpus.generate(seed=5, out=tmp_path / "b", **kwargs)
    gencorpus.generate(seed=6, out=tmp_path / "c", **kwargs)
    for name in ("tweets.jsonl", "annotations.csv", "follows.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    assert ((tmp_path / "a" / "tweets.jsonl").read_bytes()
            != (tmp_path / "c" / "tweets.jsonl").read_bytes())
    errors: list = []
    parsed = list(load_tweets(tmp_path / "a" / "tweets.jsonl",
                              error_log=errors))
    assert len(errors) == 7
    assert len(parsed) == 400 - 7


def test_reference_speed_scales_spans_by_sampled_speed():
    fast, slow = speed.P_REF, 2 * speed.P_REF
    samples = [(0.1 * i, fast if i < 10 else slow) for i in range(20)]
    assert speed.reference_s(samples, 0.0, 0.9) == pytest.approx(0.9)
    assert speed.reference_s(samples, 1.0, 1.9) == pytest.approx(0.45)
    # nine samples at full speed, nine at half speed
    assert speed.reference_s(samples, 0.05, 1.85) == pytest.approx(
        1.8 * 0.75)
    # a span between two samples takes the nearest one
    assert speed.reference_s(samples, 1.51, 1.52) == pytest.approx(0.005)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", BENCHMARK["workloads"][0]["name"], "--seed",
                "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
