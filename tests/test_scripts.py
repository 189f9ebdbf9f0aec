import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _digests(config, out) -> list[tuple[str, str]]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bundle_digests.py"), str(config),
         str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [tuple(line.split("  ")) for line in proc.stdout.splitlines()]


def test_bundle_digests_on_fixture(fixture_paths, tmp_path):
    first = _digests(fixture_paths["config"], tmp_path / "a")
    names = [name for _, name in first]
    assert names == sorted(p.name for p in (tmp_path / "a").iterdir())
    assert {"filtered.jsonl", "filter_report.json", "run_manifest.json",
            "summary.html", "communities.csv"} <= set(names)
    for digest, name in first:
        data = (tmp_path / "a" / name).read_bytes()
        if name == "run_manifest.json":
            assert str(tmp_path / "a").encode() in data
        else:
            assert digest == hashlib.sha256(data).hexdigest()
    # only the manifest's out_dir differs between the two directories
    assert _digests(fixture_paths["config"], tmp_path / "b") == first


def test_stage_profile_on_fixture(fixture_paths, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "stage_profile.py"),
         str(fixture_paths["config"]), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["stage", "self_s", "rss_mb", "peak_mb"]
    rows = [(name, *map(float, rest))
            for name, *rest in map(str.split, lines)]
    # each stage once, in the order run_all first needs it, each writer
    # after the stages it reads, and the whole run last
    assert [name for name, *_ in rows] == [
        "import", "rules", "filter", "stopwords", "stats", "write_stats",
        "annotations", "follows", "stance", "write_stance", "daily",
        "polarize", "write_pi_series", "graph", "influencers",
        "write_influencers", "ablate", "write_ablation", "sweep",
        "write_sweep", "communities", "write_communities", "write_graphml",
        "shares", "write_summary", "write_manifest", "total"]
    self_s = [s for _, s, _, _ in rows]
    peaks = [p for *_, p in rows]
    # each time is printed to the millisecond, so each is off by 0.0005;
    # the import comes before the run that total times
    assert min(self_s) >= 0
    assert sum(self_s[1:-1]) <= self_s[-1] + 0.0005 * len(rows)
    assert peaks == sorted(peaks) and min(r for _, _, r, _ in rows) > 0
    assert {"summary.html", "run_manifest.json"} <= {
        p.name for p in (tmp_path / "out").iterdir()}
