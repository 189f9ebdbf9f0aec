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
