import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def test_benchmark_tracer_finds_every_hook():
    # perfbench's tracer wraps the layer entry points, Runner stages and
    # writers by name, and one it cannot find would read 0 s in every run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json; from tracer import Tracer; "
         "print(json.dumps(Tracer().install()))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
