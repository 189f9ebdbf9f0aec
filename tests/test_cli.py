import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest

import polmon
from polmon.cli import main
from polmon.pipeline import RunConfig


@pytest.mark.parametrize("command,expected", [
    ("filter", "filtered.jsonl"),
    ("stance", "stance.csv"),
    ("stats", "stats_daily.csv"),
    ("polarize", "pi_series.csv"),
    ("influencers", "influencers.csv"),
    ("communities", "communities.csv"),
    ("ablate", "ablation.csv"),
    ("sweep", "sweep.csv"),
])
def test_subcommands_write_their_file(command, expected, fixture_paths,
                                      tmp_path, capsys):
    rc = main([command, "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / expected).exists()
    assert "wrote" in capsys.readouterr().out


def test_graph_subcommand(fixture_paths, tmp_path):
    rc = main(["graph", "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    files = list((tmp_path / "out").glob("graph_*.graphml"))
    assert len(files) == 1


def test_run_all_subcommand(fixture_paths, tmp_path, capsys):
    rc = main(["run-all", "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 10
    assert (tmp_path / "out" / "summary.html").exists()


def test_date_clamp_flags(fixture_paths, tmp_path):
    rc = main(["polarize", "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out"),
               "--from", "2022-08-05", "--to", "2022-08-06"])
    assert rc == 0
    rows = (tmp_path / "out" / "pi_series.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["2022-08-05", "2022-08-06"]


def test_threshold_override_changes_stance(fixture_paths, tmp_path):
    main(["stance", "--config", str(fixture_paths["config"]),
          "--out", str(tmp_path / "a")])
    main(["stance", "--config", str(fixture_paths["config"]),
          "--out", str(tmp_path / "b"), "--threshold", "0.9"])
    a = (tmp_path / "a" / "stance.csv").read_text()
    b = (tmp_path / "b" / "stance.csv").read_text()
    assert a != b
    assert ",0.9" in b


def test_k_override(fixture_paths, tmp_path):
    rc = main(["influencers", "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out"), "--k", "3"])
    assert rc == 0
    rows = (tmp_path / "out" / "influencers.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3


def test_missing_input_reports_stage(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "tweets": "none.jsonl", "annotations": "none.csv",
        "follows": "none.csv"}), encoding="utf-8")
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert "[filter]" in err


def test_missing_config_file_clean_error(tmp_path, capsys):
    rc = main(["stats", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "cannot load config" in capsys.readouterr().err


def test_bad_bool_flag_rejected(fixture_paths):
    with pytest.raises(SystemExit):
        main(["ablate", "--config", str(fixture_paths["config"]),
              "--drop-isolated", "perhaps"])


@pytest.mark.parametrize("key", ["drop_isolated", "include_isolated",
                                 "schema_strict", "ablate_both_variants"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_bool_must_be_json_bool(key, value, fixture_paths, tmp_path,
                                       capsys):
    raw = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
    raw[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load config" in err
    assert key in err
    assert not (tmp_path / "out").exists()


def test_config_bool_accepts_json_false(fixture_paths, tmp_path):
    raw = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
    raw.update(drop_isolated=False, include_isolated=False,
               schema_strict=True, ablate_both_variants=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    loaded = RunConfig.from_file(config)
    assert (loaded.drop_isolated, loaded.include_isolated,
            loaded.schema_strict, loaded.ablate_both_variants) == (
        False, False, True, True)


def _load_with(fixture_paths, tmp_path, **changes):
    raw = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
    raw.update(changes)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    return config


def _assert_rejected_in_code(fixture_paths, key, value):
    # a config built in code meets the range rules that from_file applies
    loaded = RunConfig.from_file(fixture_paths["config"])
    with pytest.raises(ValueError, match=f"^{key!r} must"):
        replace(loaded, **{key: value})
    with pytest.raises(ValueError, match=f"^{key!r} must"):
        RunConfig(**dict(vars(loaded), **{key: value}))


@pytest.mark.parametrize("key,value", [
    ("k", 2.9), ("k", True), ("k", "500"), ("k", None),
    ("top_k", 5.0), ("top_k", False),
    ("threshold", "0.5"), ("threshold", True), ("threshold", None),
    ("tol", False), ("tol", [1e-10]),
    ("sweep_thresholds", "05"), ("sweep_thresholds", [0.0, "0.5"]),
    ("sweep_thresholds", [True]), ("sweep_thresholds", 0.5),
    ("tweets", 7), ("stopwords", ["a"]), ("date_from", 20220801),
])
def test_config_value_must_have_field_type(key, value, fixture_paths,
                                           tmp_path, capsys):
    config = _load_with(fixture_paths, tmp_path, **{key: value})
    with pytest.raises(ValueError, match=repr(key)):
        RunConfig.from_file(config)
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load config" in err
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", [0, 0.0, -1.0, float("nan"), float("inf")])
def test_config_tol_must_be_positive_and_finite(tol, fixture_paths, tmp_path,
                                                capsys):
    # no solve can meet a tol of 0: each would run its whole iteration budget
    config = _load_with(fixture_paths, tmp_path, tol=tol)
    with pytest.raises(ValueError, match="'tol' must be a positive finite"):
        RunConfig.from_file(config)
    _assert_rejected_in_code(fixture_paths, "tol", tol)
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "'tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_range_rules_hold_on_assignment(fixture_paths):
    # an unchecked config.tol = 0.0 made every pi_series.csv and sweep.csv
    # row a gap
    config = RunConfig.from_file(fixture_paths["config"])
    for key, value in (("tol", 0.0), ("top_k", 0), ("k", -1),
                       ("threshold", 1.5), ("sweep_thresholds", (0.5, 2.0))):
        with pytest.raises(ValueError, match=f"^{key!r} must"):
            setattr(config, key, value)
    assert config == RunConfig.from_file(fixture_paths["config"])
    config.k = 500
    assert config.k == 500


def test_stopwords_that_are_not_utf8_name_path_and_line(fixture_paths,
                                                        tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_bytes("είναι\n".encode("utf-8") + b"caf\xe9\n")
    config = _load_with(fixture_paths, tmp_path, stopwords=str(stop), **{
        key: str(fixture_paths[key])
        for key in ("tweets", "annotations", "follows")})
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: [stopwords] {stop.resolve()}:2: not UTF-8 text\n")


def test_config_unknown_key_rejected(fixture_paths, tmp_path, capsys):
    config = _load_with(fixture_paths, tmp_path, treshold=0.7)
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load config" in err
    assert "'treshold'" in err


def test_config_loads_every_key(fixture_paths, tmp_path):
    # one value per RunConfig field, so every field type's JSON form is read
    config = _load_with(
        fixture_paths, tmp_path, out_dir="o", rules="r.json", threshold=0.5,
        sweep_thresholds=[0.1, 1], k=3, drop_isolated=False,
        include_isolated=False, tol=1e-8, top_k=2, stopwords="s.txt",
        date_from="2022-08-01", date_to="2022-08-03", schema_strict=True,
        ablate_both_variants=True)
    base = tmp_path.resolve()
    assert vars(RunConfig.from_file(config)) == {
        "tweets": base / "fixture_tweets.jsonl",
        "annotations": base / "fixture_annotations.csv",
        "follows": base / "fixture_follows.csv", "out_dir": base / "o",
        "rules": base / "r.json", "threshold": 0.5,
        "sweep_thresholds": (0.1, 1), "k": 3, "drop_isolated": False,
        "include_isolated": False, "tol": 1e-8, "top_k": 2,
        "stopwords": base / "s.txt", "date_from": date(2022, 8, 1),
        "date_to": date(2022, 8, 3), "schema_strict": True,
        "ablate_both_variants": True}


def test_config_retired_keys_ignored(fixture_paths, tmp_path):
    config = _load_with(fixture_paths, tmp_path, workers=1, solver="direct")
    loaded = RunConfig.from_file(config)
    assert "workers" not in vars(loaded) and "solver" not in vars(loaded)


def test_config_default_out_dir_beside_relative_config(fixture_paths,
                                                       tmp_path, monkeypatch):
    # a config named by a relative path, with no out_dir key, puts the
    # bundle in "out" beside the file, not under a second copy of its path
    raw = json.loads(fixture_paths["config"].read_text(encoding="utf-8"))
    raw.pop("out_dir", None)
    raw.update({key: str(fixture_paths[key])
                for key in ("tweets", "annotations", "follows")})
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "x.json").write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = RunConfig.from_file(Path("configs") / "x.json")
    assert config.out_dir == (config_dir / "out").resolve()


def test_config_numbers_accept_json_ints(fixture_paths, tmp_path):
    config = _load_with(fixture_paths, tmp_path, threshold=0, tol=1,
                        sweep_thresholds=[0, 0.5], k=3, top_k=2)
    loaded = RunConfig.from_file(config)
    assert (loaded.threshold, loaded.tol, loaded.k, loaded.top_k) == (
        0.0, 1.0, 3, 2)
    assert type(loaded.threshold) is float
    assert loaded.sweep_thresholds == (0, 0.5)


@pytest.mark.parametrize("key,value", [("k", -5), ("k", -1), ("top_k", -3),
                                       ("top_k", 0)])
def test_config_rejects_out_of_range_counts(key, value, fixture_paths,
                                            tmp_path, capsys):
    config = _load_with(fixture_paths, tmp_path, **{key: value})
    with pytest.raises(ValueError, match=f"^{key!r} must be at least"):
        RunConfig.from_file(config)
    _assert_rejected_in_code(fixture_paths, key, value)
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("threshold", -0.1), ("threshold", 1.5), ("threshold", float("nan")),
    ("sweep_thresholds", [0.0, 2.0]), ("sweep_thresholds", [-0.5]),
    ("date_from", "2022-13-01"), ("date_to", "2022-02-30"),
])
def test_config_rejects_out_of_range_values(key, value, fixture_paths,
                                            tmp_path, capsys):
    # checked at load: a bad sweep threshold used to fail only at [sweep],
    # after five bundle files were written
    config = _load_with(fixture_paths, tmp_path, **{key: value})
    with pytest.raises(ValueError, match=f"^{key!r} must"):
        RunConfig.from_file(config)
    if not key.startswith("date_"):  # an ISO date is read from JSON only
        _assert_rejected_in_code(fixture_paths, key, value)
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["tweets", "annotations", "follows"])
def test_config_missing_input_path_named_at_load(key, fixture_paths,
                                                 tmp_path, capsys):
    # an input path has no default: null, "" or no key fails at load
    for value in (None, ""):
        config = _load_with(fixture_paths, tmp_path, **{key: value})
        with pytest.raises(ValueError, match=f"^missing config key {key!r}$"):
            RunConfig.from_file(config)
    raw = json.loads(config.read_text(encoding="utf-8"))
    del raw[key]
    config.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"cannot load config: missing config key {key!r}" in (
        capsys.readouterr().err)


def test_config_thresholds_at_the_ends_load(fixture_paths, tmp_path):
    config = _load_with(fixture_paths, tmp_path, threshold=1,
                        sweep_thresholds=[0, 1.0])
    loaded = RunConfig.from_file(config)
    assert (loaded.threshold, loaded.sweep_thresholds) == (1.0, (0, 1.0))


@pytest.mark.parametrize("raw", ["-0.1", "1.5", "nan", "x"])
def test_threshold_flag_rejects_bad_value_when_parsing(raw, fixture_paths,
                                                       tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stance", "--config", str(fixture_paths["config"]),
              "--out", str(tmp_path / "out"), "--threshold", raw])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_k_zero_loads(fixture_paths, tmp_path):
    config = _load_with(fixture_paths, tmp_path, k=0, top_k=1)
    loaded = RunConfig.from_file(config)
    assert (loaded.k, loaded.top_k) == (0, 1)


@pytest.mark.parametrize("raw", ["-1", "-500", "x", "2.5"])
def test_k_flag_rejects_bad_value_when_parsing(raw, fixture_paths, tmp_path,
                                               capsys):
    with pytest.raises(SystemExit) as exc:
        main(["influencers", "--config", str(fixture_paths["config"]),
              "--out", str(tmp_path / "out"), "--k", raw])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["polarize", "stance", "run-all"])
@pytest.mark.parametrize("dates,lo,hi", [
    (["--from", "2022-08-10", "--to", "2022-08-01"], "2022-08-10",
     "2022-08-01"),
    (["--from", "2030-01-01"], "2030-01-01", "2023-01-14"),
])
def test_empty_study_window_is_an_error(command, dates, lo, hi,
                                        fixture_paths, tmp_path, capsys):
    rc = main([command, "--config", str(fixture_paths["config"]),
               "--out", str(tmp_path / "out"), *dates])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[rules] empty study window" in err
    assert lo in err and hi in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,stage", [
    ("filter", "filtered"), ("graph", "graphml"), ("stance", "stance"),
    ("stats", "stats"), ("polarize", "pi_series"),
    ("influencers", "influencers"), ("communities", "communities"),
    ("ablate", "ablation"), ("sweep", "sweep"), ("run-all", "stats"),
])
def test_write_fault_names_its_stage(command, stage, fixture_paths, tmp_path,
                                     capsys):
    # --out lies below a regular file, so no writer can make it
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    rc = main([command, "--config", str(fixture_paths["config"]),
               "--out", str(blocker / "x")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: [{stage}] ")
    assert "Traceback" not in captured.err
    assert "wrote" not in captured.out


def _child_env(**changes) -> dict[str, str]:
    """This environment with changes, and this checkout's src first on
    PYTHONPATH."""
    env = dict(os.environ, **changes)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(polmon.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


_HASH_SEED_RUN = """
import sys
from polmon.cli import main
config, out = sys.argv[1:]
for command in ("run-all", "filter"):
    assert main([command, "--config", config, "--out", out]) == 0
"""


def test_bundle_does_not_depend_on_the_hash_seed(fixture_paths, tmp_path):
    # each run is a fresh interpreter with its own string hash seed, into
    # the same output path, so the manifest's out_dir is the same too
    out = tmp_path / "out"
    files = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN,
             str(fixture_paths["config"]), str(out)],
            env=_child_env(PYTHONHASHSEED=seed), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        for p in out.iterdir():
            p.unlink()
    assert len(files[0]) == 12  # the bundle, filtered.jsonl, filter_report
    assert files[0] == files[1]


_DONE = re.compile(r"DEBUG polmon\.pipeline: stage (\w+): done in [\d.]+ s, "
                   r"self ([\d.]+) s, ([\d.]+) MB resident, ([\d.]+) MB peak")
_TOTAL = re.compile(r"DEBUG polmon\.pipeline: run_all: done in ([\d.]+) s, "
                    r"([\d.]+) MB peak")


def test_verbose_run_all_reports_each_stage_and_writer(fixture_paths,
                                                       tmp_path):
    # a fresh interpreter, so that -v sets the level of the root logger
    proc = subprocess.run(
        [sys.executable, "-m", "polmon.cli", "run-all", "--config",
         str(fixture_paths["config"]), "--out", str(tmp_path / "out"), "-v"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith("DEBUG polmon.pipeline: ")]
    rows = [m.groups() for m in map(_DONE.fullmatch, lines) if m]
    total_s, total_peak = map(float, _TOTAL.fullmatch(lines[-1]).groups())
    # each stage once, in the order run_all first needs it, each writer
    # after the stages it reads, and the whole run last
    assert [name for name, *_ in rows] == [
        "rules", "filter", "stopwords", "content", "stats", "write_stats",
        "annotations", "follows", "stance", "write_stance", "daily",
        "polarize", "write_pi_series", "graph", "influencers",
        "write_influencers", "ablate", "write_ablation", "sweep",
        "write_sweep", "communities", "write_communities", "write_graphml",
        "shares", "write_summary", "write_manifest"]
    self_s = [float(s) for _, s, _, _ in rows]
    peaks = [float(p) for *_, p in rows] + [total_peak]
    # each time is printed to the millisecond, so each is off by 0.0005
    assert min(self_s) >= 0
    assert sum(self_s) <= total_s + 0.0005 * (len(rows) + 1)
    assert peaks == sorted(peaks) and min(float(r) for *_, r, _ in rows) > 0
    assert {"summary.html", "run_manifest.json"} <= {
        p.name for p in (tmp_path / "out").iterdir()}


def test_stats_command_writes_the_run_all_stats(fixture_paths, tmp_path):
    # stats reads no words, and its rows are still run-all's, byte for byte
    for command in ("stats", "run-all"):
        assert main([command, "--config", str(fixture_paths["config"]),
                     "--out", str(tmp_path / command)]) == 0
    assert (tmp_path / "stats" / "stats_daily.csv").read_bytes() == (
        tmp_path / "run-all" / "stats_daily.csv").read_bytes()


def test_config_must_be_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    rc = main(["stats", "--config", str(config)])
    assert rc == 1
    assert "cannot load config" in capsys.readouterr().err


_RUN_ALL_IN_CHILD = """
import json, sys
import numpy
numpy_ma_on_import = "numpy.ma" in sys.modules
import polmon.cli, polmon.corpus, polmon.graphkit, polmon.pipeline
import polmon.polarization, polmon.report, polmon.stance, polmon.structure

rc = polmon.cli.main(["run-all", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "scipy_loaded": "scipy" in sys.modules,
                  "numpy_ma_on_import": numpy_ma_on_import,
                  "numpy_ma_loaded": "numpy.ma" in sys.modules}))
"""


def _run_all_in_child(fixture_paths, out: Path) -> dict:
    """run-all on the fixture in a fresh interpreter: its return code, and
    which of scipy and numpy.ma it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ALL_IN_CHILD,
         str(fixture_paths["config"]), str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_run_all_does_not_load_scipy(fixture_paths, tmp_path):
    # the package needs numpy alone; scipy is a test dependency
    result = _run_all_in_child(fixture_paths, tmp_path / "out")
    assert result["rc"] == 0
    assert (tmp_path / "out" / "run_manifest.json").exists()
    assert not result["scipy_loaded"]


def test_run_all_does_not_load_numpy_ma(fixture_paths, tmp_path):
    # np.unique without return_* flags imports numpy.ma on first use
    result = _run_all_in_child(fixture_paths, tmp_path / "out")
    if result["numpy_ma_on_import"]:
        pytest.skip("this numpy loads numpy.ma on import")
    assert result["rc"] == 0
    assert not result["numpy_ma_loaded"]
