import json
import os
import subprocess
import sys
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
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "'tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_unknown_key_rejected(fixture_paths, tmp_path, capsys):
    config = _load_with(fixture_paths, tmp_path, treshold=0.7)
    rc = main(["stats", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load config" in err
    assert "'treshold'" in err


def test_config_retired_keys_ignored(fixture_paths, tmp_path):
    config = _load_with(fixture_paths, tmp_path, workers=1, solver="direct")
    loaded = RunConfig.from_file(config)
    assert "workers" not in vars(loaded) and "solver" not in vars(loaded)


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
    rc = main(["run-all", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    src = str(Path(polmon.__file__).resolve().parents[1])
    out = tmp_path / "out"
    files = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN,
             str(fixture_paths["config"]), str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        for p in out.iterdir():
            p.unlink()
    assert len(files[0]) == 12  # the bundle, filtered.jsonl, filter_report
    assert files[0] == files[1]


def test_config_must_be_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    rc = main(["stats", "--config", str(config)])
    assert rc == 1
    assert "cannot load config" in capsys.readouterr().err


_RUN_WITHOUT_SCIPY = """
import json, sys
import polmon.cli, polmon.corpus, polmon.graphkit, polmon.pipeline
import polmon.polarization, polmon.report, polmon.stance, polmon.structure

rc = polmon.cli.main(["run-all", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "scipy_loaded": "scipy" in sys.modules}))
"""


def test_run_all_does_not_load_scipy(fixture_paths, tmp_path):
    # the package needs numpy alone; scipy is a test dependency
    src = str(Path(polmon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY,
         str(fixture_paths["config"]), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert (tmp_path / "out" / "run_manifest.json").exists()
    assert not result["scipy_loaded"]
