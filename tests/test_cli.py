import json

import pytest

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
