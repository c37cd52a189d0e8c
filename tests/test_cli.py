"""Tests of the unified `python -m repro` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.api import ExperimentConfig

SMALL_EXECUTION = {"shots": 10, "rounds": 4, "seed": 3}


@pytest.fixture()
def config_file(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "name": "cli-test",
            "code": {"name": "surface", "distance": 3},
            "noise": {"p": 2e-3, "leakage_ratio": 1.0},
            "execution": SMALL_EXECUTION,
        }
    )
    return str(config.save(tmp_path / "experiment.json"))


# --------------------------------------------------------------------- #
# list
# --------------------------------------------------------------------- #
def test_list_prints_every_registry_section(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for fragment in ("code families", "decoder methods", "policies",
                     "noise presets", "sweep presets", "surface",
                     "union_find", "gladiator+m", "smoke"):
        assert fragment in out


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"codes", "decoders", "policies", "noise", "sweeps"}
    assert "surface" in payload["codes"]
    assert payload["decoders"]["matching"]["aliases"] == ["mwpm"]


# --------------------------------------------------------------------- #
# run
# --------------------------------------------------------------------- #
def test_run_from_config_file_with_overrides(capsys, config_file, tmp_path):
    out_path = tmp_path / "row.json"
    code = main(
        [
            "run",
            "--config", config_file,
            "--set", "decoder.name=union_find",
            "--set", "execution.shots=8",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-test" in out
    assert out_path.exists()
    (record,) = json.loads(out_path.read_text())
    assert record["parameters"]["decoder"]["name"] == "union_find"
    assert record["metrics"]["shots"] == 8


def test_run_rejects_unknown_component_with_suggestion(capsys, config_file):
    assert main(["run", "--config", config_file, "--set", "decoder.name=union_fnd"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'union_find'" in err


def test_run_rejects_unknown_override_path(capsys, config_file):
    assert main(["run", "--config", config_file, "--set", "decoder.nmae=matching"]) == 2
    assert "did you mean" in capsys.readouterr().err


def test_run_windowed_realtime_path_from_same_config(capsys, config_file):
    assert main(
        ["run", "--config", config_file, "--set", "execution.window_rounds=4"]
    ) == 0


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #
def test_sweep_named_preset(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    out_path = tmp_path / "sweep.json"
    assert main(["sweep", "smoke", "--no-cache", "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert "rows" in capsys.readouterr().out


def test_sweep_config_grid_with_axes(capsys, config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out_path = tmp_path / "grid.json"
    code = main(
        [
            "sweep",
            "--config", config_file,
            "--axis", "code.distance=3,5",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    records = json.loads(out_path.read_text())
    assert len(records) == 2
    assert [r["metrics"]["distance"] for r in records] == [3, 5]


def test_sweep_rejects_preset_plus_config(capsys, config_file):
    assert main(["sweep", "smoke", "--config", config_file]) == 2


def test_sweep_config_grid_caches_by_default_and_honours_no_cache(
    capsys, config_file, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["sweep", "--config", config_file, "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    assert "1 computed, 0 cached" in capsys.readouterr().out
    assert main(argv) == 0  # re-run hits the on-disk cache
    assert "0 computed, 1 cached" in capsys.readouterr().out
    assert main(argv + ["--no-cache"]) == 0  # --no-cache forces recompute
    assert "1 computed, 0 cached" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# realtime
# --------------------------------------------------------------------- #
def test_realtime_streams_from_config(capsys, config_file, tmp_path):
    out_path = tmp_path / "streams.json"
    code = main(
        [
            "realtime",
            "--config", config_file,
            "--set", "execution.window_rounds=4",
            "--set", "execution.shots=4",
            "--streams", "2",
            "--workers", "2",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    assert len(json.loads(out_path.read_text())) == 2


def test_realtime_requires_window(capsys, config_file):
    assert main(["realtime", "--config", config_file]) == 2
    assert "window_rounds" in capsys.readouterr().err


def test_realtime_rejects_non_positive_streams(capsys, config_file):
    assert main(["realtime", "--config", config_file, "--streams", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "list" in capsys.readouterr().out
