"""Tests of the code factory and workload scaling."""

import pytest

from repro.experiments import current_scale, make_code
from repro.experiments.runner import ScaleConfig


def test_make_code_families():
    assert make_code("surface", 5).name == "surface_d5"
    assert make_code("color", 5).name == "color_d5"
    assert make_code("hgp").metadata["family"] == "hgp"
    assert make_code("bpc").metadata["family"] == "bpc"
    with pytest.raises(ValueError):
        make_code("steane")


def test_scale_config_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    scale = current_scale()
    assert scale.name == "smoke"
    assert scale.shots(1000) < 1000
    monkeypatch.setenv("REPRO_SCALE", "paper")
    assert current_scale().shots(1000) > 1000
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        current_scale()


def test_scale_config_floors():
    scale = ScaleConfig(name="tiny", shot_multiplier=0.001, round_multiplier=0.001, decoded_shot_multiplier=0.001)
    assert scale.shots(100) >= 10
    assert scale.rounds(100) >= 5
    assert scale.decoded_shots(100) >= 10
