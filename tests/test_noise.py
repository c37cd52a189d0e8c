"""Tests of the noise-model parameter container."""

import pytest

from repro.noise import NoiseParams, ideal_noise, paper_noise


def test_paper_defaults():
    noise = paper_noise()
    assert noise.p == pytest.approx(1e-3)
    assert noise.leakage_ratio == pytest.approx(0.1)
    assert noise.p_leak == pytest.approx(1e-4)
    assert noise.mlr_error == pytest.approx(1e-2)


def test_ideal_noise_is_noiseless():
    noise = ideal_noise()
    assert noise.p == 0
    assert noise.p_leak == 0
    assert noise.mlr_error == 0


def test_with_replaces_fields():
    noise = paper_noise().with_(leakage_ratio=1.0, leakage_mobility=0.05)
    assert noise.leakage_ratio == 1.0
    assert noise.leakage_mobility == 0.05
    assert noise.p == pytest.approx(1e-3)


def test_mlr_error_is_capped():
    noise = NoiseParams(p=0.1, mlr_error_factor=10.0)
    assert noise.mlr_error == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": -1e-3},
        {"p": 0.6},
        {"leakage_mobility": 1.5},
        {"gate_error_factor": -1.0},
        {"ancilla_reset_removes_leakage": 2.0},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        NoiseParams(**kwargs)


def test_describe_mentions_key_rates():
    text = paper_noise().describe()
    assert "p=0.001" in text
    assert "lr=0.1" in text
