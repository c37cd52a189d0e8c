"""Tests of the calibration-data container."""

import pytest

from repro.core import CalibrationData
from repro.noise import paper_noise


def test_from_noise_copies_rates():
    noise = paper_noise()
    calibration = CalibrationData.from_noise(noise)
    assert calibration.gate_error == noise.p
    assert calibration.leakage_rate == noise.p_leak
    assert calibration.leakage_mobility == noise.leakage_mobility
    assert calibration.mlr_error == noise.mlr_error


def test_with_replaces_fields():
    calibration = CalibrationData.from_noise(paper_noise())
    updated = calibration.with_(leakage_rate=5e-4)
    assert updated.leakage_rate == 5e-4
    assert updated.gate_error == calibration.gate_error


def test_drifted_stays_within_bounds():
    calibration = CalibrationData.from_noise(paper_noise())
    drifted = calibration.drifted(factor=2.0, seed=1)
    assert drifted != calibration
    for name in ("gate_error", "measurement_error", "reset_error", "data_error", "leakage_rate"):
        original = getattr(calibration, name)
        moved = getattr(drifted, name)
        assert original / 2.01 <= moved <= original * 2.01


def test_drifted_rejects_shrinking_factor():
    with pytest.raises(ValueError):
        CalibrationData.from_noise(paper_noise()).drifted(factor=0.5)


def test_probability_validation():
    with pytest.raises(ValueError):
        CalibrationData(
            gate_error=1.5,
            measurement_error=0.0,
            reset_error=0.0,
            data_error=0.0,
            leakage_rate=0.0,
        )


def test_describe_mentions_rates():
    text = CalibrationData.from_noise(paper_noise()).describe()
    assert "gate=" in text and "leak=" in text
