"""Session facade tests: one config drives every path, bit-identically.

The acceptance bar of the api redesign: a single ``ExperimentConfig`` JSON
must drive an offline run, a windowed realtime run and a sweep grid point,
each producing results bit-identical (same seeds) to the pre-redesign
construction path (direct ``MemoryExperiment`` / ``WorkUnit`` construction).
"""

import numpy as np
import pytest

from repro import ExperimentConfig, MemoryExperiment, Session, make_code, make_policy
from repro.api.session import build_noise
from repro.noise import paper_noise
from repro.sweeps import SweepSpec
from repro.sweeps.executor import SweepExecutor
from repro.sweeps.units import WorkUnit, canonical_config, run_unit_serial, unit_key

SHOTS = 30
ROUNDS = 6

#: A leakage-heavy point so failures actually occur at these tiny budgets.
BASE_CONFIG = {
    "name": "identity-check",
    "code": {"name": "surface", "distance": 3},
    "noise": {"preset": "paper", "p": 3e-3, "leakage_ratio": 1.0},
    "policy": {"name": "gladiator+m"},
    "decoder": {"name": "matching"},
    "execution": {"shots": SHOTS, "rounds": ROUNDS, "seed": 11},
}


def _config(**section_overrides) -> ExperimentConfig:
    data = {key: dict(value) if isinstance(value, dict) else value
            for key, value in BASE_CONFIG.items()}
    for section, fields in section_overrides.items():
        data.setdefault(section, {}).update(fields)
    return ExperimentConfig.from_dict(data)


def _legacy_experiment(config: ExperimentConfig) -> MemoryExperiment:
    """The pre-redesign construction path, spelled out field by field."""
    return MemoryExperiment(
        code=make_code(config.code.name, config.code.distance),
        noise=paper_noise(p=config.noise.p, leakage_ratio=config.noise.leakage_ratio),
        policy=make_policy(config.policy.name),
        decoder_method=config.decoder.name,
        leakage_sampling=False,
        seed=config.execution.seed,
        window_rounds=config.execution.window_rounds,
        commit_rounds=config.execution.commit_rounds,
    )


def _assert_same_result(lhs, rhs):
    assert lhs.failures == rhs.failures
    assert lhs.shots == rhs.shots and lhs.rounds == rhs.rounds
    assert np.array_equal(lhs.dlp_per_round, rhs.dlp_per_round)
    assert lhs.total_leakage_events == rhs.total_leakage_events
    assert lhs.summary() == rhs.summary()


@pytest.mark.parametrize("family, distance", [("surface", 3), ("color", 3)])
@pytest.mark.parametrize("decoder", ["matching", "union_find"])
def test_session_run_matches_direct_memory_experiment(family, distance, decoder):
    config = _config(code={"name": family, "distance": distance},
                     decoder={"name": decoder})
    via_session = Session.from_config(config).run()
    direct = _legacy_experiment(config).run(shots=SHOTS, rounds=ROUNDS)
    _assert_same_result(via_session, direct)


@pytest.mark.parametrize("decoder", ["matching", "union_find"])
def test_windowed_realtime_run_from_the_same_config(decoder):
    """Adding window_rounds to the *same* config routes through the realtime
    path and still matches the pre-redesign windowed construction."""
    config = _config(decoder={"name": decoder},
                     execution={"window_rounds": 4, "commit_rounds": 2})
    via_session = Session.from_config(config).run()
    direct = _legacy_experiment(config).run(shots=SHOTS, rounds=ROUNDS)
    _assert_same_result(via_session, direct)


def test_window_covering_all_rounds_matches_offline_decode():
    offline = Session.from_config(_config()).run()
    windowed = Session.from_config(
        _config(execution={"window_rounds": ROUNDS})
    ).run()
    assert windowed.failures == offline.failures


def test_sweep_grid_point_matches_spec_unit():
    """A Session sweep point and the same SweepSpec grid point are one job."""
    session = Session.from_config(_config())
    spec = SweepSpec(
        name="identity-check",
        distances=(3,),
        error_rates=(3e-3,),
        leakage_ratios=(1.0,),
        policies=("gladiator+m",),
        shots=SHOTS,
        rounds=ROUNDS,
        decoded=True,
        seed=11,
    )
    (unit,) = session.work_units()
    (spec_unit,) = spec.units()
    assert unit.config == spec_unit.config
    assert unit_key(unit) == unit_key(spec_unit)
    (row,) = session.sweep(executor=SweepExecutor(workers=1, cache=None))
    assert run_unit_serial(spec_unit) == {**row, **dict(spec_unit.labels)}


def test_sweep_axes_label_rows_and_match_serial_runs():
    config = _config()
    session = Session.from_config(config)
    rows = session.sweep(
        axes={"code.distance": [3, 5], "policy.name": ["eraser+m", "gladiator+m"]},
        executor=SweepExecutor(workers=1, cache=None),
    )
    assert len(rows) == 4
    assert [(row["distance"], row["policy_name"]) for row in rows] == [
        (3, "eraser+m"), (3, "gladiator+m"), (5, "eraser+m"), (5, "gladiator+m")
    ]
    # each grid point equals a direct serial run of its own config
    point = _config(code={"distance": 5}, policy={"name": "eraser+m"})
    (unit,) = Session.from_config(point).work_units()
    direct = run_unit_serial(unit)
    matching = [
        r for r in rows if r["distance"] == 5 and r["policy_name"] == "eraser+m"
    ]
    assert matching[0]["ler"] == direct["ler"]


def test_one_config_file_drives_all_three_paths(tmp_path):
    """The acceptance criterion, end to end from a JSON file on disk."""
    path = _config().save(tmp_path / "experiment.json")
    session = Session.from_file(path)

    offline = session.run()
    direct = _legacy_experiment(ExperimentConfig.load(path)).run(
        shots=SHOTS, rounds=ROUNDS
    )
    _assert_same_result(offline, direct)

    windowed_session = Session.from_config(
        ExperimentConfig.load(path).override("execution.window_rounds", ROUNDS)
    )
    assert windowed_session.run().failures == offline.failures

    rows = session.sweep(executor=SweepExecutor(workers=1, cache=None))
    assert rows[0]["ler"] == offline.logical_error_rate


def test_undecoded_config_runs_the_bare_simulator():
    from repro.sim import RunResult

    config = _config(execution={"decoded": False})
    result = Session.from_config(config).run()
    assert isinstance(result, RunResult)
    # undecoded path defaults leakage_sampling on (legacy convention)
    assert config.execution.effective_leakage_sampling is True
    assert result.summary()["policy"] == "gladiator+M"


def test_session_stream_decodes_concurrent_streams():
    config = _config(execution={"window_rounds": 4, "shots": 5, "rounds": 8})
    reports = Session.from_config(config).stream(streams=2, workers=2)
    assert len(reports) == 2
    for report in reports:
        assert report.shots == 5
        assert report.failures is not None


def test_session_stream_requires_window():
    with pytest.raises(ValueError, match="window_rounds"):
        Session.from_config(_config()).stream(streams=1)


@pytest.mark.parametrize(
    "sections",
    [
        {"code": {"name": "Color"}, "decoder": {"name": "union-find"},
         "execution": {"decode_batch_size": 8, "workers": 2}},
        {"policy": {"options": {"threshold": 0.1}},
         "decoder": {"name": "union_find"},
         "execution": {"decoded": False, "telemetry": "1"}},
        {"noise": {"preset": "drift", "overrides": {"leakage_mobility": 0.2}},
         "execution": {"window_rounds": 4, "commit_rounds": 2}},
    ],
    ids=["aliases", "undecoded-options", "time-structured"],
)
def test_canonical_config_is_idempotent_and_preserves_the_key(sections):
    """Canonicalising twice changes nothing (construction routes can never
    fork the cache), and the canonical config still runs the same job."""
    config = _config(**sections)
    canonical = canonical_config(config)
    assert canonical_config(canonical) == canonical
    assert unit_key(WorkUnit(canonical_config(canonical))) == unit_key(WorkUnit(canonical))
    assert canonical.validate() is canonical
    assert build_noise(canonical) == build_noise(config)


def test_memory_experiment_from_config_matches_direct_construction():
    config = _config()
    from_config = MemoryExperiment.from_config(config)
    direct = _legacy_experiment(config)
    assert from_config.run(5, 4).summary() == direct.run(5, 4).summary()


@pytest.mark.parametrize(
    "options, fragment",
    [
        ({"gate_error_factor": -3, "isolated_flip_factor": -1}, "gate_error_factor"),
        ({"isolated_flip_factor": -1}, "isolated_flip_factor"),
        ({"gate_error_factor": float("nan")}, "gate_error_factor"),
        ({"isolated_flip_factor": float("inf")}, "isolated_flip_factor"),
        ({"threshold": float("inf")}, "threshold"),
        ({"threshold_two_round": float("nan")}, "threshold_two_round"),
        ({"persistence_rounds": float("inf")}, "persistence_rounds"),
        ({"gate_error_factor": "0.5"}, "gate_error_factor"),
    ],
)
def test_session_rejects_invalid_graph_model_options(options, fragment):
    # A negative factor would price W_NL below zero and flag most patterns.
    config = _config(policy={"name": "gladiator+m", "options": options})
    with pytest.raises(ValueError, match=f"policy.options: {fragment}"):
        config.validate()
    with pytest.raises(ValueError, match=fragment):
        Session(config)


def test_session_accepts_zero_graph_model_factors():
    config = _config(
        policy={
            "name": "gladiator+m",
            "options": {"gate_error_factor": 0, "isolated_flip_factor": 0.0},
        },
        execution={"shots": 10, "rounds": 3, "decoded": False},
    )
    assert Session(config).run().summary()["policy"] == "gladiator+M"
