"""Tests of the parallel sweep engine: sharding, seeding, merging, caching."""

import json
import os

import numpy as np
import pytest

from repro.noise import paper_noise
from repro.sweeps import (
    SweepCache,
    SweepExecutor,
    SweepSpec,
    WorkUnit,
    plan_shards,
    run_unit_serial,
    shard_seeds,
    unit_key,
)
from repro.sweeps.registry import build_sweep, sweep_names


def _unit(**overrides):
    defaults = dict(
        family="surface",
        distance=3,
        noise=paper_noise(),
        policy="eraser+m",
        shots=200,
        rounds=10,
        leakage_sampling=True,
        seed=5,
    )
    defaults.update(overrides)
    return WorkUnit(**defaults)


# --------------------------------------------------------------------- #
# Shard planning and seeding
# --------------------------------------------------------------------- #
def test_plan_shards_covers_budget_independent_of_workers():
    assert plan_shards(1000, 250) == [250, 250, 250, 250]
    assert plan_shards(260, 250) == [250, 10]
    assert plan_shards(40, 250) == [40]
    with pytest.raises(ValueError):
        plan_shards(0, 250)


def test_shard_seeds_reproducible_and_distinct():
    unit = _unit()
    first = shard_seeds(unit, 6)
    second = shard_seeds(unit, 6)
    assert first == second
    assert len(set(first)) == 6
    # A prefix of a longer spawn is the same seeds: shard i's seed does not
    # depend on how many shards follow it.
    assert shard_seeds(unit, 3) == first[:3]


def test_shard_seeds_differ_between_units():
    assert shard_seeds(_unit(), 4) != shard_seeds(_unit(policy="gladiator+m"), 4)
    assert shard_seeds(_unit(), 4) != shard_seeds(_unit(seed=6), 4)


def test_unit_key_ignores_labels_but_not_parameters():
    base = _unit()
    assert unit_key(base) == unit_key(_unit(labels=(("distance", 3),)))
    assert unit_key(base) != unit_key(_unit(policy="gladiator+m"))
    assert unit_key(base) != unit_key(_unit(shots=201))
    assert unit_key(base) != unit_key(_unit(seed=6))


# --------------------------------------------------------------------- #
# Sharded execution vs the serial path
# --------------------------------------------------------------------- #
def test_sharded_run_statistically_consistent_with_serial():
    unit = _unit(shots=600, rounds=12)
    serial = run_unit_serial(unit)
    executor = SweepExecutor(workers=2, cache=None, shard_shots=150)
    (sharded,) = executor.run_units([unit])

    assert executor.shards_executed == 4
    assert sharded["shots"] == serial["shots"] == 600
    assert sharded["rounds"] == serial["rounds"]
    # Different (deterministic) RNG streams, same physics: headline metrics
    # agree within sampling tolerance for this shot budget.
    assert sharded["mean_dlp"] == pytest.approx(serial["mean_dlp"], abs=0.03)
    assert sharded["lrcs_per_round"] == pytest.approx(serial["lrcs_per_round"], rel=0.35, abs=0.1)
    assert sharded["fp_per_round"] == pytest.approx(serial["fp_per_round"], rel=0.35, abs=0.1)
    assert sharded["dlp_per_round"].shape == serial["dlp_per_round"].shape


def test_sharded_decoded_run_consistent_with_serial():
    unit = _unit(shots=120, rounds=6, decoded=True, leakage_sampling=False)
    serial = run_unit_serial(unit)
    executor = SweepExecutor(workers=2, cache=None, shard_shots=40)
    (sharded,) = executor.run_units([unit])
    assert sharded["shots"] == serial["shots"]
    assert 0.0 <= sharded["ler"] <= 1.0
    assert sharded["ler"] == pytest.approx(serial["ler"], abs=0.1)


def test_results_identical_across_pool_sizes():
    unit = _unit(shots=300, rounds=8)
    rows = []
    for workers in (2, 3):
        executor = SweepExecutor(workers=workers, cache=None, shard_shots=100)
        rows.append(executor.run_units([unit])[0])
    first, second = rows
    for key, value in first.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, second[key]), key
        else:
            assert value == second[key], key


# --------------------------------------------------------------------- #
# Memoization
# --------------------------------------------------------------------- #
def test_cache_hit_skips_recomputation(tmp_path):
    spec = SweepSpec(
        name="cache-test",
        distances=(3,),
        policies=("eraser+m", "gladiator+m"),
        shots=60,
        rounds=6,
        seed=2,
    )
    first = SweepExecutor(workers=1, cache=SweepCache(tmp_path))
    rows1 = first.run(spec)
    assert first.units_computed == 2
    assert first.cache.stores == 2

    second = SweepExecutor(workers=1, cache=SweepCache(tmp_path))
    rows2 = second.run(spec)
    assert second.units_computed == 0
    assert second.shards_executed == 0
    assert second.cache.hits == 2

    for row1, row2 in zip(rows1, rows2):
        for key, value in row1.items():
            if isinstance(value, np.ndarray):
                assert np.allclose(value, row2[key])
            else:
                assert value == pytest.approx(row2[key]) if isinstance(value, float) else value == row2[key]


def test_cache_restamps_labels_of_requesting_unit(tmp_path):
    cache = SweepCache(tmp_path)
    executor = SweepExecutor(workers=1, cache=cache)
    unit = _unit(shots=40, rounds=5, labels=(("p", 1e-3),))
    (row,) = executor.run_units([unit])
    assert row["p"] == 1e-3

    relabelled = _unit(shots=40, rounds=5, labels=(("p", 0.5),))
    (row2,) = executor.run_units([relabelled])
    assert executor.cache.hits == 1
    assert row2["p"] == 0.5
    assert row2["mean_dlp"] == pytest.approx(row["mean_dlp"])


def test_cache_never_substitutes_sharded_rows_for_serial(tmp_path):
    """Rows computed under different shard plans are different samples: a
    cache populated by a sharded run must not satisfy a serial run."""
    unit = _unit(shots=120, rounds=6)
    sharded = SweepExecutor(workers=2, cache=SweepCache(tmp_path), shard_shots=40)
    sharded.run_units([unit])
    assert sharded.cache.stores == 1

    serial = SweepExecutor(workers=1, cache=SweepCache(tmp_path))
    (row,) = serial.run_units([unit])
    assert serial.units_computed == 1  # miss: serial plan has its own key
    legacy = run_unit_serial(unit)  # bit-identical to the legacy path
    assert row["mean_dlp"] == legacy["mean_dlp"]
    assert np.array_equal(row["dlp_per_round"], legacy["dlp_per_round"])

    # Re-running either configuration hits its own entry.
    again = SweepExecutor(workers=2, cache=SweepCache(tmp_path), shard_shots=40)
    again.run_units([unit])
    assert again.units_computed == 0 and again.cache.hits == 1


def test_wrapper_and_spec_units_share_cache_keys(surface_d3):
    """A code object identical to make_code output gets the declarative
    fingerprint, so legacy wrappers and SweepSpec grids share cache entries."""
    declarative = _unit()
    wrapped = _unit(code=surface_d3)
    assert unit_key(declarative) == unit_key(wrapped)

    # A structurally different code with the same (family, distance) must not alias.
    from repro.codes import color_code

    impostor = _unit(code=color_code(3))
    assert unit_key(impostor) != unit_key(declarative)


def test_default_executor_tracks_environment(monkeypatch, tmp_path):
    from repro.sweeps.executor import default_executor

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    first = default_executor()
    assert first.cache is not None and first.cache.root == tmp_path / "a"

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
    second = default_executor()
    assert second is not first
    assert second.cache.root == tmp_path / "b"

    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_executor().workers == 3

    monkeypatch.delenv("REPRO_CACHE")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.delenv("REPRO_WORKERS")
    rebuilt = default_executor()
    assert rebuilt.cache is None and rebuilt.workers == 1


def test_cache_survives_corrupt_entries(tmp_path):
    cache = SweepCache(tmp_path)
    key = unit_key(_unit())
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.get(key) is None
    assert cache.misses == 1


def test_cache_quarantines_corrupt_entries(tmp_path):
    """A damaged entry is moved to <key>.json.corrupt, not silently re-missed."""
    cache = SweepCache(tmp_path)
    key = unit_key(_unit())
    path = tmp_path / f"{key}.json"
    for bad in ["{not json", "", '{"engine": 0']:
        path.write_text(bad)
        assert cache.get(key) is None
    assert cache.corrupt == 3
    assert not path.exists()
    assert (tmp_path / f"{key}.json.corrupt").exists()
    # A truncated-but-valid-JSON non-payload (e.g. a bare list) also counts.
    path.write_text("[1, 2]")
    assert cache.get(key) is None
    assert cache.corrupt == 4


def test_cache_quarantine_does_not_block_rewrite(tmp_path):
    """put() after a quarantine stores a fresh, loadable entry."""
    cache = SweepCache(tmp_path)
    key = unit_key(_unit())
    (tmp_path / f"{key}.json").write_text("garbage")
    assert cache.get(key) is None and cache.corrupt == 1
    cache.put(key, {"ler": 0.25})
    assert cache.get(key) == {"ler": 0.25}
    assert cache.hits == 1


def test_cache_reads_and_writes_the_established_entry_format(tmp_path):
    """Entries already on disk keep hitting: an entry in the established
    format (sorted-key JSON of engine, key and row) loads, and put() writes
    exactly those bytes."""
    from repro.sweeps.units import ENGINE_VERSION

    key = unit_key(_unit())
    row = {"ler": 0.125, "policy": "eraser+M", "dlp_per_round": [0.0, 0.5]}
    established = json.dumps(
        {"engine": ENGINE_VERSION, "key": key, "row": row}, sort_keys=True
    )
    path = tmp_path / f"{key}.json"
    path.write_text(established, encoding="utf-8")
    loaded = SweepCache(tmp_path).get(key)
    assert loaded["ler"] == 0.125 and loaded["policy"] == "eraser+M"
    assert np.array_equal(loaded["dlp_per_round"], [0.0, 0.5])

    path.unlink()
    SweepCache(tmp_path).put(key, {**row, "dlp_per_round": np.array([0.0, 0.5])})
    assert path.read_bytes() == established.encode()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_stale_engine_is_plain_miss_not_corruption(tmp_path):
    """Old-engine entries are valid files — a miss, never quarantined."""
    cache = SweepCache(tmp_path)
    key = unit_key(_unit())
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"engine": -1, "key": key, "row": {"ler": 0.5}}))
    assert cache.get(key) is None
    assert cache.misses == 1 and cache.corrupt == 0
    assert path.exists()


# --------------------------------------------------------------------- #
# Legacy wrapper equivalence
# --------------------------------------------------------------------- #
def test_serial_engine_matches_direct_simulator(surface_d3, noise):
    """The workers=1 path is bit-identical to driving the simulator by hand."""
    from repro.core import make_policy
    from repro.sim import LeakageSimulator, SimulatorOptions

    simulator = LeakageSimulator(
        code=surface_d3,
        noise=noise,
        policy=make_policy("eraser+m"),
        options=SimulatorOptions(leakage_sampling=True),
        seed=5,
    )
    expected = simulator.run(shots=50, rounds=8).summary()

    row = run_unit_serial(_unit(code=surface_d3, shots=50, rounds=8, seed=5))
    for key, value in expected.items():
        assert row[key] == value, key


def test_spec_expansion_grid_order_and_labels():
    spec = SweepSpec(
        name="grid",
        distances=(3, 5),
        error_rates=(1e-3,),
        leakage_ratios=(0.1, 1.0),
        policies=("eraser+m",),
        shots=10,
        rounds=lambda distance: 2 * distance,
    )
    units = spec.units()
    assert len(units) == 4
    assert [unit.rounds for unit in units] == [6, 6, 10, 10]
    assert units[0].labels == (("distance", 3), ("p", 1e-3), ("leakage_ratio", 0.1))
    assert units[1].labels == (("distance", 3), ("p", 1e-3), ("leakage_ratio", 1.0))


def test_named_sweeps_build(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    for name in sweep_names():
        spec = build_sweep(name)
        assert spec.units(), name
    with pytest.raises(ValueError):
        build_sweep("nope")


def test_cli_runs_and_hits_cache(tmp_path, monkeypatch, capsys):
    from repro.sweeps.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "smoke")
    out = tmp_path / "rows.json"
    argv = ["smoke", "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    assert main(argv) == 0
    assert out.exists()
    first = capsys.readouterr().out
    assert "2 computed, 0 cached" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 computed, 2 cached" in second

    from repro.io import load_records

    records = load_records(out)
    assert len(records) == 2
    assert {record.metrics["policy"] for record in records} == {"eraser+M", "gladiator+M"}


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs for a meaningful speedup"
)
def test_parallel_speedup_with_four_workers():
    """Acceptance check: 4 workers beat serial by >= 2x on a d=7 comparison."""
    import time

    spec = SweepSpec(
        name="speedup",
        distances=(7,),
        policies=("eraser+m", "gladiator+m", "gladiator-d+m"),
        shots=400,
        rounds=40,
        seed=1,
    )
    serial = SweepExecutor(workers=1, cache=None)
    started = time.perf_counter()
    serial.run(spec)
    serial_elapsed = time.perf_counter() - started

    parallel = SweepExecutor(workers=4, cache=None, shard_shots=50)
    started = time.perf_counter()
    parallel.run(spec)
    parallel_elapsed = time.perf_counter() - started
    assert serial_elapsed / parallel_elapsed >= 2.0


# --------------------------------------------------------------------- #
# Realtime presets, the window axis, and grouped listing
# --------------------------------------------------------------------- #
def test_sweep_groups_cover_every_preset():
    from repro.sweeps.registry import NAMED_SWEEPS, SWEEP_GROUPS, sweep_subsystem

    grouped = {name for names in SWEEP_GROUPS.values() for name in names}
    assert grouped == set(NAMED_SWEEPS)
    assert sweep_subsystem("smoke") == "offline"
    assert sweep_subsystem("realtime-ler") == "realtime"
    assert sweep_subsystem("realtime-throughput") == "realtime"
    with pytest.raises(ValueError):
        sweep_subsystem("nope")


def test_window_axis_expands_and_labels_units():
    spec = SweepSpec(
        name="windowed",
        distances=(3,),
        policies=("eraser+m",),
        shots=10,
        rounds=12,
        decoded=True,
        windows=(None, 4, 8),
        commit_rounds=2,
    )
    units = spec.units()
    assert [unit.window_rounds for unit in units] == [None, 4, 8]
    # commit_rounds only applies where a window does.
    assert [unit.commit_rounds for unit in units] == [None, 2, 2]
    assert [dict(unit.labels)["window"] for unit in units] == [None, 4, 8]
    # Specs that do not sweep windows keep their historical label layout.
    legacy = SweepSpec(name="plain", distances=(3,), policies=("eraser+m",), shots=10, rounds=5)
    assert "window" not in dict(legacy.units()[0].labels)


def test_unit_key_sees_window_and_decoder_tuning():
    base = _unit(decoded=True)
    assert unit_key(base) != unit_key(_unit(decoded=True, window_rounds=6))
    assert unit_key(_unit(decoded=True, window_rounds=6)) != unit_key(
        _unit(decoded=True, window_rounds=6, commit_rounds=2)
    )
    assert unit_key(base) != unit_key(_unit(decoded=True, decoder_max_exact_nodes=10))
    assert unit_key(base) != unit_key(_unit(decoded=True, decoder_strategy="greedy"))
    # Undecoded units never decode, so decoder tuning must not split keys.
    assert unit_key(_unit()) == unit_key(_unit(decoder_max_exact_nodes=10))


def test_windowed_unit_runs_through_engine(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    unit = _unit(decoded=True, leakage_sampling=False, shots=20, rounds=8, window_rounds=4)
    row = run_unit_serial(unit)
    assert 0.0 <= row["ler"] <= 1.0
    # A full-cover window is bit-identical to the offline decode of the unit.
    offline = run_unit_serial(_unit(decoded=True, leakage_sampling=False, shots=20, rounds=8))
    covered = run_unit_serial(
        _unit(decoded=True, leakage_sampling=False, shots=20, rounds=8, window_rounds=8)
    )
    assert covered["ler"] == offline["ler"]


def test_cli_list_groups_presets_by_subsystem(capsys):
    from repro.sweeps.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert out.index("offline:") < out.index("  smoke")
    assert out.index("realtime:") < out.index("  realtime-ler")
    assert "other:" not in out


def test_window_axis_rejected_on_undecoded_sweeps():
    """An undecoded unit never decodes, so a window axis would compile to
    identical cache keys under different labels — refuse it outright."""
    spec = SweepSpec(name="bad", distances=(3,), policies=("eraser+m",), shots=10,
                     rounds=5, windows=(4, 8))
    with pytest.raises(ValueError):
        spec.units()
