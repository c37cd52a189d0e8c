"""Tests of the durable sweep fabric (``repro.fabric``).

The load-bearing property is the house invariant: a durable run — crashed,
resumed, chaos-injected, or cooperatively scheduled — merges bit-identical
to the equivalent in-memory run.  Around that sit the component contracts:
journal crash-safety and quarantine, lease TTL semantics, retry backoff
and poison quarantine, and the deterministic chaos harness itself.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import ExperimentConfig, Session
from repro.fabric import (
    DONE,
    FAILED,
    PENDING,
    ChaosConfig,
    ChaosError,
    FabricExecutor,
    FabricInterrupted,
    JobStore,
    LeaseManager,
    RetryPolicy,
    TaskSpec,
    decode_payload,
    encode_payload,
    sweep_store_root,
)
from repro.fabric.chaos import parse_chaos_spec
from repro.api import ExperimentConfig, Session
from repro.sweeps import SweepExecutor

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _unit_config(**execution) -> dict:
    """Dict form of an undecoded surface d=3 config; ``execution`` overrides."""
    return {
        "code": {"name": "surface", "distance": 3},
        "policy": {"name": "eraser+m"},
        "execution": {"shots": 60, "rounds": 6, "seed": 5, "decoded": False,
                      "leakage_sampling": True, **execution},
    }


def _unit(**execution):
    (unit,) = Session(ExperimentConfig.from_dict(_unit_config(**execution))).work_units()
    return unit


#: The scheduler configurations every fault test runs under: pool-backed
#: durable and in-memory stores, and the in-memory store with its shards
#: running inside the scheduler process.
SCHEDULERS = pytest.mark.parametrize(
    "durable, workers",
    [(True, 2), (False, 2), (False, 1)],
    ids=["durable", "memory", "inline"],
)


def _group_alive(pgid):
    """Whether any process other than a zombie is left in a process group.

    Signals reach zombies too, and a killed orphan stays one until its new
    parent reaps it; it holds no resources, so it does not count.
    """
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    if not Path("/proc").is_dir():
        return True
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def _kill_group(process):
    """SIGKILL a process started with ``start_new_session=True`` together
    with every process it forked, reap it, and wait until the group is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)
    deadline = time.time() + 10
    while _group_alive(process.pid):
        assert time.time() < deadline, f"process group {process.pid} survived SIGKILL"
        time.sleep(0.05)


def _run_isolated(tmp_path, units, chaos, timeout=60, **executor_kwargs):
    """``SweepExecutor(**executor_kwargs).run_units(units)`` in a fresh
    process group under ``REPRO_CHAOS=chaos``; returns (rows, executor
    attributes).  A scheduler that hangs fails the test after ``timeout``
    seconds instead of wedging the suite, and a chaos crash that hits the
    scheduler itself fails it instead of killing the test process."""
    job, out = tmp_path / "job.pkl", tmp_path / "out.pkl"
    job.write_bytes(pickle.dumps((units, executor_kwargs)))
    script = tmp_path / "isolated.py"
    script.write_text(
        textwrap.dedent(
            f"""
            import pickle
            from repro.sweeps import SweepExecutor

            with open({str(job)!r}, "rb") as handle:
                units, kwargs = pickle.load(handle)
            executor = SweepExecutor(**kwargs)
            rows = executor.run_units(units)
            with open({str(out)!r}, "wb") as handle:
                pickle.dump((rows, vars(executor)), handle)
            """
        )
    )
    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_CHAOS": chaos}
    process = subprocess.Popen(
        [sys.executable, str(script)], env=env, start_new_session=True
    )
    try:
        returncode = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"sweep still running after {timeout} s under REPRO_CHAOS={chaos}")
    finally:
        _kill_group(process)
    assert returncode == 0
    return pickle.loads(out.read_bytes())


def _assert_rows_equal(actual, expected):
    assert len(actual) == len(expected)
    for row, reference in zip(actual, expected):
        assert row.keys() == reference.keys()
        for key, value in reference.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == row[key].dtype, key
                assert np.array_equal(value, row[key]), key
            else:
                assert row[key] == value, key


# --------------------------------------------------------------------- #
# Bit-identity with the in-memory executors
# --------------------------------------------------------------------- #
def test_single_shard_units_bit_identical_to_workers1(tmp_path):
    units = [_unit(seed=seed) for seed in (5, 6)]
    serial = SweepExecutor(workers=1, cache=None).run_units(units)
    fabric = FabricExecutor(workers=2, cache=None, root=tmp_path / "fabric")
    _assert_rows_equal(fabric.run_units(units), serial)
    assert fabric.shards_executed == 2
    assert fabric.units_computed == 2
    assert fabric.failed_units == []


def test_multi_shard_units_bit_identical_to_inmemory_sharding(tmp_path):
    unit = _unit(shots=90)
    sharded = SweepExecutor(workers=2, cache=None, shard_shots=30).run_units([unit])
    fabric = FabricExecutor(
        workers=2, cache=None, shard_shots=30, root=tmp_path / "fabric"
    )
    _assert_rows_equal(fabric.run_units([unit]), sharded)
    assert fabric.shards_executed == 3


def test_rows_independent_of_workers_and_store(tmp_path):
    """One multi-shard unit, three ways: in-memory in-process (workers=1),
    in-memory on a pool (workers=2) and durable (workers=1).  The shard plan
    is the same every time, so the rows are bit-identical."""
    unit = _unit(shots=600)
    executors = [
        SweepExecutor(workers=1, cache=None, shard_shots=250),
        SweepExecutor(workers=2, cache=None, shard_shots=250),
        FabricExecutor(
            workers=1, cache=None, shard_shots=250, root=tmp_path / "fabric"
        ),
    ]
    inline, pooled, durable = (e.run_units([unit]) for e in executors)
    _assert_rows_equal(inline, pooled)
    _assert_rows_equal(durable, pooled)
    assert [e.shards_executed for e in executors] == [3, 3, 3]


def test_fabric_shares_cache_entries_with_sweep_executor(tmp_path):
    unit = _unit()
    from repro.sweeps import SweepCache

    warm = SweepExecutor(workers=1, cache=SweepCache(tmp_path / "cache"))
    rows = warm.run_units([unit])
    fabric = FabricExecutor(
        workers=1, cache=SweepCache(tmp_path / "cache"), root=tmp_path / "fabric"
    )
    _assert_rows_equal(fabric.run_units([unit]), rows)
    assert fabric.units_from_cache == 1
    assert fabric.shards_executed == 0
    # A fully cache-satisfied sweep never even creates a job store.
    assert not (tmp_path / "fabric").exists()


# --------------------------------------------------------------------- #
# Crash-safe resume
# --------------------------------------------------------------------- #
def test_interrupted_slice_resumes_from_checkpoints(tmp_path):
    units = [_unit(seed=seed) for seed in (5, 6, 7, 8)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)

    first = FabricExecutor(workers=1, cache=None, root=tmp_path / "fabric")
    with pytest.raises(FabricInterrupted) as info:
        first.run_units(units, max_new_tasks=2)
    assert info.value.completed == 2
    assert info.value.open_tasks == 2

    second = FabricExecutor(workers=1, cache=None, root=tmp_path / "fabric")
    _assert_rows_equal(second.run_units(units), reference)
    assert second.shards_from_checkpoint == 2
    assert second.shards_executed == 2


def test_sigkilled_scheduler_resumes_bit_identical(tmp_path):
    """SIGKILL a real scheduler process mid-sweep; a fresh one must pick up
    its checkpoints, steal its expired leases and merge bit-identically."""
    units = [_unit(seed=seed, shots=40, rounds=5) for seed in (11, 12, 13, 14)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)
    root = tmp_path / "fabric"

    script = tmp_path / "scheduler.py"
    script.write_text(
        textwrap.dedent(
            f"""
            from repro.api import ExperimentConfig, Session
            from repro.fabric import FabricExecutor

            # The same units as the parent's (seed labels are not keyed).
            config = ExperimentConfig.from_dict({_unit_config(shots=40, rounds=5)!r})
            units = Session(config).work_units({{"execution.seed": [11, 12, 13, 14]}})
            FabricExecutor(
                workers=1, cache=None, root={str(root)!r}, lease_ttl=0.5
            ).run_units(units)
            """
        )
    )
    env = {
        **os.environ,
        "PYTHONPATH": SRC,
        # Stall every shard so the parent can reliably kill mid-sweep; a
        # stall only sleeps, so results are unchanged.
        "REPRO_CHAOS": "stall=1",
        "REPRO_CHAOS_STALL_S": "0.25",
    }
    # Its own session, so one killpg takes the scheduler and its pool
    # worker; the worker must not outlive the test as an orphan.
    victim = subprocess.Popen(
        [sys.executable, str(script)], env=env, start_new_session=True
    )
    try:
        deadline = time.time() + 30
        while time.time() < deadline:
            if list(root.glob("*/results/*.json")) or victim.poll() is not None:
                break
            time.sleep(0.02)
        assert list(root.glob("*/results/*.json")), "no checkpoint ever appeared"
    finally:
        _kill_group(victim)
    assert not _group_alive(victim.pid)

    resumed = FabricExecutor(workers=1, cache=None, root=root, lease_ttl=0.5)
    _assert_rows_equal(resumed.run_units(units), reference)
    assert resumed.shards_from_checkpoint >= 1
    assert resumed.shards_from_checkpoint + resumed.shards_executed == 4


# --------------------------------------------------------------------- #
# Chaos: worker SIGKILL, flaky shards, torn journals, poison quarantine
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("durable", [True, False], ids=["durable", "memory"])
def test_sigkilled_workers_retried_bit_identical(tmp_path, durable):
    """crash=1:1 SIGKILLs every task's first attempt (a real kill -9 that
    breaks the pool); retries must recover and merge bit-identically,
    whichever store holds the tasks."""
    units = [_unit(seed=seed) for seed in (5, 6)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)
    rows, fabric = _run_isolated(
        tmp_path,
        units,
        "crash=1:1",
        workers=2,
        cache=None,
        durable=durable,
        root=tmp_path / "fabric",
        retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
    )
    _assert_rows_equal(rows, reference)
    assert fabric["pool_rebuilds"] >= 1
    assert fabric["shards_retried"] >= 2
    assert fabric["shards_quarantined"] == 0


def test_inline_crash_never_kills_the_scheduler(tmp_path):
    """A shard running inside the scheduler process turns a chaos crash into
    a failed attempt: the sweep completes and the units degrade to error
    rows after max_attempts strikes."""
    units = [_unit(seed=seed) for seed in (5, 6)]
    rows, fabric = _run_isolated(
        tmp_path,
        units,
        "crash=1",
        workers=1,
        cache=None,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
    )
    assert all("injected crash" in row["error"] for row in rows)
    assert fabric["shards_quarantined"] == 2
    assert fabric["pool_rebuilds"] == 0


@SCHEDULERS
def test_flaky_shards_absorbed_by_retry(tmp_path, monkeypatch, durable, workers):
    units = [_unit(seed=seed) for seed in (5, 6)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)
    monkeypatch.setenv("REPRO_CHAOS", "flaky=1:2")
    fabric = SweepExecutor(
        workers=workers,
        cache=None,
        durable=durable,
        root=tmp_path / "fabric",
        retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
    )
    _assert_rows_equal(fabric.run_units(units), reference)
    # flaky=1:2 fails attempts 0 and 1 of each task, then lets it through.
    assert fabric.shards_retried == 4
    assert fabric.shards_executed == 2


@SCHEDULERS
def test_poison_shards_quarantined_and_sweep_degrades(
    tmp_path, monkeypatch, durable, workers
):
    """A shard that fails every attempt must not hang the grid: the task is
    journaled FAILED with its traceback and the unit degrades to an error
    row while the sweep still completes."""
    units = [_unit(seed=seed) for seed in (5, 6)]
    monkeypatch.setenv("REPRO_CHAOS", "flaky=1")
    fabric = SweepExecutor(
        workers=workers,
        cache=None,
        durable=durable,
        root=tmp_path / "fabric",
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
    )
    rows = fabric.run_units(units)
    assert len(rows) == 2
    for row in rows:
        assert "injected transient failure" in row["error"]
        assert row["failed_shards"] == 1
    assert fabric.shards_quarantined == 2
    assert len(fabric.failed_units) == 2
    if not durable:
        return
    # The quarantine is durable: a FAILED record survives with a traceback.
    store_dir = next((tmp_path / "fabric").iterdir())
    store = JobStore(store_dir)
    records = [
        store.load_task(path.stem) for path in sorted(store.tasks_dir.glob("*.json"))
    ]
    assert all(r["state"] == FAILED for r in records)
    assert all("ChaosError" in r["error"] for r in records)


def test_quarantined_units_never_poison_the_cache(tmp_path, monkeypatch):
    """Error rows must not be memoized: after the fault clears, a re-run
    recomputes the unit instead of serving the degraded row forever."""
    from repro.sweeps import SweepCache

    unit = _unit()
    monkeypatch.setenv("REPRO_CHAOS", "flaky=1")
    broken = FabricExecutor(
        workers=1,
        cache=SweepCache(tmp_path / "cache"),
        root=tmp_path / "fabric-a",
        retry=RetryPolicy(max_attempts=1),
    )
    (row,) = broken.run_units([unit])
    assert "error" in row
    monkeypatch.delenv("REPRO_CHAOS")
    healed = FabricExecutor(
        workers=1, cache=SweepCache(tmp_path / "cache"), root=tmp_path / "fabric-b"
    )
    reference = SweepExecutor(workers=1, cache=None).run_units([unit])
    _assert_rows_equal(healed.run_units([unit]), reference)
    assert healed.units_from_cache == 0


def test_torn_journal_writes_recovered_on_resume(tmp_path, monkeypatch):
    """Torn journal writes (power cut mid-write) are quarantined by the next
    reader and the shards recomputed; the merge stays bit-identical."""
    units = [_unit(seed=seed) for seed in (5, 6, 7)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)

    monkeypatch.setenv("REPRO_CHAOS", "torn=0.5")
    first = FabricExecutor(workers=1, cache=None, root=tmp_path / "fabric")
    # In-memory results of the torn run are already correct: tearing only
    # damages what lands on disk.
    _assert_rows_equal(first.run_units(units), reference)

    monkeypatch.delenv("REPRO_CHAOS")
    resumed = FabricExecutor(workers=1, cache=None, root=tmp_path / "fabric")
    _assert_rows_equal(resumed.run_units(units), reference)
    assert resumed.shards_from_checkpoint + resumed.shards_executed >= 3


# --------------------------------------------------------------------- #
# Cooperating schedulers
# --------------------------------------------------------------------- #
def test_two_schedulers_cooperate_on_one_store(tmp_path):
    units = [_unit(seed=seed) for seed in (5, 6, 7, 8)]
    reference = SweepExecutor(workers=1, cache=None).run_units(units)
    root = tmp_path / "fabric"
    executors = [
        FabricExecutor(workers=1, cache=None, root=root, owner=f"sched-{i}")
        for i in range(2)
    ]
    rows: dict[int, list] = {}
    errors: list[BaseException] = []

    def drive(index):
        try:
            rows[index] = executors[index].run_units(units)
        except BaseException as exc:  # noqa: BLE001 — surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    _assert_rows_equal(rows[0], reference)
    _assert_rows_equal(rows[1], reference)
    # Between them the pair executed/adopted everything; leases make double
    # execution rare but duplicates would still merge identically.
    for executor in executors:
        accounted = (
            executor.shards_executed
            + executor.shards_from_checkpoint
            + executor.shards_adopted
        )
        assert accounted == 4


def test_store_root_is_stable_and_collision_free(tmp_path):
    ids = ["abc-000", "abc-001"]
    assert sweep_store_root(ids, tmp_path) == sweep_store_root(
        list(reversed(ids)), tmp_path
    )
    assert sweep_store_root(ids, tmp_path) != sweep_store_root(
        ["abc-000"], tmp_path
    )


# --------------------------------------------------------------------- #
# JobStore
# --------------------------------------------------------------------- #
def test_payload_codec_roundtrips_arrays_bit_exact():
    payload = {
        "floats": np.array([0.1, -1.5e-300, np.pi]),
        "mask": np.array([[True, False], [False, True]]),
        "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "empty": np.zeros((0, 4)),
        "scalar": np.float64(0.25),
        "nested": {"deep": [np.uint8([1, 2, 3]), "text", None]},
    }
    decoded = decode_payload(json.loads(json.dumps(encode_payload(payload))))
    assert decoded["floats"].dtype == np.float64
    assert decoded["floats"].tobytes() == payload["floats"].tobytes()
    assert np.array_equal(decoded["mask"], payload["mask"])
    assert decoded["counts"].dtype == np.int64
    assert decoded["empty"].shape == (0, 4)
    assert decoded["scalar"] == 0.25
    assert decoded["nested"]["deep"][0].dtype == np.uint8
    assert decoded["nested"]["deep"][1:] == ["text", None]


def test_jobstore_task_roundtrip_and_quarantine(tmp_path):
    store = JobStore(tmp_path)
    store.attach({"engine": 1, "tasks": {}})
    spec = TaskSpec("t-000", 0, 0, 100, 7)
    store.write_task(spec.fresh_record())
    record = store.load_task("t-000")
    assert record["state"] == PENDING and record["shots"] == 100

    store.task_path("t-000").write_text("{torn")
    assert store.load_task("t-000") is None
    assert store.corrupt == 1
    assert Path(f"{store.task_path('t-000')}.corrupt").exists()
    # The quarantined slot is writable again immediately.
    store.write_task({**spec.fresh_record(), "state": DONE})
    assert store.load_task("t-000")["state"] == DONE


def test_jobstore_rejects_wrong_schema_and_alien_results(tmp_path):
    store = JobStore(tmp_path)
    store.attach({})
    store.task_path("t-000").parent.mkdir(parents=True, exist_ok=True)
    store.task_path("t-000").write_text(json.dumps({"schema": "other", "state": "X"}))
    assert store.load_task("t-000") is None

    store.write_result("t-001", {"value": 3})
    assert store.load_result("t-001") == {"value": 3}
    # A result file claiming the wrong task id is damage, not data.
    store.result_path("t-002").write_text(
        store.result_path("t-001").read_text()
    )
    assert store.load_result("t-002") is None
    assert store.load_result("t-001") == {"value": 3}


def test_attach_is_idempotent_and_heals_corrupt_manifest(tmp_path):
    store = JobStore(tmp_path)
    assert store.attach({"engine": 1}) is True
    assert store.attach({"engine": 1}) is False
    (tmp_path / "manifest.json").write_text("]]]")
    # A corrupt manifest reads as absent, so the attach is "fresh" again —
    # and rewrites a clean manifest from the same units.
    assert JobStore(tmp_path).attach({"engine": 1}) is True
    assert json.loads((tmp_path / "manifest.json").read_text())["engine"] == 1


# --------------------------------------------------------------------- #
# Leases
# --------------------------------------------------------------------- #
def test_lease_exclusive_until_released(tmp_path):
    store = JobStore(tmp_path)
    store.attach({})
    first = LeaseManager(store, owner="a", ttl=30)
    second = LeaseManager(store, owner="b", ttl=30)
    assert first.try_acquire("t") is True
    assert first.try_acquire("t") is True  # re-entrant for the holder
    assert second.try_acquire("t") is False
    first.release("t")
    assert second.try_acquire("t") is True
    # Releasing somebody else's lease is a no-op.
    first.release("t")
    assert second.peek("t").owner == "b"


def test_expired_lease_is_stolen_and_renew_fences_the_loser(tmp_path):
    store = JobStore(tmp_path)
    store.attach({})
    dead = LeaseManager(store, owner="dead", ttl=0.05)
    heir = LeaseManager(store, owner="heir", ttl=30)
    assert dead.try_acquire("t")
    assert heir.try_acquire("t") is False
    time.sleep(0.06)
    assert heir.try_acquire("t") is True
    assert heir.stolen == 1
    # The original holder notices on its next heartbeat and backs off.
    assert dead.renew("t") is False
    assert heir.renew("t") is True


def test_lease_owner_defaults_to_host_and_pid(tmp_path):
    store = JobStore(tmp_path)
    store.attach({})
    manager = LeaseManager(store)
    assert str(os.getpid()) in manager.owner


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #
def test_retry_policy_bounds_and_determinism():
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=0.5, jitter=0.25)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    assert policy.delay("t", 0) == 0.0
    for attempts, floor in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.5), (9, 0.5)]:
        delay = policy.delay("t", attempts)
        assert floor <= delay <= floor * 1.25
        assert delay == policy.delay("t", attempts)  # deterministic
    # Jitter desynchronises different tasks at the same attempt.
    assert policy.delay("t", 2) != policy.delay("u", 2)


def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=1.0, max_delay=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)


# --------------------------------------------------------------------- #
# Chaos harness
# --------------------------------------------------------------------- #
def test_chaos_spec_parsing_and_validation():
    config = parse_chaos_spec("crash=1:1, flaky=0.5:2 ,torn=0.25", 3, 0.05)
    assert config.sites == {
        "crash": (1.0, 1),
        "flaky": (0.5, 2),
        "torn": (0.25, None),
    }
    with pytest.raises(ValueError, match="unknown REPRO_CHAOS site"):
        parse_chaos_spec("explode=1", 0, 0.05)
    with pytest.raises(ValueError, match="probability"):
        parse_chaos_spec("crash=1.5", 0, 0.05)
    with pytest.raises(ValueError, match="site=probability"):
        parse_chaos_spec("crash", 0, 0.05)


def test_chaos_decisions_deterministic_and_limited():
    config = ChaosConfig(sites={"flaky": (1.0, 2)}, seed=7)
    assert config.should_inject("flaky", "task", 0)
    assert config.should_inject("flaky", "task", 1)
    assert not config.should_inject("flaky", "task", 2)  # limit reached
    assert not config.should_inject("crash", "task", 0)  # site not armed
    # Same (seed, site, key, attempt) -> same draw, everywhere, always.
    half = ChaosConfig(sites={"flaky": (0.5, None)}, seed=7)
    draws = [half.should_inject("flaky", f"k{i}", 0) for i in range(64)]
    assert draws == [half.should_inject("flaky", f"k{i}", 0) for i in range(64)]
    assert any(draws) and not all(draws)


def test_chaos_torn_write_always_truncates():
    config = ChaosConfig(sites={"torn": (1.0, None)}, seed=0)
    data = json.dumps({"k": list(range(40))}).encode()
    torn = config.torn_write("key", 0, data)
    assert torn is not None and len(torn) < len(data)
    assert data.startswith(torn)
    assert config.torn_write("key", 0, data) == torn  # deterministic offset
    clean = ChaosConfig(sites={}, seed=0)
    assert clean.torn_write("key", 0, data) is None


def test_chaos_maybe_raise_carries_context():
    config = ChaosConfig(sites={"flaky": (1.0, None)}, seed=0)
    with pytest.raises(ChaosError, match="task-9 attempt 3"):
        config.maybe_raise("task-9", 3)


# --------------------------------------------------------------------- #
# Config / Session / CLI integration
# --------------------------------------------------------------------- #
def test_durable_flag_is_digest_exempt():
    base = ExperimentConfig()
    assert base.digest() == base.override("execution.durable", True).digest()
    assert "durable" not in base.cache_payload()["execution"]


def test_session_routes_durable_sweeps_through_fabric(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ExperimentConfig.from_dict(
        {
            "name": "durable-session",
            "code": {"name": "surface", "distance": 3},
            "execution": {"shots": 12, "rounds": 4, "seed": 3, "durable": True},
        }
    )
    plain = Session.from_config(config.override("execution.durable", False))
    reference = plain.sweep({"code.distance": [3]})
    rows = Session.from_config(config).sweep({"code.distance": [3]})
    _assert_rows_equal(rows, reference)
    # The journal landed under the cache dir, proving the fabric ran it.
    assert list((tmp_path / "fabric").glob("*/results/*.json"))


def test_cli_distributed_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    config = ExperimentConfig.from_dict(
        {
            "name": "durable-cli",
            "code": {"name": "surface", "distance": 3},
            "execution": {"shots": 10, "rounds": 4, "seed": 3},
        }
    )
    config_file = str(config.save(tmp_path / "experiment.json"))
    argv = [
        "sweep",
        "--distributed",
        "--config", config_file,
        "--axis", "code.distance=3,5",
        "--out", str(tmp_path / "grid.json"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 computed, 0 cached" in out
    assert "[durable: 2 shards run" in out
    # Re-run: the sweep cache satisfies everything, durably or not.
    assert main(argv) == 0
    assert "0 computed, 2 cached" in capsys.readouterr().out


def test_cli_distributed_rejects_presets(capsys):
    assert main(["sweep", "smoke", "--distributed"]) == 2
    assert "--distributed" in capsys.readouterr().err
