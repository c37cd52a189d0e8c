"""Tests of the unified telemetry layer: metrics, spans, manifests, wiring.

The two contracts the subsystem promises are pinned here:

* **RNG neutrality** — running with telemetry on is bit-identical to running
  with it off, across codes, decoders and execution paths (the overhead half
  of the contract lives in ``benchmarks/bench_obs_overhead.py``);
* **valid trace output** — every exported event carries the Chrome
  ``trace_event`` keys and spans nest properly per thread, so Perfetto /
  ``chrome://tracing`` load the file directly.
"""

import json
import threading

import numpy as np
import pytest

from repro.api import ExperimentConfig
from repro.api.session import Session
from repro.obs import (
    METRICS,
    build_manifest,
    resolve_telemetry,
    telemetry_scope,
)
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    activate,
    current_tracer,
    deactivate,
    span,
)

SMALL = {"shots": 10, "rounds": 3, "seed": 7}


@pytest.fixture(autouse=True)
def _telemetry_off(monkeypatch):
    """Tests control telemetry explicitly; the environment must not leak in."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    yield
    # A failing test must never leave the process-wide switch on.
    deactivate()
    METRICS.disable()


def _config(**overrides) -> ExperimentConfig:
    config = ExperimentConfig.from_dict(
        {
            "name": "obs-test",
            "code": {"name": "surface", "distance": 3},
            "noise": {"p": 2e-3, "leakage_ratio": 1.0},
            "execution": dict(SMALL),
        }
    )
    for path, value in overrides.items():
        config = config.override(path, value)
    return config


# --------------------------------------------------------------------- #
# Metrics primitives
# --------------------------------------------------------------------- #
def test_registry_instruments_are_off_by_default():
    registry = MetricsRegistry()
    counter = registry.counter("c", "a counter")
    gauge = registry.gauge("g")
    histogram = registry.histogram("h")
    counter.inc()
    gauge.set(3.0)
    histogram.observe(1.0)
    assert counter.value == 0
    assert gauge.value == 0.0
    assert histogram.count == 0

    registry.enable()
    counter.inc(2)
    gauge.set(3.0)
    histogram.observe(1.0)
    histogram.observe(3.0)
    assert counter.value == 2
    assert gauge.value == 3.0
    assert histogram.count == 2
    assert histogram.percentile(50) == 2.0

    registry.reset()
    assert counter.value == 0
    assert histogram.count == 0


def test_registry_is_get_or_create_and_guards_kinds():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_counter_merges_per_thread_slots():
    counter = Counter("threads")
    threads = [
        threading.Thread(target=lambda: [counter.inc() for _ in range(100)])
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    counter.inc(10)
    assert counter.value == 410


def test_histogram_snapshot_and_empty_percentile():
    histogram = Histogram("latency")
    assert histogram.percentile(99) == 0.0
    assert histogram.snapshot() == {"count": 0}
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 10.0
    assert snap["min"] == 1.0 and snap["max"] == 4.0
    assert snap["p50"] == 2.5


def test_registry_snapshot_is_flat_and_sorted():
    registry = MetricsRegistry()
    registry.enable()
    registry.counter("b.count").inc(3)
    registry.gauge("a.depth").set(2)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["a.depth", "b.count"]
    assert snapshot == {"a.depth": 2.0, "b.count": 3}


# --------------------------------------------------------------------- #
# Tracer and spans
# --------------------------------------------------------------------- #
def test_module_span_is_noop_without_active_tracer():
    assert current_tracer() is None
    assert span("anything", key=1) is NULL_SPAN
    with span("anything"):
        pass  # must not raise


def test_tracer_records_schema_complete_events():
    tracer = Tracer()
    activate(tracer)
    try:
        with span("outer", label="x"):
            with span("inner"):
                pass
        tracer.instant("marker", hit=True)
    finally:
        deactivate()
    events = tracer.events()
    assert [e["name"] for e in events] == ["inner", "outer", "marker"]
    for event in events:
        assert {"name", "ph", "pid", "tid", "ts"} <= set(event)
    inner, outer, marker = events
    assert inner["ph"] == outer["ph"] == "X"
    assert marker["ph"] == "i" and marker["s"] == "t"
    # Containment: the viewers reconstruct nesting from it.
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    assert outer["args"] == {"label": "x"}


def test_tracer_exports_chrome_and_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("work", n=1):
        pass
    chrome = tracer.write_chrome(tmp_path / "trace.json")
    jsonl = tracer.write_jsonl(tmp_path / "trace.jsonl")
    document = json.loads(chrome.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert [e["name"] for e in document["traceEvents"]] == ["work"]
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert lines == document["traceEvents"]


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def test_manifest_carries_provenance_and_config_digest():
    config = _config()
    manifest = build_manifest(config, extra={"note": "hello"})
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["config_digest"] == config.digest()
    assert manifest["seed"] == SMALL["seed"]
    assert manifest["engine_version"] >= 5
    assert "numpy" in manifest["packages"]
    assert manifest["platform"]["python"]
    assert manifest["note"] == "hello"
    # Metrics only embed while the registry is enabled.
    assert "metrics" not in manifest
    METRICS.enable()
    try:
        assert "metrics" in build_manifest(config)
    finally:
        METRICS.disable()


# --------------------------------------------------------------------- #
# Resolution and scope
# --------------------------------------------------------------------- #
def test_resolve_telemetry_precedence(monkeypatch):
    assert resolve_telemetry() is None
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert resolve_telemetry() == "on"
    monkeypatch.setenv("REPRO_TELEMETRY", "off")
    assert resolve_telemetry() is None
    monkeypatch.setenv("REPRO_TELEMETRY", "env.json")
    assert resolve_telemetry() == "env.json"
    config = _config(**{"execution.telemetry": "config.json"})
    assert resolve_telemetry(config) == "config.json"
    assert resolve_telemetry(config, "cli.json") == "cli.json"
    # A config can also switch telemetry *off* against the environment.
    assert resolve_telemetry(_config(**{"execution.telemetry": "off"})) is None


def test_telemetry_scope_none_is_noop():
    with telemetry_scope(None) as tracer:
        assert tracer is None
        assert current_tracer() is None
        assert not METRICS.enabled


def test_telemetry_scope_on_activates_without_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with telemetry_scope("on") as tracer:
        assert current_tracer() is tracer
        assert METRICS.enabled
    assert current_tracer() is None
    assert not METRICS.enabled
    assert list(tmp_path.iterdir()) == []


def test_telemetry_scope_writes_trace_jsonl_and_manifest(tmp_path):
    target = tmp_path / "out" / "trace.json"
    with telemetry_scope(str(target), config=_config()):
        with span("unit.test"):
            pass
    document = json.loads(target.read_text())
    assert any(e["name"] == "unit.test" for e in document["traceEvents"])
    assert target.with_suffix(".jsonl").exists()
    manifest = json.loads(target.with_suffix(".manifest.json").read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert "metrics" in manifest  # captured before the scope disabled them


def test_nested_scopes_join_the_outer_tracer(tmp_path):
    outer_target = tmp_path / "outer.json"
    inner_target = tmp_path / "inner.json"
    with telemetry_scope(str(outer_target)) as outer:
        with telemetry_scope(str(inner_target)) as inner:
            assert inner is outer
    assert outer_target.exists()
    assert not inner_target.exists()


def test_execution_telemetry_is_not_part_of_the_cache_key():
    from repro.sweeps.units import WorkUnit, canonical_config, unit_key

    plain = _config()
    traced = _config(**{"execution.telemetry": "trace.json"})
    # Telemetry is a performance-only knob: it cannot change results, so it
    # is dropped from the cache payload, the config digest and the sweep
    # cache key alike.
    assert "telemetry" not in plain.cache_payload()["execution"]
    assert plain.digest() == traced.digest()
    assert unit_key(WorkUnit(canonical_config(plain))) == unit_key(
        WorkUnit(canonical_config(traced))
    )


# --------------------------------------------------------------------- #
# The RNG-neutrality contract: telemetry on == telemetry off, bit for bit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("code", ["surface", "color"])
@pytest.mark.parametrize("decoder", ["matching", "union_find"])
@pytest.mark.parametrize("mode", ["offline", "windowed", "sweep"])
def test_telemetry_is_bit_identical_on_and_off(code, decoder, mode, tmp_path):
    config = _config(**{"code.name": code, "decoder.name": decoder})
    if mode == "windowed":
        config = config.override("execution.window_rounds", 2)

    def execute(cfg):
        if mode == "sweep":
            return Session(cfg).sweep({"execution.seed": [1, 2]})
        return [Session(cfg).run().summary()]

    baseline = execute(config)
    trace = tmp_path / f"{code}-{decoder}-{mode}.json"
    traced = execute(config.override("execution.telemetry", str(trace)))
    # Exact equality, perf diagnostics included: the execution path is the
    # same, telemetry only observed it.
    assert traced == baseline
    assert trace.exists()


def test_traced_run_emits_a_valid_nested_trace(tmp_path):
    trace = tmp_path / "run.json"
    Session(_config(**{"execution.telemetry": str(trace)})).run()
    document = json.loads(trace.read_text())
    events = document["traceEvents"]
    assert events
    for event in events:
        assert {"name", "ph", "pid", "tid", "ts"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
    # Per thread, complete events must form a laminar family (any two are
    # disjoint or nested) — that is what lets viewers rebuild the stack.
    epsilon = 0.5  # microseconds; adjacent phases share a boundary tick
    by_tid: dict = {}
    for event in events:
        if event["ph"] == "X":
            by_tid.setdefault(event["tid"], []).append(event)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                disjoint = b["ts"] >= a["ts"] + a["dur"] - epsilon
                nested = b["ts"] + b["dur"] <= a["ts"] + a["dur"] + epsilon
                assert disjoint or nested, (a, b)
    names = {event["name"] for event in events}
    assert {"sim.run", "sim.round", "sim.phase.noise"} <= names


def test_summary_surfaces_decoder_cache_and_dedup_diagnostics():
    summary = Session(_config()).run().summary()
    assert 0.0 <= summary["decoder_cache_hit_rate"] <= 1.0
    assert 0.0 <= summary["batch_dedup_ratio"] <= 1.0
    # 10 shots at low p share syndromes: dedup must actually have happened.
    assert summary["batch_dedup_ratio"] > 0.0


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_cli_run_trace_writes_all_three_artifacts(tmp_path, capsys):
    from repro.__main__ import main

    config = _config()
    config_path = config.save(tmp_path / "experiment.json")
    trace = tmp_path / "cli" / "trace.json"
    assert main(["run", "--config", str(config_path), "--trace", str(trace)]) == 0
    capsys.readouterr()
    document = json.loads(trace.read_text())
    assert document["traceEvents"]
    assert trace.with_suffix(".jsonl").exists()
    manifest = json.loads(trace.with_suffix(".manifest.json").read_text())
    assert manifest["config_digest"]
    assert manifest["config"]["execution"]["telemetry"] == str(trace)


def test_cli_fuzz_trace_writes_report_and_manifest(tmp_path, capsys):
    from repro.__main__ import main

    trace = tmp_path / "fuzz.json"
    report = tmp_path / "fuzz_report.json"
    code = main(
        [
            "fuzz",
            "--budget", "2",
            "--seed", "5",
            "--trace", str(trace),
            "--report", str(report),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    for result in payload["results"]:
        assert "tier_ms" in result
    manifest = json.loads(trace.with_suffix(".manifest.json").read_text())
    assert manifest["fuzz"]["cells_run"] == 2
    names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
    assert "fuzz.cell" in names and "fuzz.tier" in names


# --------------------------------------------------------------------- #
# Realtime accounting on the shared histogram
# --------------------------------------------------------------------- #
def test_latency_recorder_summary_keys_and_percentiles_unchanged():
    from repro.realtime.accounting import LatencyRecorder

    recorder = LatencyRecorder()
    recorder.record(2, 0.4)
    recorder.record(1, 0.1)
    recorder.record(4, 1.2)
    expected = np.array([0.2, 0.1, 0.3])
    assert recorder.percentile(50) == pytest.approx(np.percentile(expected, 50))
    summary = recorder.summary()
    assert set(summary) == {
        "windows",
        "rounds_committed",
        "decode_seconds",
        "round_latency_p50",
        "round_latency_p99",
        "mean_queue_wait",
        "hardware_round_ns",
        "realtime_factor",
    }
    assert summary["windows"] == 3
    assert summary["rounds_committed"] == 7
