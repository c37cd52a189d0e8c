"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sim_d5 --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` -- median of three fresh processes, each timed from its start
  through imports, config build, policy prepare and a small warm-up job
  (decoder graphs and all-pairs tables; for ``served_d3`` the server
  start, connection and one warm-up stream);
* ``shot_rounds_per_s`` -- shots x rounds completed per second of wall
  (for the batch workloads the work of every job over the sum of their
  walls; for ``served_d3`` over the whole open loop, where it is the
  offered rate unless the server falls behind);
* ``stream_latency_p50_ms`` -- per served stream, from when its FINAL was
  due to when its RESULT arrived.  The batch workloads have no streams;
  there, since every workload reports every metric, it reads per job,
  from its call to its result.  The tail, ``stream_latency_p95_ms``, is
  the 95th percentile, or the highest percentile with at least ten
  samples beyond it when a run holds too few (``tail_percentile``).  It
  is reported with the per-layer metrics, from the traced run's untraced
  half, and carries no bound: a few seconds of co-tenant load move it, so
  ten 30 s runs of ``served_d3`` spread 0.33-0.59 (IQR/median) on a
  shared 2-vCPU host.  The result file records it, the percentile used
  and the sample count;
* ``peak_rss_mb`` -- peak resident memory of the process under test (this
  process, and for ``sweep_durable`` also its reaped pool workers, where
  the shard compute runs; the server process for ``served_d3``).

Every job wall counts; the result file lists them all, with the number
of jobs slower than ``SLOW_FACTOR`` times the median as a diagnostic.

``--trace 1`` alternates untraced and traced jobs (for ``served_d3``, an
untraced server for half the time, then a traced one), with spans wrapped
around public calls from outside (see ``tracing.py``), and prints the
per-layer table and metrics, including ``trace.overhead_frac`` and the
physics statistics, which must be identical with and without spans.

Each run first clears every ``REPRO_*`` variable, so no worker count,
cache, telemetry, kernel switch, chaos injection or scale knob from the
caller leaks in, and keeps its build products, scratch stores, results
(with a manifest) and traces under ``.bench_build/``.  The last line of
standard output is the result object; failures and output mismatches
are counted in ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

from served import ServedD3, status_metrics  # noqa: E402
from tracing import (  # noqa: E402
    SpanRecorder,
    covered_seconds,
    install,
    percentile,
    tail_percentile,
)
from workloads import (  # noqa: E402
    MIN_REPS,
    Phase,
    SimD5,
    SweepDurable,
    pinned_outputs,
    same_outputs,
)

WORKLOAD_CLASSES = {cls.name: cls for cls in (SimD5, ServedD3, SweepDurable)}
WORKLOADS = tuple(WORKLOAD_CLASSES)
SETUP_PROBES = 3
#: A job slower than this multiple of the median job counts as slowed (a
#: diagnostic only; every job enters the metrics).
SLOW_FACTOR = 1.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "shot_rounds_per_s": "1/s",
    "stream_latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "stream_latency_p95_ms": "ms",
    "sim.round_ms_p50": "ms",
    "sim.round_ms_p90": "ms",
    "sim.busy_s": "s",
    "core.prepare_s": "s",
    "sim.lrcs_per_round": "count",
    "sim.fp_per_round": "count",
    "sim.fn_per_round": "count",
    "sim.mean_dlp": "frac",
    "decoders.busy_s": "s",
    "decoders.us_per_unique": "us",
    "decoders.unique_frac": "frac",
    "decoders.cache_hit_rate": "frac",
    "decoders.build_s": "s",
    "realtime.commit_s": "s",
    "realtime.window_ms_p50": "ms",
    "realtime.window_ms_p95": "ms",
    "realtime.windows": "count",
    "serve.round_latency_p50_ns": "ns",
    "serve.round_latency_p99_ns": "ns",
    "serve.window_wait_p99_ns": "ns",
    "serve.coalesce_ratio": "ratio",
    "serve.max_queue_depth": "count",
    "serve.admission_rejected": "count",
    "serve.feed_ms_p99": "ms",
    "loadgen.late_ms_p99": "ms",
    "loadgen.late_ms_max": "ms",
    "sweeps.tasks": "count",
    "sweeps.shard_s_p50": "s",
    "fabric.wall_over_compute": "ratio",
    "fabric.store_bytes": "bytes",
    "fabric.store_files": "count",
    "trace.overhead_frac": "frac",
    "trace.covered_frac": "frac",
    "failed_frac": "frac",
}


@dataclass
class Outcome:
    """One run's metrics, correctness counts and what goes in the result file."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    outputs: Any
    info: dict[str, Any] = field(default_factory=dict)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_environment() -> None:
    """Clear the caller's ``REPRO_*`` knobs; keep every write in the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CKERNEL_DIR"] = str(BUILD / "ckernels")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int):
    return WORKLOAD_CLASSES[name](seed, ROOT)


def build_kernels() -> dict[str, bool]:
    """Compile (or load) the C kernels once, outside every timed region.

    The NumPy fallbacks are several times slower, so whether they loaded
    is part of every result's manifest.
    """
    from repro.decoders import _ckernels as decoder_kernels
    from repro.sim import _ckernels as sim_kernels

    return {
        "sim_ckernels": sim_kernels.available(),
        "decoder_ckernels": decoder_kernels.available(),
    }


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(kernels: dict[str, bool], pinned: bool) -> dict:
    import numpy

    from repro.sweeps.units import ENGINE_VERSION

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "engine_version": ENGINE_VERSION,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **kernels,
        "outputs_pinned": pinned,
    }


# --------------------------------------------------------------------- #
# End-to-end run
# --------------------------------------------------------------------- #
def probe_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb(workload) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(workload, SweepDurable):
        # The shard compute runs in the pool workers, reaped by the end of
        # every sweep.  (The setup probes are reaped children too; each peaks
        # at about this process's own setup footprint.)
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(workload, seconds: float) -> Outcome:
    probes = [probe_setup(workload.name, workload.seed) for _ in range(SETUP_PROBES)]
    info: dict[str, Any] = {"setup_probes_s": probes}
    if isinstance(workload, ServedD3):
        workload.record_inputs()
        workload.setup()
        try:
            phase = workload.measure(seconds)
        finally:
            peak_mb, _ = workload.close()
        rate = workload.work(phase) / phase.elapsed
        latencies = phase.latencies
        outputs = workload.outputs()
        info["loadgen.late_ms_p99"] = percentile(phase.late, 99) * 1e3
        info["status"] = {k: v for k, v in phase.status.items() if not isinstance(v, (dict, list))}
    else:
        workload.setup()
        phase = workload.measure(seconds)
        latencies = phase.walls
        typical = statistics.median(latencies)
        rate = sum(phase.work) / phase.elapsed
        peak_mb = peak_rss_mb(workload)
        outputs = phase.outputs[0]
        info["job_walls_s"] = phase.walls
        info["slow_jobs"] = sum(1 for wall in latencies if wall > SLOW_FACTOR * typical)
    tail, tail_q = tail_percentile(latencies, 95)
    info["samples"] = len(latencies)
    info["stream_latency_p95_ms"] = tail * 1e3
    info["stream_latency_tail_percentile"] = tail_q
    metrics = {
        "setup_s": statistics.median(probes),
        "shot_rounds_per_s": rate,
        "stream_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "peak_rss_mb": peak_mb,
    }
    return Outcome(metrics, phase.attempted, phase.failed, phase.problems, outputs, info)


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #
def traced(workload, seconds: float) -> Outcome:
    """Untraced and traced work in one run; per-layer metrics from the spans."""
    recorder = SpanRecorder()
    problems: list[str] = []
    extra: dict[str, float] = {}
    server_spans = []
    if isinstance(workload, ServedD3):
        half = seconds / 2
        workload.record_inputs()
        workload.setup()
        try:
            plain = workload.measure(half)
        finally:
            workload.close()
        # A second server, started under the same spans, serves the traced half.
        spans_out = BUILD / "tmp" / f"server-spans-{os.getpid()}.json"
        workload.setup(spans_out)
        try:
            with install(recorder):
                traced_phase = workload.measure(half)
        finally:
            _, server_spans = workload.close()
            spans_out.unlink(missing_ok=True)
        overhead = percentile(traced_phase.latencies, 50) / percentile(plain.latencies, 50) - 1.0
        untraced_latencies = plain.latencies
        traced_wall = traced_phase.elapsed
        # Coverage is the server's: the bench side records only asynchronous
        # feed spans, and the server's warm-up stream falls outside the window.
        window = (traced_phase.start, traced_phase.start + traced_phase.elapsed)
        outputs = workload.outputs()
        extra.update(status_metrics(traced_phase.status))
        extra["loadgen.late_ms_p99"] = percentile(traced_phase.late, 99) * 1e3
        extra["loadgen.late_ms_max"] = max(traced_phase.late) * 1e3
    else:
        workload.setup()
        # Untraced and traced jobs alternate, so host drift hits both alike.
        plain, traced_phase = Phase(), Phase()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(plain.walls) < MIN_REPS:
            workload.timed_job(plain)
            workload.recorder = recorder
            with install(recorder):
                workload.timed_job(traced_phase)
            workload.recorder = None
        traced_wall = traced_phase.elapsed
        window = (float("-inf"), float("inf"))
        if isinstance(workload, SweepDurable):
            started = time.perf_counter()
            with install(recorder):
                compute, rows = workload.shard_pass(recorder)
            traced_wall += time.perf_counter() - started
            if not same_outputs(rows, workload.references[0]):
                problems.append("in-process shard merge differs from the durable sweep rows")
            shards = [s.duration for s in recorder.named("sweeps.shard")]
            extra["sweeps.tasks"] = float(len(shards))
            extra["sweeps.shard_s_p50"] = percentile(shards, 50)
            extra["fabric.wall_over_compute"] = (
                statistics.median(plain.walls) * workload.workers / compute
            )
            extra["fabric.store_bytes"] = float(statistics.median(workload.store_bytes))
            extra["fabric.store_files"] = float(statistics.median(workload.store_files))
        overhead = statistics.median(traced_phase.walls) / statistics.median(plain.walls) - 1.0
        untraced_latencies = plain.walls
        outputs = traced_phase.outputs[-1]
        # Both phases cycle through the input sets in step.
        if not all(map(same_outputs, traced_phase.outputs, plain.outputs)):
            problems.append("traced outputs differ from untraced outputs")

    phases = (plain, traced_phase)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems += [problem for p in phases for problem in p.problems]
    spans = recorder.spans + server_spans
    metrics = layer_metrics(spans, covered_seconds(spans, *window) / traced_wall)
    metrics.update(extra)
    metrics["trace.overhead_frac"] = overhead
    metrics["stream_latency_p95_ms"] = tail_percentile(untraced_latencies, 95)[0] * 1e3
    metrics.update({f"sim.{k}": v for k, v in workload.physics(outputs).items()})
    metrics["failed_frac"] = failed / attempted

    recorder.spans = spans
    trace_path = BUILD / "traces" / f"{workload.name}-seed{workload.seed}.json"
    recorder.write_chrome_trace(trace_path, min((s.start for s in spans), default=0.0))
    info = {
        "layers": recorder.layer_table(traced_wall),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return Outcome(metrics, attempted, failed, problems, outputs, info)


def layer_metrics(spans, covered_frac: float) -> dict[str, float]:
    """Per-layer metrics from spans; a layer the workload never calls reads 0."""

    def durations(name: str) -> list[float]:
        return [s.duration for s in spans if s.name == name]

    def self_time(*names: str) -> float:
        return sum((s.self_s for s in spans if s.name in names), 0.0)

    decodes = [s for s in spans if s.name == "decoders.decode"]
    shots = sum(s.attrs["shots"] for s in decodes)
    unique = sum(s.attrs["unique"] for s in decodes)
    hits = sum(s.attrs["hits"] for s in decodes)
    lookups = hits + sum(s.attrs["misses"] for s in decodes)
    windows = durations("realtime.window")
    # The server's coalescer commits batched windows without a step() call.
    by_id = {s.id: s for s in spans}
    coalesced = sum(
        1
        for s in spans
        if s.name == "realtime.commit"
        and (s.parent is None or by_id[s.parent].name != "realtime.window")
    )
    decode_busy = self_time("decoders.decode")
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update(
        {
            "sim.round_ms_p50": percentile(durations("sim.round"), 50) * 1e3,
            "sim.round_ms_p90": percentile(durations("sim.round"), 90) * 1e3,
            "sim.busy_s": self_time("sim.round"),
            "core.prepare_s": self_time("core.prepare"),
            "decoders.busy_s": decode_busy,
            "decoders.us_per_unique": decode_busy * 1e6 / unique if unique else 0.0,
            "decoders.unique_frac": unique / shots if shots else 0.0,
            "decoders.cache_hit_rate": hits / lookups if lookups else 0.0,
            "decoders.build_s": self_time("decoders.graph", "decoders.all_pairs"),
            "realtime.commit_s": sum(durations("realtime.commit"), 0.0),
            "realtime.window_ms_p50": percentile(windows, 50) * 1e3,
            "realtime.window_ms_p95": percentile(windows, 95) * 1e3,
            "realtime.windows": float(len(windows) + coalesced),
            "serve.feed_ms_p99": percentile(durations("serve.feed"), 99) * 1e3,
            "trace.covered_frac": covered_frac,
        }
    )
    return metrics


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    hermetic_environment()
    workload = make_workload(args.workload, args.seed)

    if args.probe_setup:
        workload.setup()
        elapsed = time.perf_counter() - _STARTED
        if isinstance(workload, ServedD3):
            workload.shutdown()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    kernels = build_kernels()
    try:
        outcome = (traced if args.trace else end_to_end)(workload, args.seconds)
    finally:
        if isinstance(workload, ServedD3):
            workload.shutdown()
        for child in multiprocessing.active_children():
            child.join(timeout=30)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    pinned = pinned_outputs(workload.name, workload.fingerprint(), workload.seed) is not None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "manifest": manifest(kernels, pinned),
        "metrics": outcome.metrics,
        "info": outcome.info,
        "problems": outcome.problems,
        "outputs": outcome.outputs,
    }
    results = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2))

    print(json.dumps({"manifest": record["manifest"], "results": str(results.relative_to(ROOT))}))
    for problem in outcome.problems:
        print(f"problem: {problem}")
    if args.trace:
        print(f"{'layer':<10} {'self_s':>9} {'share':>7} {'spans':>8}")
        for row in outcome.info["layers"]:
            print(f"{row['layer']:<10} {row['self_s']:>9.3f} {row['share']:>7.1%} {row['spans']:>8}")
        print(f"trace.overhead_frac {outcome.metrics['trace.overhead_frac']:+.3f}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
