"""``served_d3``: an open loop against a real ``python -m repro serve``.

The server runs as its own process with its defaults (2 shards x 2
worker threads, fused ring sessions, cross-stream coalescing, window 4).
The benchmark process drives it over one TCP connection from one asyncio
thread: a new surface d=3 stream of 64 shots x 24 rounds arrives every
40 ms, and each stream feeds one round every 10 ms, so about 6 streams
are open at a time (600 offered stream-rounds/s).  That rate is fixed:
a capacity gain shows as lower latency, not as more work.  Syndromes are
recorded before the timed phase, and each stream is timed from when its
FINAL was due to when its RESULT arrived, so a stall that delays later
sends counts against the server; ``loadgen.late_ms_*`` shows how late the
generator itself ran.

Why: the wire, admission, shard queues and coalescing layers do most of
the work and decoding is small; it is the only workload that exercises
the ring-buffer ``FusedWindowSession`` and ``repro.serve``.  Exercises
``repro.serve``, ``repro.realtime.service``, ``repro.pipeline``,
``repro.realtime`` and ``repro.decoders`` (in the server process);
bypasses ``repro.sweeps`` and ``repro.fabric``, and the simulator only
records inputs before timing.
Sizing: on one 2-core host 8 streams x 64 shots at 400 rounds/s per
stream gave 6.7-8 ms from FINAL due to RESULT, and an in-process
``ServerThread`` made the generator up to 12 ms late (it shared the GIL
with the server), hence the separate process.  Here, at 100 rounds/s
per stream, 16 open streams kept p95 near 6 ms, 24 pushed p95 past
100 ms (saturation) and 32 hit the per-tenant admission cap.  At 12 open
streams (60% of that capacity) p95 was 4.5-5.4 ms on a quiet host, but
co-tenant load that slows the host up to 2x pushed the loop into
saturation (p95 490 ms in one of ten runs), so the offered 6 streams
are about 30% of quiet-host capacity.
"""

from __future__ import annotations

import asyncio
import json
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from tracing import Span
from workloads import pinned_outputs, same_outputs

__all__ = ["ServedD3", "ServerProcess"]

#: Seconds the server may take to print its listening banner.
SERVER_START_TIMEOUT_S = 60.0


class ServerProcess:
    """``python -m repro serve --port 0`` (or the traced launcher) as a child."""

    def __init__(self, root: Path, spans_out: Path | None = None) -> None:
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            launcher = Path(__file__).with_name("traced_server.py")
            command = [sys.executable, str(launcher), str(spans_out), "serve", "--port", "0"]
        self.spans_out = spans_out
        log = root / ".bench_build" / "server.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(
                command, cwd=root, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
            banner = self.proc.stdout.readline() if ready else ""
            match = re.search(r"serving on [^:\s]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"decode server did not start: {banner!r} (see {log})")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)) / 1024.0

    def stop(self) -> list[Span]:
        """Drain the server with SIGINT and wait for it; returns the spans the
        traced launcher wrote (none for a plain server)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        if self.spans_out is None or not self.spans_out.exists():
            return []
        return [Span(**entry) for entry in json.loads(self.spans_out.read_text())]


@dataclass
class OpenLoop:
    """What one open-loop phase observed."""

    latencies: list[float] = field(default_factory=list)  # seconds, FINAL due -> RESULT
    late: list[float] = field(default_factory=list)  # seconds, send time - due time
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    start: float = 0.0  # perf_counter when the first stream was due
    elapsed: float = 0.0
    failures: list[int | None] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    status: dict = field(default_factory=dict)


class ServedD3:
    name = "served_d3"
    shots = 64
    rounds = 24
    cadence_s = 0.010
    concurrency = 6
    records = 8
    code = {"family": "surface", "distance": 3}
    noise = {"p": 1e-3, "leakage_ratio": 1.0}

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.server: ServerProcess | None = None
        self.client = None
        self.loop = asyncio.new_event_loop()

    def fingerprint(self) -> dict:
        return {
            "shots": self.shots,
            "rounds": self.rounds,
            "records": self.records,
            "code": self.code,
            "noise": self.noise,
        }

    # ------------------------------------------------------------------ #
    # Inputs (recorded before any timing) and their reference decode
    # ------------------------------------------------------------------ #
    def record_inputs(self) -> None:
        """Record the syndromes and decode each record in-process.

        The reference is a plain ``WindowedDecoder`` (dict-buffered
        sessions, no coalescing, no wire) with the server's window
        geometry, so a served failure count that differs from it is an
        output error of the served path.
        """
        from repro.core import make_policy
        from repro.experiments import make_code
        from repro.noise import paper_noise
        from repro.realtime.window import WindowedDecoder
        from repro.sim import LeakageSimulator, SimulatorOptions

        code = make_code(self.code["family"], self.code["distance"])
        noise = paper_noise(**self.noise)
        self.inputs = []
        self.reference: list[int] = []
        self.recorded: list[dict[str, float]] = []
        for index in range(self.records):
            simulator = LeakageSimulator(
                code=code,
                noise=noise,
                policy=make_policy("gladiator+m"),
                options=SimulatorOptions(record_detectors=True),
                seed=self.seed * 1000 + index,
            )
            result = simulator.run(shots=self.shots, rounds=self.rounds)
            self.inputs.append(
                (result.detector_history, result.final_detectors, result.observable_flips)
            )
            decoder = WindowedDecoder(code=code, noise=noise, rounds=self.rounds, window_rounds=4)
            predictions = decoder.decode_batch(result.detector_history, result.final_detectors)
            self.reference.append(int((predictions ^ result.observable_flips).sum()))
            self.recorded.append(
                {
                    "lrcs_per_round": float(result.lrcs_per_round),
                    "fp_per_round": float(result.false_positives_per_round),
                    "fn_per_round": float(result.false_negatives_per_round),
                    "mean_dlp": float(result.mean_dlp),
                }
            )
        pinned = pinned_outputs(self.name, self.fingerprint(), self.seed)
        self.input_problems = (
            []
            if pinned is None or same_outputs(pinned, self.outputs())
            else ["recorded inputs or their in-process decode differ from pins.json"]
        )

    def outputs(self) -> dict:
        return {"reference_failures": self.reference, "recorded": self.recorded}

    def physics(self, outputs: dict) -> dict[str, float]:
        rows = outputs["recorded"]
        return {k: sum(row[k] for row in rows) / len(rows) for k in rows[0]}

    # ------------------------------------------------------------------ #
    # Server lifecycle
    # ------------------------------------------------------------------ #
    def setup(self, spans_out: Path | None = None) -> None:
        """Start the server, connect, and decode one warm-up stream."""
        from repro.experiments import make_code
        from repro.serve.client import ServeClient

        self.server = ServerProcess(self.root, spans_out)
        self.client = ServeClient()
        self.loop.run_until_complete(
            self.client.connect("127.0.0.1", self.server.port, tenant="bench")
        )
        code = make_code(self.code["family"], self.code["distance"])
        num_z = sum(1 for stabilizer in code.stabilizers if stabilizer.basis == "Z")
        zeros = np.zeros((self.shots, self.rounds, num_z), dtype=bool)
        final = np.zeros((self.shots, num_z), dtype=bool)
        self.loop.run_until_complete(self._warm_up(zeros, final))

    async def _warm_up(self, history: np.ndarray, final: np.ndarray) -> None:
        stream = await self.client.open_stream(
            code=self.code, noise=self.noise, shots=self.shots, rounds=self.rounds
        )
        for round_index in range(self.rounds):
            await stream.feed_round(history[:, round_index, :])
        await stream.finish(final, np.zeros(self.shots, dtype=bool))
        await stream.result()

    def close(self) -> tuple[float, list[Span]]:
        """Disconnect and stop the server; returns (peak RSS MiB, server spans)."""
        peak, spans = 0.0, []
        if self.client is not None:
            self.loop.run_until_complete(self.client.close())
            self.client = None
        if self.server is not None:
            peak = self.server.peak_rss_mb()
            spans = self.server.stop()
            self.server = None
        return peak, spans

    def shutdown(self) -> None:
        try:
            self.close()
        finally:
            self.loop.close()

    # ------------------------------------------------------------------ #
    # The open loop
    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> OpenLoop:
        return self.loop.run_until_complete(self._open_loop(seconds))

    async def _open_loop(self, seconds: float) -> OpenLoop:
        phase = OpenLoop()
        gap = self.rounds * self.cadence_s / self.concurrency
        count = max(1, int(seconds / gap))
        phase.start = time.perf_counter()
        tasks = []
        for index in range(count):
            arrival = phase.start + index * gap
            await _sleep_until(arrival)
            tasks.append(asyncio.ensure_future(self._stream(index, arrival, phase)))
        phase.failures = list(await asyncio.gather(*tasks))
        phase.elapsed = time.perf_counter() - phase.start
        phase.attempted = count
        for index, failures in enumerate(phase.failures):
            if failures != self.reference[index % self.records]:
                phase.failed += 1
        if self.input_problems:
            # The reference itself is off, so no stream can be trusted.
            phase.failed = count
            phase.problems += self.input_problems
        phase.status = await self.client.status()
        return phase

    async def _stream(self, index: int, arrival: float, phase: OpenLoop) -> int | None:
        from repro.serve.client import ServerError, StreamRejected

        history, final, flips = self.inputs[index % self.records]
        try:
            stream = await self.client.open_stream(
                code=self.code, noise=self.noise, shots=self.shots, rounds=self.rounds
            )
            for round_index in range(self.rounds):
                due = arrival + (round_index + 1) * self.cadence_s
                await _sleep_until(due)
                phase.late.append(time.perf_counter() - due)
                await stream.feed_round(history[:, round_index, :])
            # The final readout is due with the last round.
            await stream.finish(final, flips)
            result = await stream.result()
        except (StreamRejected, ServerError) as exc:
            phase.problems.append(f"stream {index}: {exc}")
            return None
        phase.latencies.append(time.perf_counter() - due)
        phase.completed += 1
        return result.failures

    def work(self, phase: OpenLoop) -> float:
        return phase.completed * self.shots * self.rounds


async def _sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


def status_metrics(status: dict[str, Any]) -> dict[str, float]:
    """The ``serve.*`` per-layer metrics read from a ``STATUS`` reply."""
    return {
        "serve.round_latency_p50_ns": float(status["round_latency_p50_ns"]),
        "serve.round_latency_p99_ns": float(status["round_latency_p99_ns"]),
        "serve.window_wait_p99_ns": float(status["window_wait_p99_ns"]),
        "serve.coalesce_ratio": float(status["coalesce_ratio"]),
        "serve.max_queue_depth": float(status["max_queue_depth"]),
        "serve.admission_rejected": float(status["admission_rejected"]),
    }
