"""The asyncio decode server: tenants, shards, admission, drain.

Topology: one asyncio event loop owns every connection; decoding happens on
``shards`` independent :class:`~repro.realtime.DecodeService` instances
(each with its own scheduler, worker pool, bounded queue and shared
syndrome cache), so network I/O never waits on a window decode and one
hot tenant cannot monopolise every worker thread.  Streams are assigned to
shards round-robin at ``OPEN`` time and stay there for life — per-stream
ordering is the shard's problem, exactly as in-process.

Flow control happens at three rings:

* **admission** — an ``OPEN`` is rejected (``REJECT`` frame, counted in
  the SLO snapshot) when the server-wide or per-tenant concurrent-stream
  cap is reached; the client may retry later,
* **per-tenant token bucket** — each tenant's inbound ``CHUNK`` frames
  drain a token bucket (``tenant_rate`` rounds/s, burst ``tenant_burst``);
  an empty bucket suspends *that tenant's* connections' reads, which TCP
  turns into backpressure on the sender while other tenants keep flowing,
* **shard queue** — inside a shard the bounded window queue blocks the
  scheduler exactly as the in-process service always has.

Shutdown is a graceful drain: stop accepting connections, broadcast
``DRAIN``, give in-flight streams ``drain_timeout`` seconds to deliver
their final readouts and collect results, then abort stragglers and join
every shard thread (:meth:`DecodeService.close` is idempotent and raceless
against streams closing mid-window, so a drain racing a disconnect is
safe).

The module is stdlib-only (asyncio + the repo's own packages): no
framework, nothing to install.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..codes import color_code, surface_code, toric_code
from ..noise import NoiseParams, paper_noise
from ..obs.trace import span
from ..realtime.service import DecodeService, ServiceClosed, StreamHandle
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_chunk,
    decode_final,
    decode_json,
    encode_frame,
    encode_json,
    encode_result,
)
from .slo import SloTracker

__all__ = ["ServerConfig", "DecodeServer", "TokenBucket", "resolve_code", "resolve_noise"]

_CODE_FAMILIES = {
    "surface": surface_code,
    "color": color_code,
    "toric": toric_code,
}


def resolve_code(spec: dict):
    """Build a code from its wire spec ``{"family": ..., "distance": ...}``."""
    if not isinstance(spec, dict):
        raise ProtocolError("code spec must be an object")
    family = spec.get("family", "surface")
    builder = _CODE_FAMILIES.get(family)
    if builder is None:
        raise ProtocolError(
            f"unknown code family {family!r}; expected one of {sorted(_CODE_FAMILIES)}"
        )
    try:
        return builder(int(spec.get("distance", 3)))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad code spec {spec!r}: {exc}") from exc


def resolve_noise(spec: dict) -> NoiseParams:
    """Build noise from its wire spec ``{"p": ..., "leakage_ratio": ...}``."""
    if not isinstance(spec, dict):
        raise ProtocolError("noise spec must be an object")
    try:
        return paper_noise(
            p=float(spec.get("p", 1e-3)),
            leakage_ratio=float(spec.get("leakage_ratio", 0.1)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad noise spec {spec!r}: {exc}") from exc


class TokenBucket:
    """Async token bucket: ``rate`` tokens/second, burst capacity ``burst``.

    ``acquire`` waits until a token is available, so an over-rate tenant's
    coroutine simply stops reading its socket — kernel buffers fill and TCP
    pushes back on the sender without the server buffering anything.
    ``rate=None`` disables metering (every acquire returns immediately).
    """

    def __init__(self, rate: float | None, burst: float) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        self.rate = rate
        self.burst = max(1.0, float(burst))
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = asyncio.Lock()

    async def acquire(self, tokens: float = 1.0) -> None:
        if self.rate is None:
            return
        async with self._lock:
            while True:
                now = time.monotonic()
                self._tokens = min(
                    self.burst, self._tokens + (now - self._stamp) * self.rate
                )
                self._stamp = now
                if self._tokens >= tokens:
                    self._tokens -= tokens
                    return
                await asyncio.sleep((tokens - self._tokens) / self.rate)


@dataclass
class ServerConfig:
    """Deployment shape of one decode server (not part of any experiment
    digest — these knobs change capacity and latency, never results).

    Every shard is a :class:`DecodeService`: it coalesces same-pass ready
    windows across its streams and decodes through one syndrome cache of
    the default capacity, with the one matching behaviour (exact up to 60
    fired detectors, greedy beyond).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port; read it back from DecodeServer.port
    shards: int = 2
    workers_per_shard: int = 2
    queue_depth: int | None = None
    max_streams: int = 256
    max_streams_per_tenant: int = 64
    tenant_rate: float | None = None  # round chunks/second; None: unmetered
    tenant_burst: float = 64.0
    window_rounds: int = 4
    commit_rounds: int | None = None
    method: str = "matching"
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.max_streams <= 0 or self.max_streams_per_tenant <= 0:
            raise ValueError("admission caps must be positive")


@dataclass
class _OpenStream:
    """Server-side bookkeeping for one admitted stream."""

    client_id: int
    tenant: str
    handle: StreamHandle
    rounds: int
    rounds_fed: int = 0
    closed: bool = False


class Transport:
    """What a connection needs from its wire: framed sends and a close.

    The TCP path writes length-prefixed frames to a stream writer; the
    websocket adapter wraps the same ``(type, payload)`` pairs in RFC 6455
    binary messages.  Everything above this interface is shared.
    """

    async def send(self, frame_type: int, payload: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _TcpTransport(Transport):
    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer

    async def send(self, frame_type: int, payload: bytes) -> None:
        self.writer.write(encode_frame(frame_type, payload))
        await self.writer.drain()

    def close(self) -> None:
        self.writer.close()


@dataclass(eq=False)
class _Connection:
    """Per-connection state: identity plus the streams it opened."""

    transport: Transport
    tenant: str | None = None
    streams: dict[int, _OpenStream] = field(default_factory=dict)
    send_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class DecodeServer:
    """Serve decode streams over TCP using the frame protocol.

    Lifecycle::

        server = DecodeServer(ServerConfig(port=0))
        await server.start()
        ...
        await server.shutdown()     # graceful drain

    ``serve_forever`` wraps the above for the CLI.  The server works
    entirely through its shards' public :class:`DecodeService` API, so
    anything it serves is bit-identical to in-process decoding by
    construction — pinned end to end in ``tests/test_serve.py``.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.slo = SloTracker()
        self.shards = [
            DecodeService(
                window_rounds=self.config.window_rounds,
                commit_rounds=self.config.commit_rounds,
                method=self.config.method,
                workers=self.config.workers_per_shard,
                queue_depth=self.config.queue_depth,
                observer=self.slo,
            )
            for _ in range(self.config.shards)
        ]
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._buckets: dict[str, TokenBucket] = {}
        self._tenant_streams: dict[str, int] = {}
        self._active_streams = 0
        self._next_shard = 0
        self._draining = False
        self.started_at: float | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        for shard in self.shards:
            shard.start()
        self._server = await asyncio.start_server(
            self._handle_tcp, host=self.config.host, port=self.config.port
        )
        self.started_at = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: finish what can finish, then abort and join."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in list(self._connections):
            await self._send_safe(connection, FrameType.DRAIN, encode_json({"reason": "shutdown"}))
        deadline = time.monotonic() + self.config.drain_timeout
        while self._active_streams > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        loop = asyncio.get_running_loop()
        for shard in self.shards:
            # close() joins threads; keep the event loop responsive.
            await loop.run_in_executor(None, lambda s=shard: s.close(True, 1.0))
        for connection in list(self._connections):
            connection.transport.close()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def status(self) -> dict:
        """The live status document (``STATUS_REPLY`` / ``--status`` body)."""
        snapshot = self.slo.snapshot()
        snapshot.update(
            {
                "active_streams": self._active_streams,
                "connections": len(self._connections),
                "draining": self._draining,
                "uptime_seconds": (
                    0.0 if self.started_at is None else time.monotonic() - self.started_at
                ),
                "shards": [shard.stats() for shard in self.shards],
            }
        )
        return snapshot

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def frames():
            decoder = FrameDecoder()
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                for item in decoder.feed(data):
                    yield item

        try:
            await self.handle_session(_TcpTransport(writer), frames())
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def handle_session(self, transport: Transport, frames) -> None:
        """Run one client session: ``frames`` is an async iterator of
        ``(FrameType, payload)`` pairs (the websocket adapter supplies its
        own); :class:`ProtocolError` from it or from dispatch answers with
        an ``ERROR`` frame and ends the session — never the event loop."""
        connection = _Connection(transport=transport)
        self._connections.add(connection)
        try:
            async for frame_type, payload in frames:
                await self._dispatch(connection, frame_type, payload)
        except ProtocolError as exc:
            # One bad peer never takes down the loop: answer and hang up.
            await self._send_safe(
                connection, FrameType.ERROR, encode_json({"error": str(exc)})
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(connection)
            for stream in list(connection.streams.values()):
                if not stream.closed:
                    stream.handle.abort()

    async def _dispatch(
        self, connection: _Connection, frame_type: FrameType, payload: bytes
    ) -> None:
        if frame_type == FrameType.HELLO:
            hello = decode_json(payload)
            if hello.get("protocol", PROTOCOL_VERSION) != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol {hello.get('protocol')!r}; "
                    f"server speaks {PROTOCOL_VERSION}"
                )
            connection.tenant = str(hello.get("tenant", "anonymous"))
            await self._send(
                connection,
                FrameType.WELCOME,
                encode_json(
                    {
                        "server": "repro.serve",
                        "protocol": PROTOCOL_VERSION,
                        "shards": len(self.shards),
                    }
                ),
            )
            return
        if connection.tenant is None:
            raise ProtocolError(f"first frame must be HELLO, not {frame_type.name}")
        if frame_type == FrameType.OPEN:
            await self._handle_open(connection, decode_json(payload))
        elif frame_type == FrameType.CHUNK:
            await self._handle_chunk(connection, payload)
        elif frame_type == FrameType.FINAL:
            await self._handle_final(connection, payload)
        elif frame_type == FrameType.CLOSE_STREAM:
            message = decode_json(payload)
            stream = connection.streams.get(int(message.get("stream", -1)))
            if stream is not None and not stream.closed:
                stream.handle.abort()
        elif frame_type == FrameType.STATUS:
            await self._send(
                connection, FrameType.STATUS_REPLY, encode_json(self.status())
            )
        else:
            raise ProtocolError(f"unexpected client frame {frame_type.name}")

    async def _handle_open(self, connection: _Connection, request: dict) -> None:
        tenant = connection.tenant
        assert tenant is not None
        try:
            client_id = int(request["stream"])
            shots = int(request["shots"])
            rounds = int(request["rounds"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad OPEN request: {exc}") from exc
        if client_id in connection.streams:
            raise ProtocolError(f"stream {client_id} already open on this connection")
        reason = None
        if self._draining:
            reason = "server is draining"
        elif self._active_streams >= self.config.max_streams:
            reason = f"server at capacity ({self.config.max_streams} streams)"
        elif self._tenant_streams.get(tenant, 0) >= self.config.max_streams_per_tenant:
            reason = (
                f"tenant at capacity ({self.config.max_streams_per_tenant} streams)"
            )
        if reason is not None:
            self.slo.on_rejected()
            await self._send(
                connection,
                FrameType.REJECT,
                encode_json({"stream": client_id, "reason": reason}),
            )
            return
        code = resolve_code(request.get("code", {}))
        noise = resolve_noise(request.get("noise", {}))
        shard = self.shards[self._next_shard % len(self.shards)]
        self._next_shard += 1
        try:
            with span("serve.open", tenant=tenant, shard=self._next_shard - 1):
                handle = shard.open_stream(
                    code=code,
                    noise=noise,
                    shots=shots,
                    rounds=rounds,
                    label=tenant,
                    window_rounds=request.get("window_rounds"),
                    commit_rounds=request.get("commit_rounds"),
                    method=request.get("method"),
                )
        except ServiceClosed:
            self.slo.on_rejected()
            await self._send(
                connection,
                FrameType.REJECT,
                encode_json({"stream": client_id, "reason": "shard is closed"}),
            )
            return
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad OPEN request: {exc}") from exc
        stream = _OpenStream(
            client_id=client_id, tenant=tenant, handle=handle, rounds=rounds
        )
        connection.streams[client_id] = stream
        self._active_streams += 1
        self._tenant_streams[tenant] = self._tenant_streams.get(tenant, 0) + 1
        loop = asyncio.get_running_loop()

        def _spawn_finish() -> None:
            task = loop.create_task(self._finish_stream(connection, stream))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

        def _on_done() -> None:
            # Fires on a shard thread; hop to the loop.  A loop torn down
            # mid-shutdown just means nobody is left to read the result.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_spawn_finish)

        handle.add_done_callback(_on_done)
        await self._send(
            connection, FrameType.ACCEPT, encode_json({"stream": client_id})
        )

    async def _handle_chunk(self, connection: _Connection, payload: bytes) -> None:
        client_id, round_index, detectors = decode_chunk(payload)
        stream = self._stream_for(connection, client_id)
        if stream is None:
            return  # stream already errored/aborted; drop quietly
        if round_index != stream.rounds_fed:
            raise ProtocolError(
                f"stream {client_id} expected round {stream.rounds_fed}, "
                f"got {round_index}"
            )
        bucket = self._bucket_for(stream.tenant)
        await bucket.acquire()
        try:
            stream.handle.feed_round(detectors)
        except (ServiceClosed, RuntimeError):
            return  # racing its own completion/abort; result frame explains
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        stream.rounds_fed += 1

    async def _handle_final(self, connection: _Connection, payload: bytes) -> None:
        client_id, final, flips = decode_final(payload)
        stream = self._stream_for(connection, client_id)
        if stream is None:
            return
        try:
            stream.handle.finish(final, flips)
        except (ServiceClosed, RuntimeError):
            return
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def _stream_for(self, connection: _Connection, client_id: int) -> _OpenStream | None:
        stream = connection.streams.get(client_id)
        if stream is None:
            raise ProtocolError(f"stream {client_id} is not open")
        return None if stream.closed else stream

    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate, self.config.tenant_burst)
            self._buckets[tenant] = bucket
        return bucket

    async def _finish_stream(self, connection: _Connection, stream: _OpenStream) -> None:
        """Deliver the outcome of a finished stream (runs on the loop)."""
        if stream.closed:
            return
        stream.closed = True
        self._active_streams -= 1
        count = self._tenant_streams.get(stream.tenant, 1) - 1
        if count <= 0:
            self._tenant_streams.pop(stream.tenant, None)
        else:
            self._tenant_streams[stream.tenant] = count
        handle = stream.handle
        if handle.error is not None:
            await self._send_safe(
                connection,
                FrameType.STREAM_ERROR,
                encode_json({"stream": stream.client_id, "error": str(handle.error)}),
            )
            return
        predictions = handle.predictions
        if predictions is None:  # aborted
            return
        await self._send_safe(
            connection,
            FrameType.RESULT,
            encode_result(
                stream.client_id,
                np.asarray(predictions, dtype=bool),
                handle.failures,
                handle.report().summary(),
            ),
        )

    # ------------------------------------------------------------------ #
    # Frame output
    # ------------------------------------------------------------------ #
    async def _send(
        self, connection: _Connection, frame_type: FrameType, payload: bytes
    ) -> None:
        async with connection.send_lock:
            await connection.transport.send(frame_type, payload)

    async def _send_safe(
        self, connection: _Connection, frame_type: FrameType, payload: bytes
    ) -> None:
        with contextlib.suppress(Exception):
            await self._send(connection, frame_type, payload)
