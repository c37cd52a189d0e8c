"""Client library for the decode server.

:class:`ServeClient` is the asyncio client: connect, open streams, feed
round chunks, await results.  Incoming frames are demultiplexed by a
single reader task, so any number of streams can be in flight on one
connection concurrently.  :func:`decode_records` is the synchronous
convenience wrapper the examples and the capacity benchmark use: it runs
one event loop, fans every record out as its own stream (round chunks
interleaved, as a control system would deliver them) and returns the
per-stream results in order.

The client never decodes anything itself — predictions, failure counts
and latency summaries all come back over the wire, which is what makes
the end-to-end bit-identity tests meaningful.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_json,
    decode_result,
    encode_chunk,
    encode_final,
    encode_frame,
    encode_json,
)

__all__ = ["ServeClient", "ClientStream", "StreamResult", "StreamRejected", "decode_records"]


class StreamRejected(RuntimeError):
    """The server refused the stream (admission control or drain)."""


class ServerError(RuntimeError):
    """The server reported a stream or connection error."""


@dataclass(frozen=True)
class StreamResult:
    """What the server sent back for one finished stream."""

    stream: int
    predictions: np.ndarray
    failures: int | None
    summary: dict

    @property
    def logical_error_rate(self) -> float | None:
        if self.failures is None or self.predictions.size == 0:
            return None
        return self.failures / self.predictions.size


class ClientStream:
    """One open stream: feed rounds, finish, await the result."""

    def __init__(self, client: "ServeClient", stream_id: int, shots: int, rounds: int):
        self._client = client
        self.stream_id = stream_id
        self.shots = shots
        self.rounds = rounds
        self._fed = 0
        self.accepted: asyncio.Future = client._loop.create_future()
        self.outcome: asyncio.Future = client._loop.create_future()

    async def feed_round(self, detectors: np.ndarray) -> None:
        await self._client._write(
            FrameType.CHUNK, encode_chunk(self.stream_id, self._fed, detectors)
        )
        self._fed += 1

    async def finish(
        self,
        final_detectors: np.ndarray,
        observable_flips: np.ndarray | None = None,
    ) -> None:
        await self._client._write(
            FrameType.FINAL,
            encode_final(self.stream_id, final_detectors, observable_flips),
        )

    async def close(self) -> None:
        """Abort the stream server-side (no result will arrive)."""
        await self._client._write(
            FrameType.CLOSE_STREAM, encode_json({"stream": self.stream_id})
        )

    async def result(self) -> StreamResult:
        """Wait for the server's RESULT frame (raises on stream errors)."""
        return await self.outcome


class ServeClient:
    """Asyncio client for one connection to a decode server."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._streams: dict[int, ClientStream] = {}
        self._status_waiters: list[asyncio.Future] = []
        self._next_stream = 0
        self._reader_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]
        self.welcome: dict | None = None
        self.draining = False
        self._closed_exc: BaseException | None = None
        self.connect_retries = 0
        self.reject_retries = 0

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    async def connect(
        self,
        host: str,
        port: int,
        tenant: str = "anonymous",
        *,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> dict:
        """Connect and handshake; raises the server's first-frame errors.

        ``retries`` bounds extra connection attempts after a transient
        socket failure (refused, reset, unreachable); waits between
        attempts grow as ``backoff * 2**attempt``, capped at one second.
        The handshake itself is never retried — a server that answers
        with an ERROR frame is up and saying no.
        """
        self._loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            try:
                self._reader, self._writer = await asyncio.open_connection(host, port)
                break
            except OSError:
                if attempt >= retries:
                    raise
                await asyncio.sleep(min(backoff * 2**attempt, 1.0))
                attempt += 1
                self.connect_retries += 1
        await self._write(
            FrameType.HELLO,
            encode_json({"tenant": tenant, "protocol": PROTOCOL_VERSION}),
        )
        frame_type, payload = await self._read_frame()
        if frame_type == FrameType.ERROR:
            raise ServerError(decode_json(payload).get("error", "rejected"))
        if frame_type != FrameType.WELCOME:
            raise ProtocolError(f"expected WELCOME, got {frame_type.name}")
        self.welcome = decode_json(payload)
        self._reader_task = self._loop.create_task(self._read_loop())
        return self.welcome

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #
    async def open_stream(
        self,
        *,
        code: dict,
        noise: dict,
        shots: int,
        rounds: int,
        accept_retries: int = 0,
        retry_backoff: float = 0.05,
        **overrides,
    ) -> ClientStream:
        """OPEN a stream and wait for ACCEPT (raises :class:`StreamRejected`).

        ``code`` is ``{"family": "surface"|"color"|"toric", "distance": d}``
        and ``noise`` is ``{"p": ..., "leakage_ratio": ...}``; ``overrides``
        pass through per-stream decoder knobs (``window_rounds``,
        ``commit_rounds``, ``method``); the server ignores keys it does
        not know.

        ``accept_retries`` bounds re-OPEN attempts after a ``REJECT``
        (admission control pushes back when the server or tenant is at
        capacity — transient by design, capacity frees as streams finish).
        Each attempt uses a fresh stream id and waits
        ``retry_backoff * 2**attempt`` (capped at one second) first.
        Stream errors and protocol errors are never retried.
        """
        attempt = 0
        while True:
            stream_id = self._next_stream
            self._next_stream += 1
            stream = ClientStream(self, stream_id, shots, rounds)
            self._streams[stream_id] = stream
            request = {
                "stream": stream_id,
                "shots": int(shots),
                "rounds": int(rounds),
                "code": code,
                "noise": noise,
            }
            request.update({k: v for k, v in overrides.items() if v is not None})
            await self._write(FrameType.OPEN, encode_json(request))
            try:
                await stream.accepted
            except StreamRejected:
                # The server never saw this id accept; drop the handle so a
                # late RESULT for a recycled id cannot alias onto it.
                self._streams.pop(stream_id, None)
                if attempt >= accept_retries:
                    raise
                await asyncio.sleep(min(retry_backoff * 2**attempt, 1.0))
                attempt += 1
                self.reject_retries += 1
                continue
            return stream

    async def status(self) -> dict:
        """Fetch the server's live SLO/status snapshot."""
        future: asyncio.Future = self._loop.create_future()
        self._status_waiters.append(future)
        await self._write(FrameType.STATUS, encode_json({}))
        return await future

    # ------------------------------------------------------------------ #
    # Wire internals
    # ------------------------------------------------------------------ #
    async def _write(self, frame_type: FrameType, payload: bytes) -> None:
        if self._writer is None:
            raise ConnectionError("client is not connected")
        if self._closed_exc is not None:
            raise ServerError(str(self._closed_exc))
        async with self._write_lock:
            self._writer.write(encode_frame(frame_type, payload))
            await self._writer.drain()

    async def _read_frame(self) -> tuple[FrameType, bytes]:
        assert self._reader is not None
        decoder = FrameDecoder()
        while True:
            data = await self._reader.read(64 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            frames = decoder.feed(data)
            if frames:
                if decoder.buffered or len(frames) > 1:
                    # Pre-reader-task frames arrive one at a time (handshake).
                    raise ProtocolError("unexpected pipelined frames in handshake")
                return frames[0]

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    raise ConnectionError("server closed the connection")
                for frame_type, payload in decoder.feed(data):
                    self._handle_frame(frame_type, payload)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._closed_exc = exc
            for stream in self._streams.values():
                for future in (stream.accepted, stream.outcome):
                    if not future.done():
                        future.set_exception(ServerError(str(exc)))
            for future in self._status_waiters:
                if not future.done():
                    future.set_exception(ServerError(str(exc)))

    def _handle_frame(self, frame_type: FrameType, payload: bytes) -> None:
        if frame_type == FrameType.RESULT:
            stream_id, predictions, failures, summary = decode_result(payload)
            stream = self._streams.get(stream_id)
            if stream is not None and not stream.outcome.done():
                stream.outcome.set_result(
                    StreamResult(stream_id, predictions, failures, summary)
                )
        elif frame_type == FrameType.ACCEPT:
            message = decode_json(payload)
            stream = self._streams.get(int(message.get("stream", -1)))
            if stream is not None and not stream.accepted.done():
                stream.accepted.set_result(True)
        elif frame_type == FrameType.REJECT:
            message = decode_json(payload)
            stream = self._streams.get(int(message.get("stream", -1)))
            if stream is not None and not stream.accepted.done():
                stream.accepted.set_exception(
                    StreamRejected(message.get("reason", "rejected"))
                )
        elif frame_type == FrameType.STREAM_ERROR:
            message = decode_json(payload)
            stream = self._streams.get(int(message.get("stream", -1)))
            if stream is not None:
                error = ServerError(message.get("error", "stream failed"))
                for future in (stream.accepted, stream.outcome):
                    if not future.done():
                        future.set_exception(error)
        elif frame_type == FrameType.STATUS_REPLY:
            if self._status_waiters:
                future = self._status_waiters.pop(0)
                if not future.done():
                    future.set_result(decode_json(payload))
        elif frame_type == FrameType.DRAIN:
            self.draining = True
        elif frame_type == FrameType.ERROR:
            raise ServerError(decode_json(payload).get("error", "server error"))
        else:
            raise ProtocolError(f"unexpected server frame {frame_type.name}")


async def _drive_streams(
    host: str,
    port: int,
    tenant: str,
    records,
    code: dict,
    noise: dict,
    connect_retries: int,
    accept_retries: int,
    retry_backoff: float,
    **overrides,
) -> list[StreamResult]:
    async with ServeClient() as client:
        await client.connect(
            host, port, tenant=tenant, retries=connect_retries, backoff=retry_backoff
        )
        streams = []
        for history, final, flips in records:
            history = np.asarray(history, dtype=bool)
            streams.append(
                await client.open_stream(
                    code=code,
                    noise=noise,
                    shots=history.shape[0],
                    rounds=history.shape[1],
                    accept_retries=accept_retries,
                    retry_backoff=retry_backoff,
                    **overrides,
                )
            )
        # Interleave: round r of every stream before round r+1 of any —
        # the arrival order a multiplexed control system produces.
        max_rounds = max((np.asarray(h).shape[1] for h, _, _ in records), default=0)
        for round_index in range(max_rounds):
            for (history, _, _), stream in zip(records, streams):
                if round_index < np.asarray(history).shape[1]:
                    await stream.feed_round(
                        np.asarray(history, dtype=bool)[:, round_index, :]
                    )
        for (_, final, flips), stream in zip(records, streams):
            await stream.finish(final, flips)
        return list(
            await asyncio.gather(*(stream.result() for stream in streams))
        )


def decode_records(
    host: str,
    port: int,
    records,
    *,
    code: dict,
    noise: dict,
    tenant: str = "anonymous",
    connect_retries: int = 0,
    accept_retries: int = 0,
    retry_backoff: float = 0.05,
    **overrides,
) -> list[StreamResult]:
    """Decode recorded streams through a running server, synchronously.

    ``records`` is a sequence of ``(detector_history, final_detectors,
    observable_flips_or_None)`` triples; each becomes one concurrent stream
    on a single connection.  Returns the per-stream results in input order.
    ``connect_retries``/``accept_retries``/``retry_backoff`` bound retries
    of transient socket failures and admission ``REJECT``s (see
    :meth:`ServeClient.connect` and :meth:`ServeClient.open_stream`); they
    are client-side knobs and never appear in the wire request.
    """
    return asyncio.run(
        _drive_streams(
            host,
            port,
            tenant,
            list(records),
            code,
            noise,
            connect_retries,
            accept_retries,
            retry_backoff,
            **overrides,
        )
    )
