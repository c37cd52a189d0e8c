"""Wire protocol of the decode service: length-prefixed binary frames.

One frame is ``[u32 big-endian length][u8 type][payload]`` where ``length``
counts the type byte plus the payload.  Control frames (session setup,
stream management, status) carry UTF-8 JSON payloads; data frames (round
chunks, final readouts, results) carry a fixed binary header followed by
``np.packbits``-packed detector bits — eight detectors per byte, the same
packed domain the window session's ring buffer
(:class:`repro.pipeline.PackedRing`) holds, so a round chunk on the wire
is one eighth of its boolean footprint.

Robustness contract: anything a peer can send — truncated frames, garbage
bytes, oversized lengths, unknown types, malformed JSON, packed payloads
of the wrong size — surfaces as :class:`ProtocolError` from the incremental
:class:`FrameDecoder` or the typed ``decode_*`` helpers.  Connection
handlers catch it, answer with an ``ERROR`` frame and drop that one
connection; it never propagates into the event loop.  The hypothesis suite
in ``tests/test_serve_protocol.py`` round-trips and fuzzes every codec in
this module.
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD",
    "FrameType",
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "encode_json",
    "decode_json",
    "pack_bools",
    "unpack_bools",
    "encode_chunk",
    "decode_chunk",
    "encode_final",
    "decode_final",
    "encode_result",
    "decode_result",
]

PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload (type byte included).  A d=25 toric
#: round for 4096 shots packs well under 1 MiB; 16 MiB leaves headroom for
#: large final readouts while bounding what a hostile peer can make the
#: server buffer.
MAX_PAYLOAD = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_CHUNK_HEADER = struct.Struct(">IIII")  # stream, round, shots, detectors
_FINAL_HEADER = struct.Struct(">IIIB")  # stream, shots, detectors, flags
_RESULT_HEADER = struct.Struct(">IIi")  # stream, shots, failures (-1: unknown)


class FrameType(IntEnum):
    """Frame type tags; JSON unless noted as binary."""

    HELLO = 1  # client->server: {tenant, protocol}
    WELCOME = 2  # server->client: {server, protocol, shards}
    # client->server: {stream, shots, rounds, code, noise} plus optional
    # window_rounds / commit_rounds / method; other keys are ignored
    OPEN = 3
    ACCEPT = 4  # server->client: {stream}
    REJECT = 5  # server->client: {stream, reason}
    CHUNK = 6  # client->server: binary round chunk
    FINAL = 7  # client->server: binary final readout
    RESULT = 8  # server->client: binary predictions + JSON summary
    STREAM_ERROR = 9  # server->client: {stream, error}
    CLOSE_STREAM = 10  # client->server: {stream}  (abort)
    STATUS = 11  # client->server: {}
    STATUS_REPLY = 12  # server->client: live SLO/stats snapshot
    ERROR = 13  # server->client: {error}; the connection is then closed
    DRAIN = 14  # server->client: {reason}; no new OPENs will be accepted


class ProtocolError(ValueError):
    """A malformed frame or payload; kills the connection, not the server."""


def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """Serialise one frame (length prefix + type byte + payload)."""
    if len(payload) + 1 > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD")
    return _LENGTH.pack(len(payload) + 1) + bytes([FrameType(frame_type)]) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    ``feed`` accepts whatever the transport produced (any split points) and
    returns the complete frames it can now parse, in order.  Malformed
    input raises :class:`ProtocolError` and poisons the decoder — the
    connection is unrecoverable by design, there is no resynchronisation.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[FrameType, bytes]]:
        if self._poisoned:
            raise ProtocolError("decoder already failed; connection must close")
        self._buffer.extend(data)
        frames: list[tuple[FrameType, bytes]] = []
        try:
            while True:
                if len(self._buffer) < _LENGTH.size:
                    return frames
                (length,) = _LENGTH.unpack_from(self._buffer)
                if length == 0:
                    raise ProtocolError("zero-length frame")
                if length > MAX_PAYLOAD:
                    raise ProtocolError(
                        f"frame of {length} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
                    )
                if len(self._buffer) < _LENGTH.size + length:
                    return frames
                body = bytes(self._buffer[_LENGTH.size : _LENGTH.size + length])
                del self._buffer[: _LENGTH.size + length]
                try:
                    frame_type = FrameType(body[0])
                except ValueError as exc:
                    raise ProtocolError(f"unknown frame type {body[0]}") from exc
                frames.append((frame_type, body[1:]))
        except ProtocolError:
            self._poisoned = True
            raise


# --------------------------------------------------------------------- #
# JSON control payloads
# --------------------------------------------------------------------- #
def encode_json(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON payload must be an object")
    return obj


# --------------------------------------------------------------------- #
# Packed boolean blocks
# --------------------------------------------------------------------- #
def pack_bools(array: np.ndarray) -> bytes:
    """Bit-pack a boolean array (row-major, 8 bits per byte)."""
    return np.packbits(np.asarray(array, dtype=bool).reshape(-1)).tobytes()


def unpack_bools(data: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_bools`; validates the byte count exactly."""
    bits = int(np.prod(shape, dtype=np.int64)) if shape else 1
    expected = (bits + 7) // 8
    if len(data) != expected:
        raise ProtocolError(
            f"packed block of {len(data)} bytes; expected {expected} for shape {shape}"
        )
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=bits)
    return flat.astype(bool).reshape(shape)


def _packed_size(bits: int) -> int:
    return (bits + 7) // 8


def _split(payload: bytes, offset: int, size: int, what: str) -> bytes:
    if len(payload) < offset + size:
        raise ProtocolError(f"truncated {what}: {len(payload)} bytes")
    return payload[offset : offset + size]


# --------------------------------------------------------------------- #
# CHUNK: one syndrome round for one stream
# --------------------------------------------------------------------- #
def encode_chunk(stream: int, round_index: int, detectors: np.ndarray) -> bytes:
    """Payload of a ``CHUNK`` frame for a ``(shots, detectors)`` bool round."""
    chunk = np.asarray(detectors, dtype=bool)
    if chunk.ndim != 2:
        raise ProtocolError("round chunk must be 2-D (shots, detectors)")
    shots, width = chunk.shape
    header = _CHUNK_HEADER.pack(stream, round_index, shots, width)
    return header + pack_bools(chunk)


def decode_chunk(payload: bytes) -> tuple[int, int, np.ndarray]:
    """``(stream, round_index, detectors)`` from a ``CHUNK`` payload."""
    try:
        stream, round_index, shots, width = _CHUNK_HEADER.unpack_from(payload)
    except struct.error as exc:
        raise ProtocolError(f"truncated chunk header: {len(payload)} bytes") from exc
    packed = payload[_CHUNK_HEADER.size :]
    detectors = unpack_bools(packed, (shots, width))
    return stream, round_index, detectors


# --------------------------------------------------------------------- #
# FINAL: end-of-stream transversal readout (+ optional true observables)
# --------------------------------------------------------------------- #
def encode_final(
    stream: int,
    final_detectors: np.ndarray,
    observable_flips: np.ndarray | None = None,
) -> bytes:
    final = np.asarray(final_detectors, dtype=bool)
    if final.ndim != 2:
        raise ProtocolError("final readout must be 2-D (shots, detectors)")
    shots, width = final.shape
    flags = 0
    tail = b""
    if observable_flips is not None:
        flips = np.asarray(observable_flips, dtype=bool).reshape(-1)
        if flips.shape != (shots,):
            raise ProtocolError(f"observable_flips must have {shots} entries")
        flags |= 1
        tail = pack_bools(flips)
    header = _FINAL_HEADER.pack(stream, shots, width, flags)
    return header + pack_bools(final) + tail


def decode_final(payload: bytes) -> tuple[int, np.ndarray, np.ndarray | None]:
    try:
        stream, shots, width, flags = _FINAL_HEADER.unpack_from(payload)
    except struct.error as exc:
        raise ProtocolError(f"truncated final header: {len(payload)} bytes") from exc
    if flags & ~1:
        raise ProtocolError(f"unknown final flags {flags:#x}")
    offset = _FINAL_HEADER.size
    final_size = _packed_size(shots * width)
    final = unpack_bools(
        _split(payload, offset, final_size, "final readout"), (shots, width)
    )
    offset += final_size
    flips: np.ndarray | None = None
    if flags & 1:
        flips_size = _packed_size(shots)
        flips = unpack_bools(
            _split(payload, offset, flips_size, "observable flips"), (shots,)
        )
        offset += flips_size
    if len(payload) != offset:
        raise ProtocolError(f"{len(payload) - offset} trailing bytes in final frame")
    return stream, final, flips


# --------------------------------------------------------------------- #
# RESULT: per-shot predictions plus the stream's latency summary
# --------------------------------------------------------------------- #
def encode_result(
    stream: int,
    predictions: np.ndarray,
    failures: int | None,
    summary: dict,
) -> bytes:
    flips = np.asarray(predictions, dtype=bool).reshape(-1)
    header = _RESULT_HEADER.pack(
        stream, flips.shape[0], -1 if failures is None else int(failures)
    )
    return header + pack_bools(flips) + encode_json(summary)


def decode_result(payload: bytes) -> tuple[int, np.ndarray, int | None, dict]:
    try:
        stream, shots, failures = _RESULT_HEADER.unpack_from(payload)
    except struct.error as exc:
        raise ProtocolError(f"truncated result header: {len(payload)} bytes") from exc
    offset = _RESULT_HEADER.size
    packed_size = _packed_size(shots)
    predictions = unpack_bools(
        _split(payload, offset, packed_size, "predictions"), (shots,)
    )
    summary = decode_json(payload[offset + packed_size :])
    return stream, predictions, None if failures < 0 else failures, summary
