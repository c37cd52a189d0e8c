"""End-to-end tests of the decode server (``repro.serve``).

The load-bearing property is bit-identity: predictions that come back over
the wire must equal a plain per-record :class:`WindowedDecoder` decode of
the same recorded streams (no multiplexing, no coalescing, no wire), across
the full code-family × decoder-method × traffic-shape matrix.  Around that
sit the service-level behaviors: admission control, per-tenant caps, the
live SLO snapshot, the websocket gateway and graceful drain.
"""

import asyncio
import base64
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.codes import color_code, surface_code, toric_code
from repro.core import make_policy
from repro.noise import paper_noise
from repro.realtime import WindowedDecoder
from repro.serve import (
    FrameType,
    ServeClient,
    ServerConfig,
    ServerThread,
    StreamRejected,
    decode_records,
    encode_frame,
)
from repro.serve.protocol import (
    FrameDecoder,
    decode_result,
    encode_chunk,
    encode_final,
    encode_json,
)
from repro.sim import LeakageSimulator, SimulatorOptions

DISTANCE = 3
SHOTS = 6
ROUNDS = 7
WINDOW = 3
NOISE = {"p": 3e-3, "leakage_ratio": 1.0}
FAMILIES = {"surface": surface_code, "color": color_code, "toric": toric_code}

_RECORD_CACHE: dict[str, list] = {}


def _records(family: str, count: int = 3) -> list:
    """Recorded ``(history, final, flips)`` streams, cached per family."""
    if family not in _RECORD_CACHE:
        records = []
        for index in range(count):
            simulator = LeakageSimulator(
                code=FAMILIES[family](DISTANCE),
                noise=paper_noise(**NOISE),
                policy=make_policy("gladiator+m"),
                options=SimulatorOptions(record_detectors=True),
                seed=31 + 17 * index,
            )
            result = simulator.run(shots=SHOTS, rounds=ROUNDS)
            records.append(
                (
                    result.detector_history,
                    result.final_detectors,
                    result.observable_flips,
                )
            )
        _RECORD_CACHE[family] = records
    return _RECORD_CACHE[family]


def _reference(family: str, method: str) -> list[np.ndarray]:
    """Reference predictions: each record decoded alone by a plain
    :class:`WindowedDecoder` with the server's window geometry."""
    return [
        WindowedDecoder(
            code=FAMILIES[family](DISTANCE),
            noise=paper_noise(**NOISE),
            rounds=ROUNDS,
            window_rounds=WINDOW,
            method=method,
        ).decode_batch(history, final)
        for history, final, _ in _records(family)
    ]


# --------------------------------------------------------------------- #
# Bit-identity across the scenario matrix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("traffic", ["coalesce", "solo"])
@pytest.mark.parametrize("method", ["matching", "union_find"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_served_predictions_bit_identical(family, method, traffic):
    """``coalesce`` traffic runs every record as a concurrent stream on one
    connection, so same-pass windows may share a decode dispatch; ``solo``
    traffic serves one record at a time, so every dispatch is a group of
    one window."""
    records = _records(family)
    reference = _reference(family, method)

    config = ServerConfig(
        port=0,
        shards=2,
        workers_per_shard=2,
        window_rounds=WINDOW,
        method=method,
    )
    batches = [records] if traffic == "coalesce" else [[record] for record in records]
    with ServerThread(config) as server:
        results = [
            result
            for batch in batches
            for result in decode_records(
                "127.0.0.1",
                server.port,
                batch,
                code={"family": family, "distance": DISTANCE},
                noise=NOISE,
                tenant="matrix",
            )
        ]
        status = server.status()
    if traffic == "solo":
        assert status["coalesce_ratio"] == 1.0

    assert len(results) == len(records)
    for result, expected, (_, _, flips) in zip(results, reference, records):
        assert np.array_equal(result.predictions, expected)
        assert result.failures == int((expected ^ flips).sum())
        assert result.summary["windows"] > 0


def test_serve_command_carries_the_decoder_to_every_shard(tmp_path):
    """``repro serve --config`` hands the config's ``decoder.name`` to every
    shard's decode service."""
    from repro.__main__ import _build_parser, _load_config, _server_config
    from repro.api import ExperimentConfig
    from repro.serve import DecodeServer

    config_file = tmp_path / "served.json"
    ExperimentConfig().save(config_file)
    args = _build_parser().parse_args([
        "serve", "--config", str(config_file), "--set", "decoder.name=union_find",
        "--shards", "3",
    ])
    server_config = _server_config(args, _load_config(args))
    assert server_config.method == "union_find"
    server = DecodeServer(server_config)
    assert [shard.method for shard in server.shards] == ["union_find"] * 3


# --------------------------------------------------------------------- #
# Admission control and tenant caps
# --------------------------------------------------------------------- #
def test_admission_cap_rejects_and_counts():
    config = ServerConfig(port=0, shards=1, workers_per_shard=1, max_streams=1)
    with ServerThread(config) as server:

        async def scenario():
            async with ServeClient() as client:
                await client.connect("127.0.0.1", server.port, tenant="cap")
                first = await client.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                )
                with pytest.raises(StreamRejected, match="capacity"):
                    await client.open_stream(
                        code={"family": "surface", "distance": DISTANCE},
                        noise=NOISE,
                        shots=4,
                        rounds=6,
                    )
                await first.close()

        asyncio.run(scenario())
        assert server.status()["admission_rejected"] == 1


def test_per_tenant_cap_is_independent_of_server_cap():
    config = ServerConfig(
        port=0, shards=1, workers_per_shard=1, max_streams=8, max_streams_per_tenant=1
    )
    with ServerThread(config) as server:

        async def scenario():
            async with ServeClient() as hog, ServeClient() as other:
                await hog.connect("127.0.0.1", server.port, tenant="hog")
                await other.connect("127.0.0.1", server.port, tenant="other")
                held = await hog.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                )
                with pytest.raises(StreamRejected, match="tenant at capacity"):
                    await hog.open_stream(
                        code={"family": "surface", "distance": DISTANCE},
                        noise=NOISE,
                        shots=4,
                        rounds=6,
                    )
                # A different tenant is still admitted.
                ok = await other.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                )
                await held.close()
                await ok.close()

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# Client retry-with-backoff
# --------------------------------------------------------------------- #
def test_open_stream_retries_past_transient_reject():
    """An OPEN bounced by admission control succeeds on retry once capacity
    frees, without the caller seeing the REJECT."""
    config = ServerConfig(port=0, shards=1, workers_per_shard=1, max_streams=1)
    with ServerThread(config) as server:

        async def scenario():
            async with ServeClient() as client:
                await client.connect("127.0.0.1", server.port, tenant="retry")
                first = await client.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                )

                async def release_soon():
                    await asyncio.sleep(0.15)
                    await first.close()

                releaser = asyncio.ensure_future(release_soon())
                second = await client.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                    accept_retries=10,
                    retry_backoff=0.05,
                )
                await releaser
                assert client.reject_retries >= 1
                # Each attempt consumed a fresh stream id.
                assert second.stream_id > first.stream_id + 1
                await second.close()

        asyncio.run(scenario())
        assert server.status()["admission_rejected"] >= 1


def test_open_stream_retry_budget_is_bounded():
    """With capacity never freeing, the retry loop gives up after its budget
    and surfaces the original StreamRejected."""
    config = ServerConfig(port=0, shards=1, workers_per_shard=1, max_streams=1)
    with ServerThread(config) as server:

        async def scenario():
            async with ServeClient() as client:
                await client.connect("127.0.0.1", server.port, tenant="bounded")
                held = await client.open_stream(
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    shots=4,
                    rounds=6,
                )
                with pytest.raises(StreamRejected, match="capacity"):
                    await client.open_stream(
                        code={"family": "surface", "distance": DISTANCE},
                        noise=NOISE,
                        shots=4,
                        rounds=6,
                        accept_retries=2,
                        retry_backoff=0.01,
                    )
                assert client.reject_retries == 2
                await held.close()

        asyncio.run(scenario())
        assert server.status()["admission_rejected"] == 3


def test_connect_retry_bounded_when_nothing_listens():
    """Transient socket errors are retried with backoff, then re-raised."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]

    async def scenario():
        client = ServeClient()
        with pytest.raises(OSError):
            await client.connect("127.0.0.1", dead_port, retries=2, backoff=0.01)
        assert client.connect_retries == 2

    asyncio.run(scenario())


def test_connect_retries_until_server_comes_up():
    """A client started before its server wins the race via connect retries."""
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    server_box: dict = {}
    ready = threading.Event()

    def late_start():
        ready.wait()
        # Leave a window in which the client's first attempt must fail, so
        # the success below provably came from a retry.
        time.sleep(0.2)
        server_box["server"] = ServerThread(
            ServerConfig(port=port, shards=1, workers_per_shard=1)
        ).start()

    starter = threading.Thread(target=late_start, daemon=True)
    starter.start()
    try:

        async def scenario():
            async with ServeClient() as client:
                ready.set()
                welcome = await client.connect(
                    "127.0.0.1", port, tenant="late", retries=40, backoff=0.05
                )
                assert welcome["protocol"] >= 1
                assert client.connect_retries >= 1

        asyncio.run(scenario())
    finally:
        starter.join(timeout=30)
        if "server" in server_box:
            server_box["server"].stop()


# --------------------------------------------------------------------- #
# SLO accounting
# --------------------------------------------------------------------- #
def test_slo_snapshot_reflects_served_traffic():
    config = ServerConfig(port=0, shards=1, workers_per_shard=2, window_rounds=WINDOW)
    with ServerThread(config) as server:
        records = _records("surface")
        decode_records(
            "127.0.0.1",
            server.port,
            records,
            code={"family": "surface", "distance": DISTANCE},
            noise=NOISE,
            tenant="slo",
        )
        status = server.status()

    assert status["streams_done"] == len(records)
    assert status["rounds"] == len(records) * ROUNDS
    assert status["windows"] == sum(s["windows_decoded"] for s in status["shards"])
    assert status["round_latency_p50_ns"] > 0
    assert status["round_latency_p99_ns"] >= status["round_latency_p50_ns"]
    assert status["round_latency_p999_ns"] >= status["round_latency_p99_ns"]
    assert status["slo_p99"] == pytest.approx(
        status["round_latency_p99_ns"] / status["hardware_round_ns"]
    )
    # All three streams run concurrently, so some windows must coalesce.
    assert status["coalesce_ratio"] > 1.0
    # The SLO feed is the one dispatch count: shards report no ratio of their own.
    assert "coalesce_ratio" not in status["shards"][0]
    assert status["admission_rejected"] == 0
    assert status["active_streams"] == 0


# --------------------------------------------------------------------- #
# Websocket gateway
# --------------------------------------------------------------------- #
def _ws_connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.settimeout(30)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    request = (
        f"GET /decode HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
    )
    sock.sendall(request.encode("ascii"))
    response = b""
    while b"\r\n\r\n" not in response:
        response += sock.recv(4096)
    assert b" 101 " in response.split(b"\r\n", 1)[0]
    return sock


def _ws_send(sock: socket.socket, frame_type: FrameType, payload: bytes) -> None:
    body = bytes([frame_type]) + payload
    mask = os.urandom(4)
    head = b"\x82"  # FIN + binary opcode
    if len(body) < 126:
        head += bytes([0x80 | len(body)])
    else:
        head += bytes([0x80 | 126]) + struct.pack(">H", len(body))
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(body))
    sock.sendall(head + mask + masked)


def _ws_recv(sock: socket.socket) -> tuple[FrameType, bytes]:
    def read_exact(n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("websocket closed")
            buf += chunk
        return buf

    first, second = read_exact(2)
    assert first & 0x0F == 0x2, "expected a binary websocket frame"
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", read_exact(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", read_exact(8))
    body = read_exact(length)
    return FrameType(body[0]), body[1:]


def test_websocket_round_trip_matches_tcp():
    config = ServerConfig(port=0, shards=1, workers_per_shard=2, window_rounds=WINDOW)
    records = _records("surface")[:1]
    history, final, flips = records[0]
    reference = _reference("surface", "matching")[0]

    with ServerThread(config, websocket=True) as server:
        with _ws_connect(server.ws_port) as sock:
            _ws_send(
                sock,
                FrameType.HELLO,
                encode_json({"tenant": "ws", "protocol": 1}),
            )
            frame_type, _ = _ws_recv(sock)
            assert frame_type == FrameType.WELCOME
            _ws_send(
                sock,
                FrameType.OPEN,
                encode_json(
                    {
                        "stream": 0,
                        "shots": SHOTS,
                        "rounds": ROUNDS,
                        "code": {"family": "surface", "distance": DISTANCE},
                        "noise": NOISE,
                    }
                ),
            )
            frame_type, _ = _ws_recv(sock)
            assert frame_type == FrameType.ACCEPT
            for round_index in range(ROUNDS):
                _ws_send(
                    sock,
                    FrameType.CHUNK,
                    encode_chunk(0, round_index, history[:, round_index, :]),
                )
            _ws_send(sock, FrameType.FINAL, encode_final(0, final, flips))
            frame_type, payload = _ws_recv(sock)
            assert frame_type == FrameType.RESULT
            stream_id, predictions, failures, summary = decode_result(payload)

    assert stream_id == 0
    assert np.array_equal(predictions, reference)
    assert failures == int((reference ^ flips).sum())
    assert summary["rounds_committed"] == ROUNDS


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #
def test_shutdown_broadcasts_drain_to_connected_clients():
    config = ServerConfig(port=0, shards=1, workers_per_shard=1)
    server = ServerThread(config).start()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        sock.settimeout(30)
        sock.sendall(
            encode_frame(
                FrameType.HELLO, encode_json({"tenant": "drainee", "protocol": 1})
            )
        )
        decoder = FrameDecoder()
        seen: list[FrameType] = []

        stopper = threading.Thread(target=server.stop)
        while FrameType.DRAIN not in seen:
            data = sock.recv(4096)
            if not data:
                break
            for frame_type, _ in decoder.feed(data):
                seen.append(frame_type)
                if frame_type == FrameType.WELCOME and not stopper.is_alive():
                    stopper.start()
        stopper.join(timeout=60)
        sock.close()
        assert seen[0] == FrameType.WELCOME
        assert FrameType.DRAIN in seen
    finally:
        server.stop()
