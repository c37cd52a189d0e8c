"""Sliding-window decoding over syndrome streams.

Offline decoding needs the whole detector record; a real-time decoder cannot
wait for it.  The standard compromise from the streaming-decoder literature
is the overlapping sliding window: decode the most recent ``window_rounds``
rounds, *commit* only the corrections that fall in the oldest
``commit_rounds`` of the window, and defer everything younger — the
committed chain's loose ends are carried into the next window as *artifact*
defects XOR-ed onto the boundary round, so chains that straddle windows stay
consistent.

Concretely, a window over rounds ``[s, s+W)`` decodes ``W`` detector layers
plus one context layer (round ``s+W``'s detectors, or the transversal
readout for the last window) on a ``W``-round :class:`DetectorGraph`.  The
underlying decoder returns its correction as explicit graph edges
(:meth:`decode_shot_edges`), which the window classifies per layer:

* edges entirely below the commit boundary are finalised — their
  logical-flip parity is accumulated into the shot's running prediction,
* an edge crossing the boundary (time-like, or a diagonal mid-round data
  fault) is committed too, with its logical-flip parity, and leaves an
  artifact defect on the boundary round,
* everything above the boundary is discarded and re-decoded next window.

When ``window_rounds >= rounds`` the first window is also the last: every
edge commits and the result is bit-for-bit identical to offline decoding —
the proof-of-equivalence path the tests pin down.

One stream's incremental state is a :class:`WindowSession`: it keeps the
newest ``window_rounds + 1`` rounds bit-packed in a
:class:`~repro.pipeline.ring.PackedRing` and commits each window once per
unique syndrome.  Offline-shaped callers (:meth:`WindowedDecoder.
decode_batch`, the windowed :class:`~repro.experiments.memory.
MemoryExperiment`) replay a recorded history through the same session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..codes.base import StabilizerCode
from ..decoders import DetectorGraph, SyndromeCache, make_decoder, shared_graph
from ..noise import NoiseParams
from ..pipeline.ring import PackedRing
from .accounting import LatencyRecorder
from .stream import FinalChunk, ReplayStream, RoundChunk, SyndromeStream

__all__ = ["WindowedDecoder", "WindowSession", "entries_commit"]


@dataclass
class WindowedDecoder:
    """Wrap any ``repro.decoders`` decoder with overlapping sliding windows.

    :meth:`session` opens a :class:`WindowSession` for one batch of shots;
    :meth:`decode_stream` and :meth:`decode_batch` drive one to completion.

    Parameters
    ----------
    code / noise / rounds:
        The experiment geometry; ``rounds`` is the stream length the decoder
        will be fed (windows shorter than the stream slide across it).
    window_rounds:
        Rounds per window (``W``).  ``W >= rounds`` degenerates into one
        window and reproduces offline decoding bit-for-bit.
    commit_rounds:
        Rounds finalised per window step (``C``, the window advance).
        Defaults to ``max(1, W // 2)`` — 50% overlap, the usual
        latency/accuracy compromise.  ``C == W`` gives non-overlapping
        forward windows that communicate only through artifacts.
    method:
        The decoder name, passed to :func:`repro.decoders.make_decoder`.
    cache:
        The syndrome->correction cache shared by every window-size decoder
        this instance builds (``None``: a fresh one of
        :data:`~repro.decoders.DEFAULT_CACHE_ENTRIES`).  Sliding windows
        revisit the same sparse syndromes constantly, so the cache (plus the
        batched ``decode_edges_unique`` path used per window) is where the
        streaming throughput comes from.  Pass an existing
        :class:`~repro.decoders.SyndromeCache` to pool syndromes across
        decoders (the decode service shares one per service), or
        ``SyndromeCache(0)`` to disable reuse.
    """

    code: StabilizerCode
    noise: NoiseParams
    rounds: int
    window_rounds: int
    commit_rounds: int | None = None
    method: str = "matching"
    cache: SyndromeCache | None = None
    _decoders: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.window_rounds <= 0:
            raise ValueError("window_rounds must be positive")
        if self.commit_rounds is None:
            self.commit_rounds = max(1, min(self.window_rounds, self.rounds) // 2)
        if not 1 <= self.commit_rounds <= self.window_rounds:
            raise ValueError(
                f"commit_rounds must be in [1, window_rounds]; got "
                f"{self.commit_rounds} for window {self.window_rounds}"
            )
        if self.cache is None:
            self.cache = SyndromeCache()

    @property
    def effective_window(self) -> int:
        """The window actually used: never longer than the stream itself."""
        return min(self.window_rounds, self.rounds)

    @property
    def covers_stream(self) -> bool:
        """True when one window spans the whole stream (offline-equivalent)."""
        return self.window_rounds >= self.rounds

    def decoder_for(self, window: int):
        """The (graph, decoder) pair for a ``window``-round sub-problem, cached."""
        if window not in self._decoders:
            graph = shared_graph(self.code, window, self.noise, hyperedges="decompose")
            self._decoders[window] = (
                graph,
                make_decoder(graph, self.method, cache=self.cache),
            )
        return self._decoders[window]

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def session(
        self, shots: int, recorder: LatencyRecorder | None = None
    ) -> "WindowSession":
        """Start an incremental decode session for a batch of ``shots`` shots."""
        return WindowSession(windowed=self, shots=shots, recorder=recorder)

    def decode_stream(
        self, stream: SyndromeStream, recorder: LatencyRecorder | None = None
    ) -> np.ndarray:
        """Consume a whole stream; returns the (shots,) logical-flip predictions."""
        session = self.session(stream.shots, recorder)
        for chunk in stream.chunks():
            session.feed(chunk)
            while session.ready():
                session.step()
        return session.finish(stream.final())

    def decode_batch(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> np.ndarray:
        """Offline-shaped entry point: replay recorded arrays through windows."""
        return self.decode_stream(ReplayStream(detector_history, final_detectors))

    def decode_stats(self) -> dict:
        """Cache and dedup diagnostics aggregated over the window decoders.

        Same shape as :meth:`repro.decoders.DecoderBase.decode_stats`, so
        :class:`~repro.experiments.memory.MemoryExperiment` reads either
        provider uniformly.  Note the cache may be shared (the decode
        service pools one across streams), in which case ``cache_hit_rate``
        reports the pool, not just this instance.
        """
        assert self.cache is not None  # __post_init__ guarantees it
        shots = sum(d.batch_shots for _, d in self._decoders.values())
        unique = sum(d.batch_unique for _, d in self._decoders.values())
        return {
            "cache_hit_rate": self.cache.stats()["hit_rate"],
            "dedup_ratio": 1.0 - unique / shots if shots else 0.0,
        }


@dataclass
class WindowSession:
    """Incremental decoding state of one stream (one batch of shots).

    ``feed`` buffers round chunks, ``step`` decodes the next ready window and
    commits its oldest ``commit_rounds`` rounds, ``finish`` decodes the tail
    window against the final readout and returns the per-shot predictions.

    Rounds are held bit-packed in a :class:`~repro.pipeline.ring.PackedRing`
    of ``window_rounds + 1`` slots, which is the memory bound that makes
    streaming worthwhile.  The decoder input is one preallocated window
    block refilled in place, corrections are committed once per *unique*
    syndrome (:meth:`~repro.decoders.base.DecoderBase.decode_edges_unique`)
    and scattered back over shots, and boundary artifacts are XOR-ed into
    the ring in the packed domain.

    Buffer ownership within a step (see ``docs/architecture.md``): the
    producer may only :meth:`feed` the next round; :meth:`step` owns
    ``_history`` / ``_context`` / ``_artifacts`` and the committed ring
    slots it XORs artifacts into and releases.  ``feed`` packs the bits out
    immediately, so the caller may overwrite its chunk array as soon as
    ``feed`` returns.
    """

    windowed: WindowedDecoder
    shots: int
    recorder: LatencyRecorder | None = None

    def __post_init__(self) -> None:
        self.start = 0
        self.windows_decoded = 0
        num_z = sum(1 for stab in self.windowed.code.stabilizers if stab.basis == "Z")
        window = self.windowed.effective_window
        # window + 1 slots: a full window plus its context round.
        self.ring = PackedRing(window + 1, self.shots, num_z)
        self._parity = np.zeros(self.shots, dtype=bool)
        self._history = np.empty((self.shots, window, num_z), dtype=bool)
        self._context = np.empty((self.shots, num_z), dtype=bool)
        self._artifacts = np.empty((self.shots, num_z), dtype=bool)

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def feed(self, chunk: RoundChunk) -> None:
        """Buffer one round chunk (must arrive in round order)."""
        detectors = np.asarray(chunk.detectors)
        if detectors.shape[0] != self.shots:
            raise ValueError("chunk shot dimension does not match the session")
        self.ring.push(chunk.round_index, detectors)

    def ready(self) -> bool:
        """Whether an intermediate window can be decoded now."""
        end = self.start + self.windowed.effective_window
        return end < self.windowed.rounds and end < self.ring.next_round

    @property
    def rounds_fed(self) -> int:
        """Rounds buffered so far (the next expected chunk index)."""
        return self.ring.next_round

    def window_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """The next ready window's ``(history, context)`` decode inputs.

        ``history`` is ``(shots, window, num_z)`` and ``context`` the one
        round past the window.  Together with :meth:`commit_window` this is
        the seam the decode service's cross-stream coalescer uses: it
        concatenates several sessions' inputs, decodes them in one batched
        call, and hands each session its slice of the results — which is
        bit-identical to each session decoding alone, because every unique
        syndrome decodes independently (see ``repro.serve``).  Both arrays
        are this session's reusable unpack buffers, valid until the next
        ``window_inputs`` / ``step`` call, so a coalescer must copy them
        (``np.concatenate`` does).
        """
        if not self.ready():
            raise RuntimeError("no window is ready; feed more chunks first")
        window = self.windowed.effective_window
        self.ring.window(self.start, window, out=self._history)
        self.ring.read_round(self.start + window, out=self._context)
        return self._history, self._context

    def commit_window(
        self,
        entries: list[tuple[tuple[int, int], ...]],
        inverse: np.ndarray,
        started: float | None = None,
    ) -> None:
        """Commit one decoded window from per-unique-syndrome ``entries``.

        ``entries[inverse[s]]`` is shot ``s``'s correction, exactly the
        representation :meth:`~repro.decoders.base.DecoderBase.
        decode_edges_unique` returns (``inverse`` may be a slice of a larger
        coalesced batch).  ``started`` is the ``perf_counter`` tick the
        window's decode began at; the recorder logs the elapsed time through
        the end of this commit against the committed rounds.
        """
        commit = self.windowed.commit_rounds
        assert commit is not None  # WindowedDecoder.__post_init__ resolves it
        graph, _ = self.windowed.decoder_for(self.windowed.effective_window)
        flips, masks = entries_commit(entries, graph, commit)
        self._parity ^= flips[inverse]
        if masks.any():
            # Boundary artifacts become extra defects on the first
            # uncommitted round, so cross-window chains re-terminate
            # correctly next window.  The XOR happens in the packed domain,
            # bit-identical to the boolean XOR because packing is
            # GF(2)-linear.
            np.take(masks, inverse, axis=0, out=self._artifacts)
            self.ring.xor_round(self.start + commit, self._artifacts)
        self.ring.release_until(self.start + commit)
        self.start += commit
        self.windows_decoded += 1
        if self.recorder is not None:
            elapsed = 0.0 if started is None else time.perf_counter() - started
            self.recorder.record(commit, elapsed)

    def step(self) -> None:
        """Decode the next intermediate window and commit its oldest rounds."""
        started = time.perf_counter()
        history, context = self.window_inputs()
        _, decoder = self.windowed.decoder_for(self.windowed.effective_window)
        # Batched, deduplicated decode: identical window syndromes (common at
        # low p) are decoded once and served from the shared syndrome cache.
        entries, inverse = decoder.decode_edges_unique(history, context)
        self.commit_window(entries, inverse, started)

    def finish(self, final: FinalChunk) -> np.ndarray:
        """Decode the tail window against the final readout; return predictions."""
        if self.ring.next_round != self.windowed.rounds:
            raise RuntimeError(
                f"stream incomplete: fed {self.ring.next_round} of "
                f"{self.windowed.rounds} rounds"
            )
        while self.ready():  # flush any windows the caller did not step
            self.step()
        tail = self.windowed.rounds - self.start
        started = time.perf_counter()
        history = self.ring.window(self.start, tail, out=self._history[:, :tail, :])
        final_detectors = np.asarray(final.final_detectors, dtype=bool)
        graph, decoder = self.windowed.decoder_for(tail)
        entries, inverse = decoder.decode_edges_unique(history, final_detectors)
        # Commit boundary beyond the last layer: every edge is finalised.
        flips, masks = entries_commit(entries, graph, graph.num_layers)
        assert not masks.any()
        self._parity ^= flips[inverse]
        self.ring.clear()
        self.windows_decoded += 1
        if self.recorder is not None:
            self.recorder.record(tail, time.perf_counter() - started)
        return self._parity.copy()


def entries_commit(
    entries: list[tuple[tuple[int, int], ...]],
    graph: DetectorGraph,
    commit_layer: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorisable commit of per-unique-syndrome correction entries.

    Returns ``(flips, masks)``: one committed logical-parity bit and one
    ``(num_z,)`` boundary-artifact mask per entry.  Scattering both through
    the dedup ``inverse`` map reproduces the per-shot commit loop exactly —
    the shared kernel of :class:`WindowSession` and the decode service's
    cross-stream coalescer.
    """
    flips = np.zeros(len(entries), dtype=bool)
    masks = np.zeros((len(entries), graph.num_z_stabs), dtype=bool)
    for index, edges in enumerate(entries):
        flip, artifact_stabs = _commit_edges(edges, graph, commit_layer)
        flips[index] = flip
        for z_local in artifact_stabs:
            masks[index, z_local] ^= True
    return flips, masks


def _commit_edges(
    edges: tuple[tuple[int, int], ...], graph: DetectorGraph, commit_layer: int
) -> tuple[bool, list[int]]:
    """Split a correction into (committed logical parity, boundary artifacts).

    Edges wholly below ``commit_layer`` commit; an edge from layer
    ``commit_layer - 1`` to ``commit_layer`` (time-like or diagonal) commits
    and deposits an artifact defect at its upper endpoint; everything else is
    deferred.  Boundary edges live inside a single layer and no edge spans
    more than two, so nothing else can cross.
    """
    num_z = graph.num_z_stabs
    boundary_node = graph.boundary_node
    parity = False
    artifacts: list[int] = []
    for node_a, node_b in edges:
        layer_a = node_a // num_z if node_a != boundary_node else None
        layer_b = node_b // num_z if node_b != boundary_node else None
        if layer_a is None:
            layer_a = layer_b
        if layer_b is None:
            layer_b = layer_a
        low, high = min(layer_a, layer_b), max(layer_a, layer_b)
        if high > commit_layer or low == commit_layer:
            continue  # deferred: the next window re-decodes it
        edge = graph.edge_between(node_a, node_b)
        if edge is not None and edge.flips_logical:
            parity = not parity
        if high == commit_layer:
            upper = node_a if node_a // num_z == commit_layer else node_b
            artifacts.append(upper % num_z)
    return parity, artifacts
