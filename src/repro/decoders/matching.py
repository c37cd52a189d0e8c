"""Minimum-weight perfect matching decoder.

Standard surface-code decoding: fired detectors are paired up (or matched to
the boundary) so that the total weight of the connecting error chains is
minimised; the prediction for the logical observable is the parity of
logical-crossing edges along the chosen chains.

Matching is exact up to :data:`_EXACT_MAX_FIRED` fired detectors: one or
two are matched analytically, up to eight by an exact bitmask DP, and
larger syndromes by blossom matching on a graph with one virtual boundary
copy per detector.  Larger syndromes (typically produced by un-mitigated
leakage) take a greedy nearest-neighbour pairing, which preserves the
qualitative behaviour at a fraction of the cost.

With the compiled kernels available exact syndromes are decoded by
:func:`repro.decoders._ckernels.decode_rows`, whose entries equal this
module's interpreted ones edge for edge: on a graph under the all-pairs
gate one call serves all of a batch's uncached exact syndromes; past the
gate, one call per syndrome reads that syndrome's own shortest paths.  A
shot decoded on its own is a batch of one.  The interpreted path — the Python DP
and ``networkx.max_weight_matching`` — decodes the greedy-sized
syndromes, the few the kernel defers (the DP's infinite dead end, a
non-finite blossom cost) and everything when the kernels are off, and is
the kernel's test oracle (through
:meth:`~repro.decoders.base.DecoderBase._interpreted_entry`).

Batching, syndrome deduplication and the cross-call correction cache are
inherited from :class:`~repro.decoders.base.DecoderBase`; this module only
implements the matching itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.registry import register_decoder
from ..obs.metrics import METRICS
from . import _ckernels
from .base import DecoderBase

__all__ = ["MatchingDecoder"]

#: Matching-backend telemetry; no-ops unless a telemetry scope is active.
_OBS_EXACT = METRICS.counter(
    "decode.matching.exact", "syndromes matched by an exact backend"
)
_OBS_GREEDY = METRICS.counter(
    "decode.matching.greedy", "syndromes matched by the greedy pairing"
)
_OBS_DP_KERNEL = METRICS.counter(
    "decode.matching.dp_kernel", "bitmask-DP matchings served by the C kernel"
)
_OBS_BLOSSOM_KERNEL = METRICS.counter(
    "decode.matching.blossom_kernel", "blossom matchings served by the C kernel"
)

#: Largest syndrome matched exactly; past it the greedy pairing takes over.
_EXACT_MAX_FIRED = 60

#: Largest syndrome matched by the exact bitmask DP (O(2^n * n)) instead of
#: the blossom solver.  Beyond ~8 fired detectors the DP's exponential state
#: table overtakes blossom's polynomial cost.
_DP_EXACT_MAX = 8


@register_decoder("matching", aliases=("mwpm",),
                  description="Minimum-weight perfect matching (exact/greedy)")
@dataclass
class MatchingDecoder(DecoderBase):
    """MWPM decoder over a :class:`~repro.decoders.detector_graph.DetectorGraph`.

    Exact up to :data:`_EXACT_MAX_FIRED` fired detectors, greedy beyond.
    """

    def _cache_config(self) -> tuple:
        return ("matching",)

    # ------------------------------------------------------------------ #
    # Compiled decoding (the DecoderBase._decode_rows hook)
    # ------------------------------------------------------------------ #
    def _decode_rows(
        self, nodes: np.ndarray, row_ptr: np.ndarray, rows: np.ndarray, compiled: bool
    ) -> list:
        """Exact rows through ``decode_rows``, the rest interpreted.

        Every uncached syndrome passes here, so the exact/greedy tallies are
        taken here and read the same with the kernels on or off.  On a graph
        with all-pairs matrices the exact rows take one call; past the gate,
        one call each with the row's own shortest paths.  Greedy-sized rows,
        the rows the kernel defers and, with the kernels off, every row take
        the interpreted path.
        """
        sizes = row_ptr[rows + 1] - row_ptr[rows]
        exact = sizes <= _EXACT_MAX_FIRED
        exact_count = int(np.count_nonzero(exact))
        _OBS_EXACT.inc(exact_count)
        _OBS_GREEDY.inc(len(rows) - exact_count)
        if not compiled:
            return super()._decode_rows(nodes, row_ptr, rows, compiled)
        ctx = self.graph.context
        entries: list
        if ctx.all_pairs is not None:
            entries, served = _ckernels.decode_rows(
                ctx, nodes, row_ptr, rows, max_fired=_EXACT_MAX_FIRED
            )
        else:
            entries, served = [None] * len(rows), np.zeros(len(rows), dtype=bool)
            one_row = np.zeros(1, dtype=np.int64)
            for i in np.flatnonzero(exact).tolist():
                fired = nodes[row_ptr[rows[i]] : row_ptr[rows[i] + 1]]
                one, ok = _ckernels.decode_rows(
                    ctx, fired, np.array([0, fired.size]), one_row,
                    max_fired=_EXACT_MAX_FIRED,
                    paths=self.graph.shortest_paths_from(fired),
                )
                entries[i], served[i] = one[0], ok[0]
        _OBS_BLOSSOM_KERNEL.inc(int(np.count_nonzero(served & (sizes > _DP_EXACT_MAX))))
        _OBS_DP_KERNEL.inc(
            int(np.count_nonzero(served & (sizes > 2) & (sizes <= _DP_EXACT_MAX)))
        )
        for i in np.flatnonzero(~served).tolist():
            row = rows[i]
            entries[i] = self._interpreted_entry(nodes[row_ptr[row] : row_ptr[row + 1]])
        return entries

    # ------------------------------------------------------------------ #
    # Correction construction (the DecoderBase hook)
    # ------------------------------------------------------------------ #
    def _edges_for_syndrome(self, flagged: np.ndarray) -> list[tuple[int, int]]:
        distances, predecessors = self.graph.shortest_paths_from(flagged)
        boundary = self.graph.boundary_node
        if flagged.size <= _EXACT_MAX_FIRED:
            pairs = self._exact_matching(flagged, distances, boundary)
        else:
            pairs = self._greedy_matching(flagged, distances, boundary)
        index_of = {int(node): i for i, node in enumerate(flagged)}
        edges: list[tuple[int, int]] = []
        for node_a, node_b in pairs:
            source_row = predecessors[index_of[node_a]]
            node = int(node_b)
            while True:
                previous = source_row[node]
                if previous < 0:
                    break
                edges.append((int(previous), node))
                node = int(previous)
        return edges

    # ------------------------------------------------------------------ #
    # Matching strategies
    # ------------------------------------------------------------------ #
    def _exact_matching(
        self, flagged: np.ndarray, distances: np.ndarray, boundary: int
    ) -> list[tuple[int, int]]:
        """Exact MWPM with per-detector virtual boundary copies.

        Small syndromes — the overwhelming majority at the paper's error
        rates — never reach the blossom solver: one or two fired detectors
        are matched analytically, and up to :data:`_DP_EXACT_MAX` detectors
        go through an exact bitmask DP.  All three backends minimise the
        same total weight; only ties may be broken differently.
        """
        count = flagged.size
        if count == 1:
            return [(int(flagged[0]), boundary)]
        if count == 2:
            paired = distances[0, int(flagged[1])]
            if paired <= distances[0, boundary] + distances[1, boundary]:
                return [(int(flagged[0]), int(flagged[1]))]
            return [(int(flagged[0]), boundary), (int(flagged[1]), boundary)]
        if count <= _DP_EXACT_MAX:
            return self._dp_matching(flagged, distances, boundary)
        index_pairs = _networkx_matching(distances[:, boundary], distances[:, flagged])
        return [
            (int(flagged[i]), boundary) if j < 0 else (int(flagged[i]), int(flagged[j]))
            for i, j in index_pairs
        ]

    def _dp_matching(
        self, flagged: np.ndarray, distances: np.ndarray, boundary: int
    ) -> list[tuple[int, int]]:
        """Exact minimum-weight matching by DP over matched-detector subsets.

        ``best[mask]`` is the cheapest way to match the detectors in
        ``mask``; each step commits the lowest unmatched detector either to
        the boundary or to one partner, so every matching is enumerated once
        (O(2^n * n) total — far below blossom's constant for the small
        syndromes this handles).  The compiled DP behind ``decode_rows`` mirrors
        this loop line for line (iteration order, strict ``<``
        tie-breaking, IEEE doubles), so the chosen pairs are identical.
        """
        count = flagged.size
        nodes = [int(node) for node in flagged]
        boundary_cost = [float(distances[i, boundary]) for i in range(count)]
        pair_cost = [
            [float(distances[i, nodes[j]]) for j in range(count)]
            for i in range(count)
        ]
        size = 1 << count
        infinite = float("inf")
        best = [infinite] * size
        choice: list[tuple[int, int, int] | None] = [None] * size
        best[0] = 0.0
        for mask in range(size - 1):
            cost = best[mask]
            if cost == infinite:
                continue
            free = ~mask & (size - 1)
            low = free & -free
            i = low.bit_length() - 1
            with_boundary = mask | low
            candidate = cost + boundary_cost[i]
            if candidate < best[with_boundary]:
                best[with_boundary] = candidate
                choice[with_boundary] = (mask, i, -1)
            rest = free ^ low
            while rest:
                partner_bit = rest & -rest
                j = partner_bit.bit_length() - 1
                with_pair = mask | low | partner_bit
                candidate = cost + pair_cost[i][j]
                if candidate < best[with_pair]:
                    best[with_pair] = candidate
                    choice[with_pair] = (mask, i, j)
                rest ^= partner_bit
        if choice[size - 1] is None:
            # Every complete matching has infinite cost: some detectors sit in
            # mutually unreachable components with an unreachable boundary
            # (periodic codes have no spatial boundary at all).  There is no
            # finite-cost assignment to commit to, so fall back to the greedy
            # pairing, which tolerates infinite distances and still yields a
            # best-effort correction for the reachable pairs.
            return self._greedy_matching(flagged, distances, boundary)
        pairs: list[tuple[int, int]] = []
        mask = size - 1
        while mask:
            previous, i, j = choice[mask]
            pairs.append((nodes[i], boundary) if j < 0 else (nodes[i], nodes[j]))
            mask = previous
        return pairs

    def _greedy_matching(
        self, flagged: np.ndarray, distances: np.ndarray, boundary: int
    ) -> list[tuple[int, int]]:
        """Greedy nearest-neighbour pairing used for very large syndromes."""
        count = flagged.size
        unmatched = set(range(count))
        # Candidate pairings sorted by distance, plus boundary options.
        candidates: list[tuple[float, int, int]] = []
        for i in range(count):
            for j in range(i + 1, count):
                candidates.append((float(distances[i, int(flagged[j])]), i, j))
            candidates.append((float(distances[i, boundary]), i, -1))
        candidates.sort(key=lambda item: item[0])
        pairs: list[tuple[int, int]] = []
        for _, i, j in candidates:
            if i not in unmatched:
                continue
            if j == -1:
                pairs.append((int(flagged[i]), boundary))
                unmatched.discard(i)
            elif j in unmatched:
                pairs.append((int(flagged[i]), int(flagged[j])))
                unmatched.discard(i)
                unmatched.discard(j)
            if not unmatched:
                break
        for i in list(unmatched):
            pairs.append((int(flagged[i]), boundary))
        return pairs


def _networkx_matching(
    boundary_cost: np.ndarray, pair_cost: np.ndarray
) -> list[tuple[int, int]]:
    """Blossom matching through ``networkx`` (the compiled port's oracle).

    Detector ``i`` is node ``("d", i)`` with a private boundary copy
    ``("b", i)``; detector pairs weigh ``large - pair_cost[i, j]`` (upper
    triangle), a detector and its copy ``large - boundary_cost[i]``, and
    boundary copies pair freely at ``large``, so the maximum-weight
    maximum-cardinality matching is the minimum-cost pairing.  Returns
    ``(i, j)`` index pairs (``j == -1`` meaning the boundary), each oriented
    as networkx reports it, ordered by their lower detector index — the
    order the compiled port behind ``decode_rows`` matches in, and
    independent of ``PYTHONHASHSEED`` (the result set's iteration order).
    """
    import networkx as nx

    count = int(boundary_cost.shape[0])
    graph = nx.Graph()
    large = 1e9
    for i in range(count):
        for j in range(i + 1, count):
            graph.add_edge(("d", i), ("d", j), weight=large - pair_cost[i, j])
        graph.add_edge(("d", i), ("b", i), weight=large - boundary_cost[i])
    for i in range(count):
        for j in range(i + 1, count):
            graph.add_edge(("b", i), ("b", j), weight=large)
    by_lower: dict[int, tuple[int, int]] = {}
    for left, right in nx.max_weight_matching(graph, maxcardinality=True):
        if left[0] == "d" and right[0] == "d":
            by_lower[min(left[1], right[1])] = (left[1], right[1])
        elif left[0] != right[0]:
            detector = left if left[0] == "d" else right
            by_lower[detector[1]] = (detector[1], -1)
    return [by_lower[i] for i in sorted(by_lower)]
