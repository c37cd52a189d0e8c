"""Union-find decoder.

A lighter-weight alternative to exact minimum-weight matching: clusters of
fired detectors grow on the detector graph until every cluster has even
parity (or touches the boundary), after which a peeling pass inside each
cluster selects the correction edges.  Accuracy is slightly below MWPM but
the cost scales almost linearly with the syndrome size, which makes it the
better choice for the long leakage-heavy runs where un-mitigated leakage
floods the syndrome record.

Growth and peeling run compiled when the decoder kernels are available:
``uf_decode`` in :mod:`repro.decoders._ckernels` builds the whole
``(edges, flip)`` entry in one call per syndrome, a line-for-line port of
this module's loops that also reproduces CPython's int-set iteration order
(which the loops below depend on), so its entries equal the interpreted
ones edge for edge.  A batch's uncached syndromes go to the same kernel in
one ``decode_rows`` call.  The Python path stays as the fallback and the
test oracle.  On GLADIATOR+M syndromes at the paper's noise (surface and
colour d=5, 10 rounds, 4-5 fired detectors at the median) the interpreted
path takes ~125-200 µs per syndrome, the per-shot entry (cache lookup
included) ~25-30 µs, and ``decode_batch`` ~8-11 µs per unique syndrome
(shared 2-vCPU x86-64 host).

Batching, syndrome deduplication and the cross-call correction cache are
inherited from :class:`~repro.decoders.base.DecoderBase`; this module only
implements cluster growth and peeling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..api.registry import register_decoder
from . import _ckernels
from .base import DecoderBase

__all__ = ["UnionFindDecoder"]


class _DisjointSet:
    """Union-find over detector-graph nodes with parity and boundary flags."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.parity: dict[int, int] = {}
        self.touches_boundary: dict[int, bool] = {}

    def add(self, node: int, fired: bool, is_boundary: bool) -> None:
        if node in self.parent:
            return
        self.parent[node] = node
        self.parity[node] = int(fired)
        self.touches_boundary[node] = is_boundary

    def find(self, node: int) -> int:
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, node_a: int, node_b: int) -> int:
        root_a, root_b = self.find(node_a), self.find(node_b)
        if root_a == root_b:
            return root_a
        self.parent[root_b] = root_a
        self.parity[root_a] ^= self.parity[root_b]
        self.touches_boundary[root_a] |= self.touches_boundary[root_b]
        return root_a

    def is_neutral(self, node: int) -> bool:
        root = self.find(node)
        return self.parity[root] == 0 or self.touches_boundary[root]


@register_decoder("union_find", aliases=("uf",),
                  description="Union-find cluster-growth + peeling decoder")
@dataclass
class UnionFindDecoder(DecoderBase):
    """Cluster-growth + peeling decoder over a
    :class:`~repro.decoders.detector_graph.DetectorGraph`."""

    max_growth_steps: int = 10_000

    def _cache_config(self) -> tuple:
        return ("union_find", self.max_growth_steps)

    # ------------------------------------------------------------------ #
    # Compiled decoding (the DecoderBase._fast_entry / _decode_rows hooks)
    # ------------------------------------------------------------------ #
    def _kernels_on(self) -> bool:
        return _ckernels.uf_available()

    def _fast_entry(self, flagged: np.ndarray, compiled: bool) -> tuple | None:
        """Serve the whole entry from the C kernel when it is available.

        The kernel returns the identical ``(edges, flip)`` entry the
        interpreted path builds; ``None`` (kernels off, or growth that does
        not converge, which the interpreted path then reports) defers.
        """
        if not compiled:
            return None
        return _ckernels.uf_decode(self.graph.context, flagged, self.max_growth_steps)

    def _decode_rows(
        self, nodes: np.ndarray, row_ptr: np.ndarray, rows: np.ndarray, compiled: bool
    ) -> list:
        """Every row in one ``decode_rows`` call; the rows it defers take the
        per-syndrome path, which repeats the kernel's verdict."""
        if not compiled:
            return super()._decode_rows(nodes, row_ptr, rows, compiled)
        entries, served = _ckernels.decode_rows(
            self.graph.context, nodes, row_ptr, rows, max_steps=self.max_growth_steps
        )
        for i in np.flatnonzero(~served).tolist():
            row = rows[i]
            entries[i] = self._miss_entry(nodes[row_ptr[row] : row_ptr[row + 1]], compiled)
        return entries

    # ------------------------------------------------------------------ #
    # Correction construction (the DecoderBase hook)
    # ------------------------------------------------------------------ #
    def _edges_for_syndrome(self, flagged: np.ndarray) -> list[tuple[int, int]]:
        fired_nodes = set(int(n) for n in flagged)
        cluster_nodes, fired = self._grow_clusters(fired_nodes)
        return self._peel(cluster_nodes, fired)

    # ------------------------------------------------------------------ #
    # Cluster growth
    # ------------------------------------------------------------------ #
    def _grow_clusters(self, flagged: set[int]) -> tuple[dict[int, set[int]], dict[int, bool]]:
        """Grow clusters until every one is neutral; return nodes per root and fired flags."""
        boundary = self.graph.boundary_node
        dsu = _DisjointSet()
        membership: dict[int, int] = {}
        for node in flagged:
            dsu.add(node, fired=True, is_boundary=(node == boundary))
            membership[node] = node

        def cluster_members() -> dict[int, set[int]]:
            members: dict[int, set[int]] = {}
            for node in membership:
                members.setdefault(dsu.find(node), set()).add(node)
            return members

        for _ in range(self.max_growth_steps):
            members = cluster_members()
            odd_roots = [
                root
                for root in members
                if not dsu.is_neutral(root)
            ]
            if not odd_roots:
                break
            progress = (len(membership), len(members))
            for root in odd_roots:
                if dsu.is_neutral(root):
                    continue
                frontier = list(members[dsu.find(root)])
                for node in frontier:
                    for neighbor in self.graph.neighbors[node]:
                        if neighbor not in membership:
                            dsu.add(
                                neighbor,
                                fired=False,
                                is_boundary=(neighbor == boundary),
                            )
                            membership[neighbor] = neighbor
                        dsu.union(node, neighbor)
            if (len(membership), len(cluster_members())) == progress:
                # An odd cluster swallowed its whole connected component and
                # still cannot reach the boundary (possible on periodic codes,
                # where the graph has no spatial boundary, or after hyperedge
                # decomposition leaves an odd residual).  Growing further can
                # never neutralise it; hand it to peeling as-is, which
                # corrects everything except one residual flag at the root.
                break
        else:  # pragma: no cover - defensive guard against infinite growth
            raise RuntimeError("union-find cluster growth did not converge")

        members = cluster_members()
        fired = {node: (node in flagged) for node in membership}
        return members, fired

    # ------------------------------------------------------------------ #
    # Peeling
    # ------------------------------------------------------------------ #
    def _peel(
        self, clusters: dict[int, set[int]], fired: dict[int, bool]
    ) -> list[tuple[int, int]]:
        """Select correction edges inside each neutral cluster via leaf peeling."""
        boundary = self.graph.boundary_node
        correction: list[tuple[int, int]] = []
        for nodes in clusters.values():
            if not any(fired[node] for node in nodes):
                continue
            root = boundary if boundary in nodes else next(iter(nodes))
            order, parent = self._spanning_tree(nodes, root)
            syndrome = {node: fired[node] for node in nodes}
            for node in reversed(order):
                if node == root:
                    continue
                if syndrome[node]:
                    correction.append((node, parent[node]))
                    syndrome[parent[node]] = not syndrome[parent[node]]
                    syndrome[node] = False
        return correction

    def _spanning_tree(
        self, nodes: set[int], root: int
    ) -> tuple[list[int], dict[int, int]]:
        """BFS spanning tree of a cluster; returns visit order and parent map."""
        order = [root]
        parent: dict[int, int] = {root: root}
        queue: deque[int] = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in self.graph.neighbors[node]:
                if neighbor in nodes and neighbor not in parent:
                    parent[neighbor] = node
                    order.append(neighbor)
                    queue.append(neighbor)
        return order, parent
