"""Space-time detector graph for matching-based decoding.

For a memory-Z experiment the decoder works on the Z-type detectors: one node
per (Z stabilizer, round) pair, including the extra layer derived from the
final transversal data readout.  Edges correspond to single error mechanisms:

* *space-like* edges join the (one or) two Z stabilizers flipped by an X
  error on a data qubit within one round; data qubits on the X boundary have
  only one adjacent Z stabilizer and connect to the virtual boundary node.
  An X error that strikes a data qubit between its two stabilizers' CNOTs
  (a gate fault mid-round) is seen by the later-slot stabilizer in this
  round and by the earlier-slot one only in the next, so each such qubit
  also gets a diagonal space-like edge across consecutive layers,
* *time-like* edges join the same stabilizer in consecutive rounds
  (measurement errors).

Without the diagonals a single gate fault costs two edges, and matching
under gate noise loses about half the code distance.

Every edge records whether the corresponding physical error flips the logical
observable, so a matching can be converted into a logical-flip prediction.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..codes.base import StabilizerCode
from ..noise import NoiseParams
from . import _ckernels

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["DetectorGraph", "GraphEdge", "shared_graph"]

#: Node-count gate for the cached all-pairs shortest-path tables.  Below it
#: one dijkstra call serves every decode of the graph's lifetime (the batch
#: engine's hot path); above it the tables would cost O(n^2) memory, so
#: per-syndrome dijkstra is used instead.
_ALL_PAIRS_MAX_NODES = 2048

#: Graphs :func:`shared_graph` keeps per process, least recently used
#: evicted first.  A sweep or a windowed stream needs one or two graphs per
#: (code, rounds, p); the bound keeps a long-lived process from pinning
#: every all-pairs table it ever built.
_GRAPH_MEMO_MAX = 8

_graph_memo: OrderedDict[tuple, "DetectorGraph"] = OrderedDict()
_graph_memo_lock = threading.Lock()


@dataclass(frozen=True)
class GraphEdge:
    """One edge of the detector graph."""

    node_a: int
    node_b: int
    weight: float
    flips_logical: bool
    kind: str  # "space", "time" or "boundary"


@dataclass
class DetectorGraph:
    """Decoding graph of a memory-Z experiment with ``rounds`` QEC rounds.

    ``hyperedges`` selects what happens on codes where a data qubit touches
    more than two Z stabilizers (colour codes, product codes):

    * ``"reject"`` (default) raises, preserving the strict matching
      precondition,
    * ``"decompose"`` chains the k adjacent stabilizers into k-1 pairwise
      space edges (the first carrying the qubit's logical-flip parity), a
      standard approximation that lets matching and union-find run on
      hyperedge codes at reduced accuracy.
    """

    code: StabilizerCode
    rounds: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    hyperedges: str = "reject"

    def __post_init__(self) -> None:
        if self.hyperedges not in ("reject", "decompose"):
            raise ValueError(
                f"hyperedges must be 'reject' or 'decompose', got {self.hyperedges!r}"
            )
        self._z_stabs = [s for s in self.code.stabilizers if s.basis == "Z"]
        if not self._z_stabs:
            raise ValueError("code has no Z stabilizers; nothing to decode")
        adjacency: dict[int, list[int]] = {q: [] for q in range(self.code.num_data)}
        for local, stab in enumerate(self._z_stabs):
            for qubit in stab.data_support:
                adjacency[qubit].append(local)
        too_many = [q for q, stabs in adjacency.items() if len(stabs) > 2]
        if too_many and self.hyperedges == "reject":
            raise ValueError(
                "matching decoder requires each data qubit to touch at most two "
                f"Z stabilizers; qubits {too_many[:5]} violate this (use a "
                "different decoder for this code, or hyperedges='decompose')"
            )
        self._data_to_z = adjacency

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def num_z_stabs(self) -> int:
        """Number of Z stabilizers (detectors per layer)."""
        return len(self._z_stabs)

    @property
    def num_layers(self) -> int:
        """Number of detector layers: one per round plus the final readout layer."""
        return self.rounds + 1

    @property
    def num_nodes(self) -> int:
        """Detector nodes plus the single virtual boundary node."""
        return self.num_layers * self.num_z_stabs + 1

    @property
    def boundary_node(self) -> int:
        """Index of the virtual boundary node."""
        return self.num_layers * self.num_z_stabs

    def node_index(self, z_local: int, layer: int) -> int:
        """Node id of detector ``z_local`` in ``layer``."""
        return layer * self.num_z_stabs + z_local

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    @cached_property
    def _chain_pairs(self) -> dict[tuple[int, int], bool]:
        """Hyperedge decomposition: unique chained stabilizer pairs -> flips.

        Each data qubit touching ``k > 2`` Z stabilizers contributes the
        ``k - 1`` consecutive pairs of its chain; a qubit on the logical
        support must flip the observable exactly once along its chain, so
        its flip is placed on a pair no other qubit (regular or chained)
        also uses where possible — parallel edges with conflicting
        ``flips_logical`` would otherwise be collapsed arbitrarily by the
        edge lookup.  One shared edge per pair is emitted, never duplicates.
        """
        logical_support = set(np.nonzero(self.code.logical_z)[0].tolist())
        regular_pairs = {
            tuple(sorted(stabs))
            for stabs in self._data_to_z.values()
            if len(stabs) == 2
        }
        chains = {
            qubit: [
                tuple(sorted(pair))
                for pair in zip(stabs, stabs[1:])
            ]
            for qubit, stabs in sorted(self._data_to_z.items())
            if len(stabs) > 2
        }
        usage: dict[tuple[int, int], int] = {}
        for pairs in chains.values():
            for pair in pairs:
                usage[pair] = usage.get(pair, 0) + 1
        chain_pairs: dict[tuple[int, int], bool] = {pair: False for pair in usage}
        for qubit, pairs in chains.items():
            if qubit not in logical_support:
                continue
            # Prefer a pair private to this qubit's chain; fall back to the
            # first pair (best-effort: a shared pair cannot satisfy both
            # qubits' parities at once).
            target = next(
                (p for p in pairs if usage[p] == 1 and p not in regular_pairs),
                pairs[0],
            )
            chain_pairs[target] = True
        # Pairs also present as a regular two-stabilizer edge are dropped:
        # that edge already exists with its own qubit's parity, and a second
        # copy would only be collapsed away by the edge lookup.
        return {
            pair: flips
            for pair, flips in chain_pairs.items()
            if pair not in regular_pairs
        }

    @cached_property
    def edges(self) -> list[GraphEdge]:
        """All edges of the space-time decoding graph."""
        space_error = max(self.noise.p, 1e-12)
        time_error = max(self.noise.p, 1e-12)
        space_weight = float(-np.log(space_error))
        time_weight = float(-np.log(time_error))
        logical_support = set(np.nonzero(self.code.logical_z)[0].tolist())

        edges: list[GraphEdge] = []
        for layer in range(self.num_layers):
            for qubit, stabs in self._data_to_z.items():
                flips = qubit in logical_support
                if len(stabs) == 2:
                    edges.append(
                        GraphEdge(
                            node_a=self.node_index(stabs[0], layer),
                            node_b=self.node_index(stabs[1], layer),
                            weight=space_weight,
                            flips_logical=flips,
                            kind="space",
                        )
                    )
                elif len(stabs) == 1:
                    edges.append(
                        GraphEdge(
                            node_a=self.node_index(stabs[0], layer),
                            node_b=self.boundary_node,
                            weight=space_weight,
                            flips_logical=flips,
                            kind="boundary",
                        )
                    )
            for (first, second), flips in self._chain_pairs.items():
                edges.append(
                    GraphEdge(
                        node_a=self.node_index(first, layer),
                        node_b=self.node_index(second, layer),
                        weight=space_weight,
                        flips_logical=flips,
                        kind="space",
                    )
                )
        for layer in range(self.num_layers - 1):
            for z_local in range(self.num_z_stabs):
                edges.append(
                    GraphEdge(
                        node_a=self.node_index(z_local, layer),
                        node_b=self.node_index(z_local, layer + 1),
                        weight=time_weight,
                        flips_logical=False,
                        kind="time",
                    )
                )
            for qubit, (early, late) in self._mid_round_pairs:
                edges.append(
                    GraphEdge(
                        node_a=self.node_index(late, layer),
                        node_b=self.node_index(early, layer + 1),
                        weight=space_weight,
                        flips_logical=qubit in logical_support,
                        kind="space",
                    )
                )
        return edges

    @cached_property
    def _mid_round_pairs(self) -> list[tuple[int, tuple[int, int]]]:
        """``(qubit, (early, late))`` for every data qubit on two Z stabilizers.

        ``early`` is the stabilizer whose CNOT on the qubit comes first in
        the round; an X error between the two CNOTs fires ``late`` in this
        round's layer and ``early`` in the next.
        """
        slot_of = {
            (local, qubit): slot
            for local, stab in enumerate(self._z_stabs)
            for qubit, slot in zip(stab.data_support, stab.slots)
        }
        pairs = []
        for qubit, stabs in self._data_to_z.items():
            if len(stabs) == 2:
                early, late = sorted(stabs, key=lambda local: slot_of[local, qubit])
                pairs.append((qubit, (early, late)))
        return pairs

    @cached_property
    def sparse_weights(self) -> csr_matrix:
        """Symmetric sparse weight matrix of the graph.

        Built from the collapsed :meth:`edge_between` lookup: parallel edges
        (e.g. the two boundary qubits of a Z face on the X boundary) are
        alternative single faults, so the pair costs the lighter edge.  The
        COO constructor would otherwise sum them and price the pair as two
        faults.
        """
        from scipy.sparse import coo_matrix

        rows, cols, vals = [], [], []
        for edge in self._edge_lookup.values():
            rows.extend([edge.node_a, edge.node_b])
            cols.extend([edge.node_b, edge.node_a])
            vals.extend([edge.weight, edge.weight])
        return coo_matrix(
            (vals, (rows, cols)), shape=(self.num_nodes, self.num_nodes)
        ).tocsr()

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], GraphEdge]:
        lookup: dict[tuple[int, int], GraphEdge] = {}
        for edge in self.edges:
            key = (min(edge.node_a, edge.node_b), max(edge.node_a, edge.node_b))
            existing = lookup.get(key)
            if existing is None or edge.weight < existing.weight:
                lookup[key] = edge
        return lookup

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Adjacency lists (node -> neighbouring nodes)."""
        adjacency: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for (node_a, node_b) in self._edge_lookup:
            adjacency[node_a].append(node_b)
            adjacency[node_b].append(node_a)
        return adjacency

    def edge_between(self, node_a: int, node_b: int) -> GraphEdge | None:
        """The edge joining two nodes, or ``None``."""
        return self._edge_lookup.get((min(node_a, node_b), max(node_a, node_b)))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph as CSR with one logical-flip bit per slot.

        ``(indptr, indices, flips)``: node ``a``'s slots
        ``indptr[a]:indptr[a + 1]`` hold :attr:`neighbors` ``[a]`` in list
        order, and ``flips[s]`` is 1 exactly when :meth:`edge_between` of
        the slot's node pair crosses the logical (after parallel-edge
        collapsing).  O(nodes + edges); the compiled decoders read the
        graph from it (:class:`repro.decoders._ckernels.GraphContext`).
        """
        slots = [(a, b) for a, row in enumerate(self.neighbors) for b in row]
        lookup = self._edge_lookup
        return (
            np.cumsum([0, *map(len, self.neighbors)], dtype=np.int32),
            np.array([b for _, b in slots], dtype=np.int32),
            np.array(
                [lookup[min(a, b), max(a, b)].flips_logical for a, b in slots],
                dtype=np.uint8,
            ),
        )

    @cached_property
    def context(self) -> _ckernels.GraphContext:
        """The graph pinned for the compiled decoders, built on first use.

        One :class:`~repro.decoders._ckernels.GraphContext` per graph, which
        every decoder over it shares: the CSR, plus the all-pairs matrices
        when the graph is under the all-pairs size gate (past it each
        syndrome brings its own shortest-path rows), computed when matching
        first reads them.
        """
        return _ckernels.GraphContext(
            *self.csr, self.boundary_node, all_pairs=lambda: self._all_pairs
        )

    @cached_property
    def fingerprint(self) -> str:
        """Content digest of the decoding problem this graph defines.

        Two graphs share a fingerprint exactly when they decode identically:
        same node layout and same edge set (endpoints, weights, logical-flip
        parities).  The syndrome cache (:mod:`repro.decoders.cache`) keys on
        this, so corrections computed against one graph instance are safely
        reused by any structurally identical instance — and never by a graph
        that differs in rounds, noise weighting or code structure.
        """
        digest = hashlib.sha256()
        digest.update(repr((self.num_nodes, self.boundary_node)).encode())
        for edge in self.edges:
            digest.update(
                repr(
                    (edge.node_a, edge.node_b, edge.weight, edge.flips_logical)
                ).encode()
            )
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Detector serialisation and shortest paths
    # ------------------------------------------------------------------ #
    def flagged_nodes(self, detector_history: np.ndarray, final_detectors: np.ndarray) -> np.ndarray:
        """Node ids of fired detectors for one shot.

        ``detector_history`` has shape ``(rounds, num_z_stabs)`` and
        ``final_detectors`` shape ``(num_z_stabs,)``.
        """
        flat = np.concatenate((detector_history.reshape(-1), final_detectors))
        return np.nonzero(flat)[0]

    @cached_property
    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """All-pairs (distances, predecessors), or ``None`` past the size gate."""
        if self.num_nodes > _ALL_PAIRS_MAX_NODES:
            return None
        from scipy.sparse.csgraph import dijkstra

        return dijkstra(
            self.sparse_weights, directed=False, return_predecessors=True
        )

    def shortest_paths_from(
        self, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dijkstra distances and predecessors from the given source nodes."""
        all_pairs = self._all_pairs
        if all_pairs is not None:
            distances, predecessors = all_pairs
            return distances[sources], predecessors[sources]
        from scipy.sparse.csgraph import dijkstra

        distances, predecessors = dijkstra(
            self.sparse_weights,
            directed=False,
            indices=sources,
            return_predecessors=True,
        )
        return distances, predecessors


def shared_graph(
    code: StabilizerCode, rounds: int, noise: NoiseParams, hyperedges: str = "reject"
) -> DetectorGraph:
    """The process's :class:`DetectorGraph` for these inputs, built once.

    Keyed by exactly what the edges are built from: the Z stabilizers'
    supports and CNOT slots, ``num_data``, the logical-Z support, ``rounds``,
    ``noise.p`` and ``hyperedges``.  Not by object identity, since
    :func:`~repro.experiments.make_code` builds a new code on every call.
    The graph's cached edges, fingerprint, all-pairs tables and
    :attr:`~DetectorGraph.context` are therefore built once per process and
    shared by every decoder over it, offline and windowed; pool workers
    forked after a warm-up inherit them.  Decoders keep their own caches and
    counters, so sharing a graph changes no result.  At most
    :data:`_GRAPH_MEMO_MAX` graphs are kept.
    """
    key = (
        tuple(
            (stab.data_support, stab.slots)
            for stab in code.stabilizers
            if stab.basis == "Z"
        ),
        code.num_data,
        np.asarray(code.logical_z, dtype=bool).tobytes(),
        int(rounds),
        float(noise.p),
        hyperedges,
    )
    with _graph_memo_lock:
        graph = _graph_memo.get(key)
        if graph is not None:
            _graph_memo.move_to_end(key)
            return graph
    graph = DetectorGraph(code=code, rounds=rounds, noise=noise, hyperedges=hyperedges)
    with _graph_memo_lock:
        graph = _graph_memo.setdefault(key, graph)
        _graph_memo.move_to_end(key)
        while len(_graph_memo) > _GRAPH_MEMO_MAX:
            _graph_memo.popitem(last=False)
    return graph
