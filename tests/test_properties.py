"""Property-based tests (hypothesis) for core data structures and invariants.

The input strategies live in ``tests/strategies.py`` and are shared with the
scenario-fuzz tier; the profiles (derandomized ``ci`` vs randomized
``nightly``) are registered there and loaded by ``tests/conftest.py``.
"""

import math
import os
from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from strategies import (
    bit_patterns,
    bit_widths,
    detector_blocks,
    detector_chunk_pairs,
    gf2_matrices,
    matching_instances,
    group_bases_lists,
    shard_payloads,
    stabilizer_supports,
    task_records,
    torn_journal_bytes,
)

from repro.codes import color_code, surface_code, toric_code, two_block_cyclic_code
from repro.codes.gf2 import gf2_nullspace, gf2_rank
from repro.codes.scheduling import assign_conflict_free_slots
from repro.core import CalibrationData, GraphModelConfig, TransitionModel
from repro.core.boolean_minimize import evaluate, quine_mccluskey
from repro.core.graph_model import GroupInfo, QubitContext
from repro.decoders import (
    DetectorGraph,
    MatchingDecoder,
    SyndromeCache,
    UnionFindDecoder,
    make_decoder,
)
from repro.decoders import _ckernels as deckernels
from repro.decoders import matching
from repro.decoders.matching import _networkx_matching
from repro.noise import paper_noise
from repro.sim import _ckernels as simkernels
from repro.sim.draws import DrawSource
from repro.core.patterns import (
    bits_to_int,
    eraser_flags_pattern,
    int_to_bits,
    popcount,
    tag_pattern,
    untag_pattern,
)
from repro.experiments.metrics import per_round_logical_error_rate, wilson_interval


# --------------------------------------------------------------------------- #
# Pattern utilities
# --------------------------------------------------------------------------- #
@given(bit_patterns())
def test_bits_roundtrip(pattern):
    value, width = pattern
    assert bits_to_int(int_to_bits(value, width)) == value


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_popcount_matches_python(value):
    assert popcount(value) == bin(value).count("1")


@given(bit_patterns(max_width=4))
def test_tagging_roundtrip_property(pattern):
    value, width = pattern
    assert untag_pattern(tag_pattern(value, width)) == (value, width)


@given(bit_patterns(max_width=8))
def test_eraser_flag_monotone_in_popcount(pattern):
    value, width = pattern
    if eraser_flags_pattern(value, width):
        # Setting one more bit can never un-flag a pattern.
        for bit in range(width):
            assert eraser_flags_pattern(value | (1 << bit), width)


# --------------------------------------------------------------------------- #
# Packed detector chunks (repro.pipeline)
# --------------------------------------------------------------------------- #
@given(detector_blocks())
def test_pack_unpack_round_trip_identity(block):
    """pack -> unpack is the identity for every chunk shape, including zero
    shots and widths that leave padding bits in the last packed byte."""
    from repro.pipeline import pack_chunk, unpack_chunk

    for round_index in range(block.shape[1]):
        chunk = block[:, round_index, :]
        assert np.array_equal(unpack_chunk(pack_chunk(chunk), chunk.shape[1]), chunk)


@given(detector_blocks())
def test_ring_push_slice_unpack_is_identity(block):
    """pack -> ring slot -> window slice -> unpack reproduces the record."""
    from repro.pipeline import PackedRing

    shots, rounds, detectors = block.shape
    ring = PackedRing(capacity=rounds, shots=shots, num_detectors=detectors)
    for round_index in range(rounds):
        ring.push(round_index, block[:, round_index, :])
    assert np.array_equal(ring.window(0, rounds), block)
    for round_index in range(rounds):
        assert np.array_equal(ring.read_round(round_index), block[:, round_index, :])


@given(detector_chunk_pairs())
def test_packing_is_gf2_linear(pair):
    """pack(a ^ b) == pack(a) ^ pack(b): the property that makes XOR-ing
    boundary artifacts in the packed domain exact, not approximate."""
    from repro.pipeline import pack_chunk

    a, b = pair
    assert np.array_equal(pack_chunk(a ^ b), pack_chunk(a) ^ pack_chunk(b))


@given(detector_chunk_pairs())
def test_ring_xor_round_matches_boolean_xor(pair):
    from repro.pipeline import PackedRing

    chunk, mask = pair
    ring = PackedRing(capacity=1, shots=chunk.shape[0], num_detectors=chunk.shape[1])
    ring.push(0, chunk)
    ring.xor_round(0, mask)
    assert np.array_equal(ring.read_round(0), chunk ^ mask)


# --------------------------------------------------------------------------- #
# GF(2) linear algebra
# --------------------------------------------------------------------------- #
@given(gf2_matrices())
@settings(max_examples=40, deadline=None)
def test_rank_nullity(matrix):
    cols = matrix.shape[1]
    assert gf2_rank(matrix) + gf2_nullspace(matrix).shape[0] == cols
    null_basis = gf2_nullspace(matrix)
    for vector in null_basis:
        assert not np.any((matrix @ vector) % 2)


# --------------------------------------------------------------------------- #
# Quine-McCluskey correctness
# --------------------------------------------------------------------------- #
@given(
    st.integers(min_value=2, max_value=5),
    st.sets(st.integers(min_value=0, max_value=31), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_quine_mccluskey_preserves_truth_table(width, raw_minterms):
    minterms = {m for m in raw_minterms if m < (1 << width)}
    implicants = quine_mccluskey(minterms, width)
    for value in range(1 << width):
        assert evaluate(implicants, value) == (value in minterms)


# --------------------------------------------------------------------------- #
# Scheduling
# --------------------------------------------------------------------------- #
@given(stabilizer_supports())
@settings(max_examples=50, deadline=None)
def test_conflict_free_slots_property(supports):
    slots = assign_conflict_free_slots(supports)
    qubit_usage: dict[int, set[int]] = {}
    for support, assignment in zip(supports, slots):
        assert len(assignment) == len(support)
        assert len(set(assignment)) == len(assignment)
        for qubit, slot in zip(support, assignment):
            assert slot not in qubit_usage.setdefault(qubit, set())
            qubit_usage[qubit].add(slot)


# --------------------------------------------------------------------------- #
# Graph-model labelling invariants
# --------------------------------------------------------------------------- #
@given(group_bases_lists(), st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_labels_never_flag_zero_and_respect_threshold(bases_list, threshold):
    context = QubitContext(
        width=len(bases_list),
        groups=tuple(
            GroupInfo(position=i, bases=bases) for i, bases in enumerate(bases_list)
        ),
    )
    calibration = CalibrationData(
        gate_error=1e-3,
        measurement_error=1e-3,
        reset_error=1e-3,
        data_error=1e-3,
        leakage_rate=1e-4,
    )
    model = TransitionModel(context, calibration, GraphModelConfig(threshold=threshold))
    labels = model.label_patterns()
    leakage, nonleakage = model.super_edge_weights()
    assert not labels[0]
    for value in range(1, 1 << context.width):
        assert labels[value] == (leakage[value] > threshold * nonleakage[value])


# --------------------------------------------------------------------------- #
# Codes and metrics
# --------------------------------------------------------------------------- #
@given(st.sampled_from([3, 5, 7]))
@settings(max_examples=6, deadline=None)
def test_surface_code_invariants(distance):
    code = surface_code(distance)
    assert code.num_data == distance**2
    assert code.num_logical_qubits == 1
    h_x, h_z = code.parity_check_x, code.parity_check_z
    assert not np.any((h_x @ h_z.T) % 2)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_wilson_interval_bounds(failures, extra):
    shots = failures + extra
    low, high = wilson_interval(failures, shots)
    assert 0 <= low <= failures / shots <= high <= 1


@given(
    st.floats(min_value=0.0, max_value=0.49),
    st.integers(min_value=1, max_value=1000),
)
def test_per_round_rate_bounded(total_ler, rounds):
    per_round = per_round_logical_error_rate(total_ler, rounds)
    assert 0 <= per_round <= total_ler + 1e-12


@given(st.sampled_from([6, 9, 12]), st.sets(st.integers(min_value=0, max_value=2), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_two_block_codes_commute(lift, poly_a):
    # a(x) built from a factor of x^l - 1 times something keeps k > 0 only in
    # special cases; here we just check CSS commutation holds whenever the
    # construction succeeds.
    poly = sorted(poly_a)
    try:
        code = two_block_cyclic_code(lift, poly, poly, name="prop")
    except ValueError:
        return
    h_x, h_z = code.parity_check_x, code.parity_check_z
    assert not np.any((h_x @ h_z.T) % 2)


# --------------------------------------------------------------------------- #
# Unused-width bit still untouched by bit helpers (regression guard on the
# shared strategy itself: values drawn by bit_patterns always fit the width)
# --------------------------------------------------------------------------- #
@given(bit_widths(), bit_patterns())
def test_bit_patterns_fit_their_width(_, pattern):
    value, width = pattern
    assert 0 <= value < (1 << width)


# --------------------------------------------------------------------------- #
# Durable fabric journal (repro.fabric.jobstore)
# --------------------------------------------------------------------------- #
def _leaves_equal(expected, actual):
    if isinstance(expected, np.ndarray):
        return (
            isinstance(actual, np.ndarray)
            and actual.dtype == expected.dtype
            and actual.shape == expected.shape
            and np.ascontiguousarray(actual).tobytes()
            == np.ascontiguousarray(expected).tobytes()
        )
    if isinstance(expected, dict):
        return expected.keys() == actual.keys() and all(
            _leaves_equal(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, (list, tuple)):
        return len(expected) == len(actual) and all(
            _leaves_equal(e, a) for e, a in zip(expected, actual)
        )
    return expected == actual


@given(shard_payloads())
def test_shard_payload_codec_roundtrips_bit_exact(payload):
    """Checkpoint payloads survive JSON serialization bit-for-bit — the
    property the resumed-merge bit-identity invariant rests on."""
    import json as json_module

    from repro.fabric import decode_payload, encode_payload

    wire = json_module.dumps(encode_payload(payload), sort_keys=True)
    assert _leaves_equal(payload, decode_payload(json_module.loads(wire)))


@given(task_records())
def test_journal_replay_roundtrips_valid_records(tmp_path_factory, record):
    from repro.fabric import JobStore

    store = JobStore(tmp_path_factory.mktemp("journal"))
    store.attach({})
    store.write_task(record)
    loaded = store.load_task(record["task"])
    assert loaded is not None
    for key in ("schema", "task", "state", "attempts", "owner", "error",
                "shots", "seed"):
        assert loaded[key] == record[key]
    assert store.corrupt == 0


@given(torn_journal_bytes())
def test_journal_replay_survives_torn_writes(tmp_path_factory, torn):
    """A record torn at ANY byte offset is either still parseable-and-valid
    or quarantined as absent — the reader never crashes, never trusts
    garbage, and the slot stays usable for the re-queued task."""
    from repro.fabric import JobStore

    record, damaged = torn
    store = JobStore(tmp_path_factory.mktemp("journal"))
    store.attach({})
    path = store.task_path(record["task"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(damaged)
    loaded = store.load_task(record["task"])
    assert loaded is None  # every strict prefix fails to parse or validate
    assert store.corrupt == 1
    assert not path.exists()  # quarantined aside, never left in place
    # The slot is immediately reusable: a clean rewrite journals fine.
    store.write_task(record)
    assert store.load_task(record["task"]) is not None


# --------------------------------------------------------------------------- #
# Matching optimality oracle: every exact backend vs brute force
# --------------------------------------------------------------------------- #
def _pairings(items):
    """Every way to pair up ``items`` or send each to the boundary (-1)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for tail in _pairings(rest):
        yield [(first, -1), *tail]
    for k, partner in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1 :]):
            yield [(first, partner), *tail]


def _pairing_cost(pairs, boundary, pair):
    return sum(boundary[i] if j < 0 else pair[i, j] for i, j in pairs)


@contextmanager
def _kernels(flag, variable="REPRO_DECODER_CKERNELS"):
    previous = os.environ.get(variable)
    os.environ[variable] = flag
    try:
        yield
    finally:
        if previous is None:
            del os.environ[variable]
        else:
            os.environ[variable] = previous


@cache
def _dp_decoder():
    return MatchingDecoder(DetectorGraph(code=surface_code(3), rounds=1, noise=paper_noise()))


def _dp_pairs(boundary, pair):
    """The bitmask DP on a synthetic instance: detectors are nodes
    ``0..n-1`` and node ``n`` is the boundary."""
    count = boundary.size
    distances = np.hstack([pair, boundary[:, None]])
    pairs = _dp_decoder()._dp_matching(np.arange(count), distances, count)
    return [(a, -1 if b == count else b) for a, b in pairs]


def _kernel_pairs(boundary, pair):
    """``decode_syndrome`` on a synthetic complete graph: detectors are nodes
    ``0..n-1``, node ``n`` is the boundary, and ``pred[i][j] = i``, so each
    matched pair ``(i, j)`` retraces as exactly the one edge ``(i, j)``, in
    the kernel's pair order and orientation.  ``None`` when the kernel
    defers (DP dead end, non-finite blossom cost)."""
    count = boundary.size
    distances = np.zeros((count + 1, count + 1))
    distances[:count, :count] = pair
    distances[:count, count] = distances[count, :count] = boundary
    predecessors = np.repeat(np.arange(count + 1, dtype=np.int32)[:, None], count + 1, axis=1)
    np.fill_diagonal(predecessors, -9999)
    # No CSR slots: the instance has no logical, every flip bit reads 0.
    ctx = deckernels.GraphContext(
        np.zeros(count + 2), np.zeros(0), np.zeros(0), count,
        all_pairs=(distances, predecessors),
    )
    entry = deckernels.decode_syndrome(ctx, np.arange(count))
    if entry is None:
        return None
    edges, parity = entry
    assert parity == 0
    return [(a, -1 if b == count else b) for a, b in edges]


@given(matching_instances(max_count=10))
@settings(max_examples=40, deadline=None)
def test_exact_matching_backends_reach_the_brute_force_minimum(instance):
    """The interpreted DP, networkx blossom and the compiled
    ``decode_syndrome`` (analytic, DP and blossom port) each return a
    complete pairing whose total cost equals the minimum over every
    pairing-with-boundary, ties included (integer and dyadic costs keep
    every sum exact); for 3..8 detectors the compiled DP's pairs are the
    interpreted DP's, in the same order."""
    boundary, pair = instance
    count = boundary.size
    best = min(_pairing_cost(p, boundary, pair) for p in _pairings(list(range(count))))
    chosen = {"networkx": _networkx_matching(boundary, pair), "dp": _dp_pairs(boundary, pair)}
    with _kernels("1"):
        if deckernels.available():
            chosen["decode_syndrome"] = _kernel_pairs(boundary, pair)
            if 3 <= count <= 8:
                assert chosen["decode_syndrome"] == chosen["dp"]
    for backend, pairs in chosen.items():
        covered = sorted(i for p in pairs for i in p if i >= 0)
        assert covered == list(range(count)), backend
        assert _pairing_cost(pairs, boundary, pair) == best, backend


@pytest.mark.skipif(not deckernels.available(), reason="no C toolchain available")
@given(
    matching_instances(
        min_count=9,
        max_count=40,
        kinds=("integer", "dyadic", "lattice", "euclidean"),
        infinite=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_blossom_kernel_pairs_equal_networkx(instance):
    """The compiled blossom port (through ``decode_syndrome``) returns
    networkx's exact pair list — same pairs, orientation and order, ties
    included — and defers (``None``) on any non-finite cost."""
    boundary, pair = instance
    kernel = _kernel_pairs(boundary, pair)
    if not (np.isfinite(boundary).all() and np.isfinite(pair).all()):
        assert kernel is None
        return
    assert kernel == _networkx_matching(boundary, pair)


# --------------------------------------------------------------------------- #
# Syndrome-consistency oracle and the compiled union-find port
# --------------------------------------------------------------------------- #
_CODES = {"surface": surface_code, "color": color_code, "toric": toric_code}


@cache
def _graph(family, distance):
    """A small decoding graph (hyperedges chained, so colour codes decode)."""
    return DetectorGraph(
        code=_CODES[family](distance), rounds=2, noise=paper_noise(),
        hyperedges="decompose",
    )


def _boundary_mod2(graph, edges):
    """Nodes of odd degree in ``edges``, the virtual boundary node ignored."""
    odd = set()
    for edge in edges:
        odd ^= {*edge}
    odd.discard(graph.boundary_node)
    return odd


def _records(graph, nodes):
    """The ``(history, final)`` detector record firing exactly ``nodes``."""
    flat = np.zeros(graph.boundary_node, dtype=bool)
    flat[sorted(nodes)] = True
    history = flat[: graph.rounds * graph.num_z_stabs]
    return (
        history.reshape(graph.rounds, graph.num_z_stabs),
        flat[graph.rounds * graph.num_z_stabs :],
    )


#: ``(method, exact->greedy bound)``: matching as shipped, matching with
#: every syndrome sent to the greedy pairing, and union-find.
_DECODER_PATHS = [
    ("matching", matching._EXACT_MAX_FIRED),
    ("matching", 0),
    ("union_find", matching._EXACT_MAX_FIRED),
]


@contextmanager
def _exact_max_fired(bound):
    previous = matching._EXACT_MAX_FIRED
    matching._EXACT_MAX_FIRED = bound
    try:
        yield
    finally:
        matching._EXACT_MAX_FIRED = previous


_graph_families = st.tuples(st.sampled_from(sorted(_CODES)), st.sampled_from([3, 5]))


@given(_graph_families, st.integers(0, 2**31 - 1), st.floats(0.02, 0.5))
@settings(max_examples=30, deadline=None)
def test_corrections_reproduce_their_syndrome(family, seed, density):
    """Oracle independent of any decoder path: the syndrome of a random set
    of graph edges is decoded by every decoder, the matching decoder's
    exact and greedy pairings both, kernels on and off, and the mod-2
    boundary of each correction must be that syndrome again."""
    graph = _graph(*family)
    edges = sorted(graph._edge_lookup)
    rng = np.random.default_rng(seed)
    chosen = [edges[k] for k in np.flatnonzero(rng.random(len(edges)) < density)]
    syndrome = _boundary_mod2(graph, chosen)
    history, final = _records(graph, syndrome)
    for flag in ("0", "1"):
        with _kernels(flag):
            for method, bound in _DECODER_PATHS:
                with _exact_max_fired(bound):
                    decoder = make_decoder(graph, method, cache=SyndromeCache(0))
                    correction = decoder.decode_shot_edges(history, final)
                assert _boundary_mod2(graph, correction) == syndrome, (method, bound, flag)


def _set_by_adds(keys):
    built = set()
    for key in keys:
        built.add(key)
    return built


@pytest.mark.skipif(not deckernels.available(), reason="no C toolchain available")
@given(st.lists(st.integers(0, 4000), max_size=300))
@settings(max_examples=60, deadline=None)
def test_intset_emulation_matches_cpython_set_order(keys):
    """The union-find kernel's int-set model iterates exactly like CPython's
    ``set``, built in one go or one ``add`` at a time."""
    order = deckernels.intset_order(keys)
    assert order == list(set(keys)) == list(_set_by_adds(keys))


def _interpreted_uf_entry(decoder, flagged):
    """The Python ``(edges, parity)`` entry, grown and peeled directly."""
    clusters, fired = decoder._grow_clusters(set(int(n) for n in flagged))
    edges = tuple((int(a), int(b)) for a, b in decoder._peel(clusters, fired))
    parity = 0
    for node_a, node_b in edges:
        parity ^= decoder.graph.edge_between(node_a, node_b).flips_logical
    return edges, parity


@pytest.mark.skipif(not deckernels.uf_available(), reason="no C toolchain available")
@given(_graph_families, st.integers(0, 2**31 - 1), st.integers(1, 90))
@settings(max_examples=60, deadline=None)
def test_union_find_kernel_entry_equals_interpreted(family, seed, fired):
    """The compiled union-find entry is the interpreted one: same edges in
    the same order and orientation, same parity — for random syndromes on
    surface, colour and boundary-less toric graphs, heavy ones (past the
    32-detector cache bound) included."""
    graph = _graph(*family)
    decoder = UnionFindDecoder(graph)
    rng = np.random.default_rng(seed)
    count = min(fired, graph.boundary_node)
    flagged = np.sort(rng.choice(graph.boundary_node, size=count, replace=False))
    expected = _interpreted_uf_entry(decoder, flagged)
    assert deckernels.uf_decode(decoder.graph.context, flagged, 10_000) == expected
    history, final = _records(graph, flagged.tolist())
    assert decoder.decode_shot_edges(history, final) == list(expected[0])


@pytest.mark.skipif(not deckernels.uf_available(), reason="no C toolchain available")
@given(_graph_families, st.integers(0, 2**31 - 1), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_union_find_kernel_agrees_when_growth_is_capped(family, seed, steps):
    """With a tiny ``max_growth_steps`` both paths fail together (the kernel
    defers and the interpreted path raises) or agree exactly."""
    graph = _graph(*family)
    decoder = UnionFindDecoder(graph, max_growth_steps=steps)
    rng = np.random.default_rng(seed)
    count = min(int(rng.integers(1, 12)), graph.boundary_node)
    flagged = np.sort(rng.choice(graph.boundary_node, size=count, replace=False))
    kernel = deckernels.uf_decode(decoder.graph.context, flagged, steps)
    try:
        expected = _interpreted_uf_entry(decoder, flagged)
    except RuntimeError:
        assert kernel is None
        with pytest.raises(RuntimeError, match="did not converge"):
            decoder.decode_shot(*_records(graph, flagged.tolist()))
    else:
        assert kernel == expected


# --------------------------------------------------------------------------- #
# Simulator draw sampler: against the laws it samples, and C against NumPy.
# The statistical tests run on whichever path the environment selects
# (``REPRO_SIM_CKERNELS``), so CI covers both.
# --------------------------------------------------------------------------- #
def _row(probability, n, seed):
    """One Bernoulli row of ``n`` sites from a fresh draw source."""
    source = DrawSource(np.random.default_rng(seed))
    row = source.mask(probability, (1, n)).ravel().copy()
    source.close()
    return row


@pytest.mark.parametrize("probability", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9])
def test_sampler_row_frequency_within_binomial_bound(probability):
    """The event count of a 2M-site row lies within 5 sigma of ``n * p``."""
    n = 2_000_000
    events = int(_row(probability, n, seed=17).sum())
    sigma = math.sqrt(n * probability * (1 - probability))
    assert abs(events - n * probability) < 5 * sigma, (events, n * probability)


@pytest.mark.parametrize("probability", [1e-3, 0.05, 0.3, 0.9])
def test_sampler_gaps_follow_the_geometric_law(probability):
    """Gaps between events are Geometric(p): chi-square over ~20
    equiprobable bins (at p = 1e-3 the top bins hold gaps longer than the
    gap table, so the table's skip-ahead is covered too)."""
    n = int(20_000 / probability)
    sites = np.flatnonzero(_row(probability, n, seed=23))
    gaps = np.diff(np.concatenate(([-1], sites))) - 1
    keep = 1.0 - probability
    edges = np.unique(
        [0] + [math.ceil(math.log1p(-i / 20) / math.log(keep)) for i in range(1, 20)]
    )
    tails = keep ** edges.astype(float)  # P(gap >= edge)
    expected = np.append(tails[:-1] - tails[1:], tails[-1]) * gaps.size
    observed = np.bincount(np.searchsorted(edges, gaps, side="right") - 1, minlength=edges.size)
    assert chisquare(observed, expected).pvalue > 1e-4, (observed, expected.round())


def test_sampler_fair_bits_are_unbiased():
    """Packed fair bits: balanced overall, at every bit position of the
    64-bit output, and between neighbours."""
    words = 20_000
    bits = _row(0.5, 64 * words, seed=29).astype(float)
    sigma = 0.5 / math.sqrt(bits.size)
    assert abs(bits.mean() - 0.5) < 5 * sigma
    positions = bits.reshape(words, 64).mean(axis=0)
    assert np.all(np.abs(positions - 0.5) < 5 * 0.5 / math.sqrt(words)), positions
    assert abs((bits[1:] == bits[:-1]).mean() - 0.5) < 5 * sigma


@pytest.mark.parametrize("low,high", [(0, 3), (0, 4), (1, 16), (0, 15)])
def test_sampler_bounded_integers_are_uniform(low, high):
    """Conditional integers are drawn only at the selected sites and are
    uniform on ``[low, high)`` there (chi-square)."""
    where = (np.random.default_rng(31).random((400, 150)) < 0.5).astype(np.uint8)
    source = DrawSource(np.random.default_rng(37))
    values = source.choices(where, low, high).copy()
    source.close()
    selected = where.astype(bool)
    assert not values[~selected].any()
    picked = values[selected].astype(np.int64)
    assert picked.min() >= low and picked.max() < high
    counts = np.bincount(picked - low, minlength=high - low)
    assert chisquare(counts).pvalue > 1e-4, counts


_PROBABILITIES = st.sampled_from(
    [0.0, 5e-324, 1e-4, 1e-3, 0.5, 0.75, 1.0 - 2**-53, 1.0, 1.5]
) | st.floats(min_value=0.0, max_value=1.0)


@pytest.mark.skipif(not simkernels.available(), reason="no C toolchain available")
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    shape=st.tuples(st.integers(1, 40), st.integers(1, 30)),
    ops=st.lists(
        _PROBABILITIES | st.sampled_from([(0, 3), (0, 4), (1, 16)]), min_size=1, max_size=9
    ),
)
@settings(max_examples=60, deadline=None)
# A fair row of one site (its scratch is one u64 word), the edge
# probabilities, and complement rows (p > 1/2) at a few shapes.
@example(seed=1, shape=(1, 1), ops=[0.5, (0, 3), 0.5])
@example(seed=2, shape=(40, 30), ops=[5e-324, 1.0 - 2**-53, (0, 4), 0.75, (1, 16), 0.999])
@example(seed=3, shape=(1, 3), ops=[1.0 - 2**-53, 0.75, (0, 3), 5e-324, 0.5])
def test_sampler_paths_match_on_random_plans(seed, shape, ops):
    """A random sequence of Bernoulli rows and conditional integers (each
    conditioned on the latest row) gives the same values and leaves the
    Generator in the same state on the compiled path (the round's own
    ``draw()`` sampler) and the NumPy path."""

    def execute(flag):
        with _kernels(flag, "REPRO_SIM_CKERNELS"):
            rng = np.random.default_rng(seed)
            source = DrawSource(rng)
            drawn, latest = [], np.ones(shape, dtype=np.uint8)
            for op in ops:
                if isinstance(op, tuple):
                    drawn.append(source.choices(latest, *op).copy())
                else:
                    latest = source.mask(op, shape)
                    drawn.append(latest.copy())
            source.close()
        return drawn, rng.bit_generator.state

    (compiled, compiled_state), (interpreted, interpreted_state) = execute("1"), execute("0")
    for op, left, right in zip(ops, compiled, interpreted):
        assert np.array_equal(left, right), op
    assert compiled_state == interpreted_state
