"""Tests of GLADIATOR's error-propagation graph model."""

import hashlib
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_graph_model import reference_super_edge_weights
from scipy.stats import binom
from strategies import group_bases_lists

from repro.api.registry import CODES
from repro.codes import color_code, surface_code
from repro.core import (
    CalibrationData,
    GraphModelConfig,
    TransitionModel,
    graph_model,
    make_policy,
)
from repro.core.graph_model import (
    GroupInfo,
    QubitContext,
    labels_for_qubit,
    qubit_context,
)
from repro.experiments.runner import make_code
from repro.noise import paper_noise

#: The calibration every pin below was taken at.
PAPER_CALIBRATION = CalibrationData.from_noise(paper_noise(p=1e-3, leakage_ratio=0.1))


def bulk_qubit(code, width=4):
    return next(q for q in range(code.num_data) if code.pattern_width(q) == width)


def test_qubit_context_structure(surface_d5):
    context = qubit_context(surface_d5, bulk_qubit(surface_d5))
    assert context.width == 4
    assert len(context.groups) == 4
    bases = [group.bases for group in context.groups]
    assert bases.count(("X",)) == 2
    assert bases.count(("Z",)) == 2


def test_super_edge_weights_are_probabilities(surface_d5, calibration, graph_config):
    context = qubit_context(surface_d5, bulk_qubit(surface_d5))
    model = TransitionModel(context, calibration, graph_config)
    leakage, nonleakage = model.super_edge_weights()
    assert leakage.shape == (16,)
    assert np.all(leakage >= 0) and np.all(nonleakage >= 0)
    assert leakage.sum() > 0
    assert nonleakage.sum() > 0
    # Non-leakage errors are an order of magnitude more likely overall.
    assert nonleakage.sum() > leakage.sum()


def test_zero_pattern_is_never_flagged(surface_d5, calibration, graph_config):
    labels = labels_for_qubit(surface_d5, bulk_qubit(surface_d5), calibration, graph_config)
    assert not labels[0]


def test_flag_count_between_bounds_and_below_eraser(surface_d5, calibration, graph_config):
    # The paper reports GLADIATOR flagging 7-8 of 16 patterns vs ERASER's 11.
    labels = labels_for_qubit(surface_d5, bulk_qubit(surface_d5), calibration, graph_config)
    assert 4 <= int(labels.sum()) <= 10
    assert int(labels.sum()) < 11


def test_frequent_single_flip_patterns_not_flagged(surface_d5, calibration, graph_config):
    labels = labels_for_qubit(surface_d5, bulk_qubit(surface_d5), calibration, graph_config)
    for bit in range(4):
        assert not labels[1 << bit]


def test_two_round_labels_have_correct_size(surface_d5, calibration, graph_config):
    labels = labels_for_qubit(
        surface_d5, bulk_qubit(surface_d5), calibration, graph_config, two_rounds=True
    )
    assert labels.shape == (256,)
    assert not labels[0]
    assert 0 < int(labels.sum()) < 256


def test_two_round_excludes_first_order_completions(surface_d5, calibration, graph_config):
    # A data error that fires a suffix pattern in one round and its complement
    # in the next is a benign first-order mechanism and must not be flagged.
    context = qubit_context(surface_d5, bulk_qubit(surface_d5))
    model = TransitionModel(context, calibration, graph_config)
    labels = model.label_two_round_patterns()
    width = context.width
    for position in range(width):
        for pauli in ("X", "Y", "Z"):
            suffix = model._pauli_flip_pattern(pauli, position)
            full = model._pauli_flip_pattern(pauli, 0)
            if suffix == 0:
                continue
            key = (full ^ suffix) | (suffix << width)
            assert not labels[key]


def test_threshold_monotonicity(surface_d5, calibration):
    strict = labels_for_qubit(
        surface_d5, bulk_qubit(surface_d5), calibration, GraphModelConfig(threshold=1.0)
    )
    relaxed = labels_for_qubit(
        surface_d5, bulk_qubit(surface_d5), calibration, GraphModelConfig(threshold=0.05)
    )
    assert int(strict.sum()) <= int(relaxed.sum())
    assert np.all(relaxed[strict])  # strict flags are a subset of relaxed flags


def test_higher_leakage_rate_flags_more_patterns(surface_d5, calibration, graph_config):
    lifted = calibration.with_(leakage_rate=calibration.leakage_rate * 10)
    base = labels_for_qubit(surface_d5, bulk_qubit(surface_d5), calibration, graph_config)
    aggressive = labels_for_qubit(surface_d5, bulk_qubit(surface_d5), lifted, graph_config)
    assert int(aggressive.sum()) >= int(base.sum())


def test_color_code_flags_fewer_than_eraser(color_d5, calibration, graph_config):
    qubit = bulk_qubit(color_d5, width=3)
    labels = labels_for_qubit(color_d5, qubit, calibration, graph_config)
    assert int(labels.sum()) < 4  # ERASER flags 4 of 8 three-bit patterns


def build_transition_graph(model, two_rounds=False):
    """The merged transition graph as a ``networkx`` multidigraph.

    Nodes are patterns (integers); edges run from the error-free base pattern
    ``0`` to every pattern a mechanism of that kind reaches, keyed by
    ``"leakage"`` / ``"nonleakage"``, and carry the merged super-edge
    ``weight``.  Node attribute ``label`` records the final classification,
    mirroring Figure 6(b,c) of the paper.
    """
    if two_rounds:
        mechanisms = model.two_round_mechanisms()
        size, threshold = 1 << (2 * model.context.width), model.config.threshold_two_round
    else:
        mechanisms = model.single_round_mechanisms()
        size, threshold = 1 << model.context.width, model.config.threshold
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(range(size))
    weights = model._accumulate(mechanisms, size)
    for is_leakage, weight in zip((True, False), weights):
        kind = "leakage" if is_leakage else "nonleakage"
        patterns, _ = model._outcomes(mechanisms, is_leakage)
        reached = np.flatnonzero(np.bincount(patterns, minlength=size)).tolist()
        graph.add_edges_from(
            (0, pattern, kind, {"weight": float(weight[pattern]), "kind": kind})
            for pattern in reached
        )
    labels = model._flag(weights, threshold)
    for pattern in range(size):
        graph.nodes[pattern]["label"] = "leakage" if labels[pattern] else "nonleakage"
    return graph


def test_transition_graph_structure(surface_d5, calibration, graph_config):
    context = qubit_context(surface_d5, bulk_qubit(surface_d5))
    model = TransitionModel(context, calibration, graph_config)
    graph = build_transition_graph(model)
    assert isinstance(graph, nx.MultiDiGraph)
    assert graph.number_of_nodes() == 16
    kinds = {key for _, _, key in graph.edges(keys=True)}
    assert kinds == {"leakage", "nonleakage"}
    labels = {graph.nodes[n]["label"] for n in graph.nodes}
    assert labels == {"leakage", "nonleakage"}


def test_qubit_context_built_once_per_code_and_qubit(monkeypatch, noise):
    """Preparing several lookup policies on the same codes builds each
    (code, qubit) context once: the signatures are memoised per code."""
    calls = Counter()
    original = graph_model.qubit_context

    def counted(code, qubit):
        calls[id(code), qubit] += 1
        return original(code, qubit)

    monkeypatch.setattr(graph_model, "qubit_context", counted)
    codes = [surface_code(3), color_code(3)]
    for code in codes:
        for name in ("gladiator", "gladiator+m", "gladiator-d", "gladiator-d+m"):
            make_policy(name).prepare(code, noise)
    assert calls == {(id(code), q): 1 for code in codes for q in range(code.num_data)}


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GraphModelConfig(threshold=0.0)
    with pytest.raises(ValueError):
        GraphModelConfig(persistence_rounds=-1.0)


# --------------------------------------------------------------------------- #
# Byte-equality pins: the super-edge weights are part of the results contract
# (they decide every label table), so any change to the summation order or
# the outcome enumeration shows up here before it shows up in a golden.
# --------------------------------------------------------------------------- #
def _distinct_contexts(code):
    """One context per signature, in order of first qubit."""
    contexts = {}
    for qubit in range(code.num_data):
        context = qubit_context(code, qubit)
        contexts.setdefault(context.signature, context)
    return list(contexts.values())


def _weights(model, two_rounds):
    return model.two_round_super_edge_weights() if two_rounds else model.super_edge_weights()


def _weight_digests(two_rounds):
    digests = {}
    for name in CODES.names():
        digest = hashlib.sha256()
        for context in _distinct_contexts(make_code(name, 3)):
            model = TransitionModel(context, PAPER_CALIBRATION, GraphModelConfig())
            for table in _weights(model, two_rounds):
                digest.update(table.tobytes())
        digests[name] = digest.hexdigest()
    return digests


#: SHA-256 over every distinct context's ``W_L`` then ``W_NL`` bytes, in
#: qubit order, at d=3 (hgp/bpc have no distance knob), default config, paper
#: noise p=1e-3 lr=0.1.
SINGLE_ROUND_WEIGHT_DIGESTS = {
    "hgp": "c500cc2106a34ad132568b2c08df45a4b12b8b0ff9e77bafc8a0992da4ce100a",
    "bpc": "ffa10347f67bac9d8cd793832c7a3f01550d613bfe24b517bcba292060d03cde",
    "color": "a83d00b9e0a1b36f20df7b0bbf433d386e70bcbc6ab7917984c8cf218d82c97a",
    "surface": "60373644a62c70cc60441b7246c1ceab11adbff4c49f574ca93ed0f4e163b0fc",
    "toric": "f80d8f3de0df61c8afa54071f190a8fbe51ad96309b433a3dda4e6c95c8bbcc6",
}
TWO_ROUND_WEIGHT_DIGESTS = {
    "hgp": "368703d32c6c037c27aeb9781f0c2e043135d4abfe0abd9f8685413f2897615c",
    "bpc": "466cc5e34a6bfdf1463f174dcc3901102f6539fbb84061e240ee40ea8abfe7c4",
    "color": "0e067013604cae03ea25ed3adcb82b1704e1af96b81ba9fb559c160437600d57",
    "surface": "bcfbb62ca6a2be83b3f6dccedc5ab090e7c252a208d62e3d096fca526b010d2a",
    "toric": "9636a1478617887d93b5582715612ccceca16b6c448dedad59cc51fecaa0441c",
}


@pytest.mark.parametrize(
    "two_rounds, expected",
    [(False, SINGLE_ROUND_WEIGHT_DIGESTS), (True, TWO_ROUND_WEIGHT_DIGESTS)],
    ids=["single_round", "two_round"],
)
def test_super_edge_weights_are_byte_pinned(two_rounds, expected):
    assert _weight_digests(two_rounds) == expected


@pytest.mark.parametrize(
    "two_rounds, count, edges_digest, labels_digest",
    [
        (
            False,
            32,
            "d1f2d3f6ea1d204c9d86c84969f97c24f27ac753edce42c68decd7af7970ff46",
            "ca8e27a8b665ed4ab32dd1be6f4fc5548a2782d88c4c2a74cfbda76886798ece",
        ),
        (
            True,
            435,
            "c0da4d2e9e507fac60c51bf6d20eff18f13d3521723a9e040fcd9f47922f1cfd",
            "a7706ff7eee0484b062d719ddb74b1b6cef351da426f91ea00a9a8af82d5f326",
        ),
    ],
    ids=["single_round", "two_round"],
)
def test_transition_graph_edges_are_pinned(
    surface_d5, two_rounds, count, edges_digest, labels_digest
):
    context = qubit_context(surface_d5, bulk_qubit(surface_d5))
    model = TransitionModel(context, PAPER_CALIBRATION, GraphModelConfig())
    graph = build_transition_graph(model, two_rounds=two_rounds)
    assert all(source == 0 for source, _ in graph.edges())
    edges = sorted(
        (pattern, key, data["weight"])
        for _, pattern, key, data in graph.edges(keys=True, data=True)
    )
    assert len(edges) == count
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == edges_digest
    labels = "".join(
        "L" if graph.nodes[node]["label"] == "leakage" else "." for node in sorted(graph.nodes)
    )
    assert hashlib.sha256(labels.encode()).hexdigest() == labels_digest


def _assert_equals_reference(context, calibration, config, two_rounds):
    weights = _weights(TransitionModel(context, calibration, config), two_rounds)
    expected = reference_super_edge_weights(context, calibration, config, two_rounds)
    for table, reference in zip(weights, expected):
        assert table.dtype == reference.dtype and table.tobytes() == reference.tobytes()


@pytest.mark.parametrize("name", CODES.names())
def test_weights_equal_the_per_outcome_reference_on_registered_codes(name):
    for context in _distinct_contexts(make_code(name, 5)):
        _assert_equals_reference(context, PAPER_CALIBRATION, GraphModelConfig(), False)
        if context.width <= 4:  # the reference's two-round loops are slow past that
            _assert_equals_reference(context, PAPER_CALIBRATION, GraphModelConfig(), True)


@given(
    bases_list=group_bases_lists(max_groups=4),
    overlaps=st.lists(st.integers(min_value=0, max_value=15), max_size=5),
    rates=st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=5, max_size=5),
    factors=st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from([0.0, 0.5, 2.0, 3.7]),
    ),
    switches=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    two_rounds=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_weights_equal_the_per_outcome_reference_on_random_models(
    bases_list, overlaps, rates, factors, switches, two_rounds
):
    width = len(bases_list)
    context = QubitContext(
        width=width,
        groups=tuple(
            GroupInfo(position=position, bases=bases) for position, bases in enumerate(bases_list)
        ),
        neighbor_overlaps=tuple(sorted(overlap & ((1 << width) - 1) for overlap in overlaps)),
    )
    calibration = CalibrationData(
        gate_error=rates[0],
        measurement_error=rates[1],
        reset_error=rates[2],
        data_error=rates[3],
        leakage_rate=rates[4],
    )
    gate_error_factor, isolated_flip_factor, persistence_rounds = factors
    second_order, prior_completion, neighbor_leakage = switches
    config = GraphModelConfig(
        persistence_rounds=persistence_rounds,
        gate_error_factor=gate_error_factor,
        isolated_flip_factor=isolated_flip_factor,
        include_second_order=second_order,
        include_prior_round_completion=prior_completion,
        include_neighbor_leakage=neighbor_leakage,
    )
    _assert_equals_reference(context, calibration, config, two_rounds)


# --------------------------------------------------------------------------- #
# Monte Carlo oracle for the leakage law, sampled directly: a leaked qubit
# flips each later CNOT partner with probability 1/2, and a pattern bit is the
# OR of its group's partners.  Nothing here calls the model to build the
# expected distribution; the model's tables must fall inside the binomial
# interval of the samples.
# --------------------------------------------------------------------------- #
ORACLE_SHOTS = 200_000
ORACLE_CONFIDENCE = 1 - 1e-6

# Position 1 ORs two ancillas (a colour-code plaquette pair), 0 and 2 one.
ORACLE_CONTEXT = QubitContext(
    width=3,
    groups=tuple(
        GroupInfo(position=position, bases=bases)
        for position, bases in enumerate([("Z",), ("X", "Z"), ("X",)])
    ),
    neighbor_overlaps=(0b011,),
)


def _sample_leakage(mask, rng, shots=ORACLE_SHOTS):
    patterns = np.zeros(shots, dtype=np.int64)
    for position, group in enumerate(ORACLE_CONTEXT.groups):
        if mask >> position & 1:
            partners = rng.random((shots, len(group.bases))) < 0.5
            patterns |= partners.any(axis=1).astype(np.int64) << position
    return patterns


def _assert_distribution_matches(patterns, conditionals, samples, size):
    assert len(set(patterns.tolist())) == patterns.size  # one entry per pattern
    assert conditionals.sum() == pytest.approx(1.0, abs=1e-12)
    model = np.zeros(size)
    model[patterns] = conditionals
    counts = np.bincount(samples, minlength=size)
    low, high = binom.interval(ORACLE_CONFIDENCE, samples.size, model)
    outside = np.flatnonzero((counts < low) | (counts > high))
    assert outside.size == 0, [(int(p), int(counts[p]), model[p]) for p in outside]


def _oracle_model():
    return TransitionModel(ORACLE_CONTEXT, PAPER_CALIBRATION, GraphModelConfig())


@pytest.mark.parametrize("mask", [0b111, 0b110, 0b010, 0b101, 0b001])
def test_leakage_outcomes_match_the_sampled_law(mask):
    rng = np.random.default_rng(mask)
    patterns, conditionals = _oracle_model()._leakage_outcomes(mask)
    _assert_distribution_matches(patterns, conditionals, _sample_leakage(mask, rng), 8)


@pytest.mark.parametrize(
    "name, first_mask, second_mask",
    [
        ("leak_r1_t1", 0b110, 0b111),  # leaked before round 1's second CNOT
        ("leak_persistent_window", 0b111, 0b111),
        ("neighbor_leak_window_0", 0b011, 0b011),
    ],
)
def test_two_round_window_matches_two_sampled_rounds(name, first_mask, second_mask):
    rng = np.random.default_rng(len(name))
    (mechanism,) = [m for m in _oracle_model().two_round_mechanisms() if m.name == name]
    previous = _sample_leakage(first_mask, rng)
    current = _sample_leakage(second_mask, rng)
    samples = current | (previous << ORACLE_CONTEXT.width)
    _assert_distribution_matches(mechanism.patterns, mechanism.conditionals, samples, 64)


def test_leakage_weight_matches_sampled_mechanisms():
    """``W_L`` against the stated single-round law: leakage before CNOT ``t``
    (rate ``leakage_rate``) randomises the groups at or after ``t``, and
    persistent leakage (rate ``leakage_rate * (width + 1) * persistence``)
    randomises them all."""
    model = _oracle_model()
    rate, width = model.calibration.leakage_rate, ORACLE_CONTEXT.width
    law = [(rate, (0b111 << t) & 0b111) for t in range(width)]
    law.append((rate * (width + 1) * model.config.persistence_rounds, 0b111))
    rng = np.random.default_rng(5)
    estimate, spread = np.zeros(8), np.zeros(8)
    for mechanism_rate, mask in law:
        frequency = np.bincount(_sample_leakage(mask, rng), minlength=8) / ORACLE_SHOTS
        estimate += mechanism_rate * frequency
        spread += mechanism_rate * (5 * np.sqrt(frequency * (1 - frequency) / ORACLE_SHOTS))
    leakage_weight, _ = model.super_edge_weights()
    assert np.all(np.abs(leakage_weight - estimate) <= spread + 1e-15), (
        leakage_weight,
        estimate,
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("gate_error_factor", -3.0),
        ("isolated_flip_factor", -1.0),
        ("gate_error_factor", float("nan")),
        ("isolated_flip_factor", float("inf")),
        ("threshold", float("inf")),
        ("threshold_two_round", float("nan")),
        ("persistence_rounds", float("nan")),
        ("threshold", True),
    ],
)
def test_invalid_factors_and_thresholds_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        GraphModelConfig(**{field: value})
