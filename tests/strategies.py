"""Shared hypothesis strategies and profiles for the whole test suite.

Importing this module registers the two suite-wide hypothesis profiles:

``ci``
    Derandomized (a pinned example sequence — the same inputs on every
    machine, so CI can never flake on an unlucky draw), moderate example
    counts, no deadline.  ``tests/conftest.py`` loads it by default.
``nightly``
    Randomized with large example counts for the unbounded soak job.
    Select it with ``HYPOTHESIS_PROFILE=nightly``.

The strategies below are the vocabulary both ``tests/test_properties.py``
and the scenario-fuzz tier (``tests/test_fuzz.py``) draw from.  The
scenario strategies read the component registries at draw time, so a code
family registered inside a test is immediately reachable from a property
test as well as from the fuzz matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from repro.fabric.jobstore import FAILED, STATES, TASK_SCHEMA
from repro.fuzz import EXECUTION_MODES, ScenarioCell, SmallInstance, cell_config
from repro.serve.protocol import FrameType

__all__ = [
    "bit_widths",
    "bit_patterns",
    "gf2_matrices",
    "matching_instances",
    "detector_blocks",
    "detector_chunk_pairs",
    "stabilizer_supports",
    "group_bases_lists",
    "scenario_cells",
    "small_instances",
    "fuzz_configs",
    "wire_frames",
    "chunk_payloads",
    "final_payloads",
    "result_payloads",
    "json_summaries",
    "shard_payloads",
    "task_records",
    "torn_journal_bytes",
]

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None, print_blob=True
)
settings.register_profile("nightly", max_examples=400, deadline=None, print_blob=True)


# --------------------------------------------------------------------------- #
# Bit-pattern vocabulary (repro.core.patterns)
# --------------------------------------------------------------------------- #
def bit_widths(max_width: int = 10) -> st.SearchStrategy[int]:
    """A syndrome-pattern width, as used by the pattern utilities."""
    return st.integers(min_value=1, max_value=max_width)


@st.composite
def bit_patterns(draw, max_width: int = 10) -> tuple[int, int]:
    """``(value, width)`` with ``value`` representable in ``width`` bits."""
    width = draw(bit_widths(max_width))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return value, width


# --------------------------------------------------------------------------- #
# Detector chunks (repro.pipeline packing round trips)
# --------------------------------------------------------------------------- #
@st.composite
def detector_blocks(
    draw, max_shots: int = 5, max_rounds: int = 4, max_detectors: int = 20
) -> np.ndarray:
    """A ``(shots, rounds, num_detectors)`` boolean detector record.

    Deliberately includes the packing edge cases: zero shots, a single
    round, and detector counts that are not multiples of 8 (the last packed
    byte carries padding bits).
    """
    shots = draw(st.integers(min_value=0, max_value=max_shots))
    rounds = draw(st.integers(min_value=1, max_value=max_rounds))
    detectors = draw(st.integers(min_value=1, max_value=max_detectors))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).random((shots, rounds, detectors)) < 0.5


@st.composite
def detector_chunk_pairs(
    draw, max_shots: int = 6, max_detectors: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Two same-shape ``(shots, num_detectors)`` chunks (for XOR linearity)."""
    shots = draw(st.integers(min_value=0, max_value=max_shots))
    detectors = draw(st.integers(min_value=1, max_value=max_detectors))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return (
        rng.random((shots, detectors)) < 0.5,
        rng.random((shots, detectors)) < 0.5,
    )


# --------------------------------------------------------------------------- #
# GF(2) linear algebra
# --------------------------------------------------------------------------- #
@st.composite
def gf2_matrices(draw, max_rows: int = 6, max_cols: int = 8) -> np.ndarray:
    """A dense 0/1 matrix, seeded so shrinking stays deterministic."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).integers(0, 2, size=(rows, cols))


# --------------------------------------------------------------------------- #
# Matching instances (repro.decoders.matching backends)
# --------------------------------------------------------------------------- #
@st.composite
def matching_instances(
    draw,
    min_count: int = 1,
    max_count: int = 10,
    kinds: tuple[str, ...] = ("integer", "dyadic", "lattice"),
    infinite: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """A complete ``(boundary_cost, pair_cost)`` matching instance.

    ``pair_cost`` is symmetric with a zero diagonal.  Kinds: ``integer``
    (0..4, so equal-weight ties abound), ``dyadic`` (multiples of 1/16, so
    every sum the backends form is exact in doubles), ``lattice``
    (Manhattan distances between points of a small 3-D grid with a
    boundary on one axis: metric costs with the dense ties of a real
    detector graph) and ``euclidean`` (planar point distances: generic
    floats).  With ``infinite`` a few
    costs may be ``inf`` (unreachable boundary or partner).  Seeded so
    shrinking stays deterministic.
    """
    count = draw(st.integers(min_value=min_count, max_value=max_count))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "integer":
        pair = rng.integers(0, 5, size=(count, count)).astype(np.float64)
        boundary = rng.integers(0, 5, size=count).astype(np.float64)
    elif kind == "lattice":
        side = int(rng.integers(3, 9))
        points = rng.integers(0, side, size=(count, 3))
        pair = np.abs(points[:, None] - points[None]).sum(axis=-1).astype(np.float64)
        boundary = np.minimum(points[:, 0] + 1, side - points[:, 0]).astype(np.float64)
    elif kind == "dyadic":
        pair = rng.integers(1, 321, size=(count, count)) / 16.0
        boundary = rng.integers(1, 321, size=count) / 16.0
    else:
        points = rng.random((count, 2)) * 10.0
        pair = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
        boundary = rng.random(count) * 6.0
    pair = np.triu(pair, 1)
    pair = pair + pair.T
    if infinite:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            i, j = rng.integers(0, count, size=2)
            if i == j:
                boundary[i] = np.inf
            else:
                pair[i, j] = pair[j, i] = np.inf
    return boundary, pair


# --------------------------------------------------------------------------- #
# Scheduling and graph-model inputs
# --------------------------------------------------------------------------- #
def stabilizer_supports(
    max_qubit: int = 15, max_weight: int = 6, max_stabilizers: int = 12
) -> st.SearchStrategy[list[tuple[int, ...]]]:
    """Stabilizer support lists as fed to ``assign_conflict_free_slots``."""
    support = st.lists(
        st.integers(min_value=0, max_value=max_qubit),
        min_size=1,
        max_size=max_weight,
        unique=True,
    ).map(tuple)
    return st.lists(support, min_size=1, max_size=max_stabilizers)


def group_bases_lists(max_groups: int = 4) -> st.SearchStrategy[list[tuple[str, ...]]]:
    """Per-group measurement bases, as consumed by ``QubitContext`` groups."""
    bases = st.sampled_from([("Z",), ("X",), ("Z", "X")])
    return st.lists(bases, min_size=1, max_size=max_groups)


# --------------------------------------------------------------------------- #
# Decode-service wire protocol (repro.serve.protocol)
# --------------------------------------------------------------------------- #
def wire_frames(max_payload: int = 256) -> st.SearchStrategy[tuple[FrameType, bytes]]:
    """An arbitrary ``(frame_type, payload)`` pair for framing round trips.

    Payload *content* is opaque at the framing layer, so any byte string is
    valid here — the typed codecs below cover structured payloads.
    """
    return st.tuples(
        st.sampled_from(list(FrameType)),
        st.binary(min_size=0, max_size=max_payload),
    )


def _bool_block(draw, shape: tuple[int, ...]) -> np.ndarray:
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).random(shape) < 0.5


@st.composite
def chunk_payloads(
    draw, max_shots: int = 6, max_detectors: int = 40
) -> tuple[int, int, np.ndarray]:
    """``(stream, round_index, detectors)`` for the CHUNK codec.

    Zero shots and detector widths that are not byte multiples are the
    packing edge cases; both are drawn deliberately.
    """
    stream = draw(st.integers(min_value=0, max_value=2**32 - 1))
    round_index = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shots = draw(st.integers(min_value=0, max_value=max_shots))
    detectors = draw(st.integers(min_value=1, max_value=max_detectors))
    return stream, round_index, _bool_block(draw, (shots, detectors))


@st.composite
def final_payloads(
    draw, max_shots: int = 6, max_detectors: int = 40
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """``(stream, final_detectors, observable_flips_or_None)`` for FINAL."""
    stream = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shots = draw(st.integers(min_value=0, max_value=max_shots))
    detectors = draw(st.integers(min_value=1, max_value=max_detectors))
    final = _bool_block(draw, (shots, detectors))
    flips = _bool_block(draw, (shots,)) if draw(st.booleans()) else None
    return stream, final, flips


def json_summaries() -> st.SearchStrategy[dict]:
    """Flat JSON-safe summary dicts as RESULT frames carry them."""
    scalars = st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
        st.text(max_size=12),
    )
    return st.dictionaries(st.text(min_size=1, max_size=16), scalars, max_size=6)


@st.composite
def result_payloads(
    draw, max_shots: int = 12
) -> tuple[int, np.ndarray, int | None, dict]:
    """``(stream, predictions, failures_or_None, summary)`` for RESULT."""
    stream = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shots = draw(st.integers(min_value=0, max_value=max_shots))
    predictions = _bool_block(draw, (shots,))
    failures = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=shots)))
    return stream, predictions, failures, draw(json_summaries())


# --------------------------------------------------------------------------- #
# Durable fabric journal (repro.fabric.jobstore)
# --------------------------------------------------------------------------- #
@st.composite
def shard_payloads(draw, max_dim: int = 4) -> dict:
    """A shard-result-shaped payload: scalars plus bit-exact ndarrays.

    Mimics what ``run_shard`` returns — nested dicts whose leaves are
    Python scalars or NumPy arrays of the dtypes the merge path carries
    (bool masks, int counters, float accumulators) — so the codec round
    trip is exercised over exactly the value shapes the checkpoint files
    must preserve bit-for-bit.
    """
    dtype = draw(st.sampled_from(["bool", "int64", "float64", "uint8"]))
    shape = tuple(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max_dim), min_size=1, max_size=3
            )
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if dtype == "bool":
        array = rng.random(shape) < 0.5
    elif dtype == "float64":
        array = rng.standard_normal(shape)
    else:
        array = rng.integers(0, 200, size=shape).astype(dtype)
    scalars = st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
    )
    payload = draw(
        st.dictionaries(st.text(min_size=1, max_size=10), scalars, max_size=4)
    )
    payload["array"] = array
    payload["nested"] = {"values": [array[..., : max(array.shape[-1] // 2, 0)], 7]}
    return payload


@st.composite
def task_records(draw) -> dict:
    """A well-formed journal record, as ``JobStore.write_task`` persists it."""
    state = draw(st.sampled_from(STATES))
    return {
        "schema": TASK_SCHEMA,
        "task": draw(
            st.text(
                alphabet="abcdef0123456789-", min_size=1, max_size=24
            ).filter(lambda s: not s.startswith("."))
        ),
        "state": state,
        "attempts": draw(st.integers(min_value=0, max_value=9)),
        "owner": draw(st.one_of(st.none(), st.text(min_size=1, max_size=12))),
        "error": "boom" if state == FAILED else None,
        "shots": draw(st.integers(min_value=1, max_value=5000)),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "updated": draw(
            st.floats(min_value=0, max_value=2e9, allow_nan=False)
        ),
    }


@st.composite
def torn_journal_bytes(draw) -> tuple[dict, bytes]:
    """``(record, damaged_bytes)`` — a journal write torn at any offset.

    The damage model matches the chaos harness: the serialized record is
    truncated at an arbitrary point (possibly zero bytes, never the full
    clean payload), exactly what a power cut leaves on a non-atomic
    filesystem.
    """
    import json

    record = draw(task_records())
    data = json.dumps(record, sort_keys=True).encode()
    cut = draw(st.integers(min_value=0, max_value=max(len(data) - 1, 0)))
    return record, data[:cut]


# --------------------------------------------------------------------------- #
# Scenario matrix (repro.fuzz)
# --------------------------------------------------------------------------- #
@st.composite
def scenario_cells(draw, modes=EXECUTION_MODES) -> ScenarioCell:
    """One cell of the live scenario matrix.

    Reads the registries at draw time (not at import), so components
    registered mid-test are drawable without reloading anything.
    """
    from repro.api.registry import all_registries

    registries = all_registries()
    return ScenarioCell(
        code=draw(st.sampled_from(registries["codes"].names())),
        decoder=draw(st.sampled_from(registries["decoders"].names())),
        policy=draw(st.sampled_from(registries["policies"].names())),
        noise=draw(st.sampled_from(registries["noise"].names())),
        mode=draw(st.sampled_from(list(modes))),
    )


def small_instances() -> st.SearchStrategy[SmallInstance]:
    """Experiment knobs in the same small ranges the CLI fuzzer samples."""
    return st.builds(
        SmallInstance,
        shots=st.integers(min_value=3, max_value=6),
        rounds=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.sampled_from([2e-3, 4e-3, 8e-3]),
        leakage_ratio=st.sampled_from([0.5, 1.0]),
    )


@st.composite
def fuzz_configs(draw, modes=EXECUTION_MODES):
    """``(cell, config)`` — a scenario cell with a concrete small config."""
    cell = draw(scenario_cells(modes=modes))
    config = cell_config(cell, draw(small_instances()))
    return cell, config
