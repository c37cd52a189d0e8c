"""The simulator's ordered draw schedule and the source that executes it.

The simulator's RNG contract is *sequential*: every round consumes a fixed
schedule of ``Generator.random`` and ``Generator.integers`` calls whose
order, shapes and dtypes must match the historical implementation draw for
draw (that is what keeps runs bit-for-bit reproducible).  This module turns
that schedule into an explicit object and executes it:

* The schedule is declared once per run as a :class:`DrawPlan` — a fixed
  body per round plus two conditional LRC segments whose activation is only
  known at round start (``mask.any()`` on the pending LRC decisions).  The
  consumer posts those two flags per round; everything else is
  run-constant.
* :class:`DrawSource` compiles each round's op list once into a *program*:
  every op is bound to its output buffer (per-shape slots, reassigned from
  the first slot at each segment start; no mask outlives its segment) and,
  when the compiled kernels are loaded, to one row of a
  ``repro.sim._ckernels.draw_ops`` table.  The consumer then pulls ops in
  stream order, one (:meth:`DrawSource.next`) or a contiguous block
  (:meth:`DrawSource.next_block`, e.g. an entangling layer's nine masks)
  per compiled call.

With the kernels, the whole run executes in C against a shadow copy of the
PCG64 state, including NumPy's buffered half-word (``has_uint32`` /
``uinteger``) that bounded ``integers`` calls consume; :meth:`DrawSource.close`
writes it back, so the ``Generator`` is exactly where the NumPy path leaves
it.  The NumPy path (``REPRO_SIM_CKERNELS=0``, no compiler, or another bit
generator) runs the identical calls through the ``Generator`` and is the
kernels' oracle.  Two further contract-preserving tricks hold in both:

* Bernoulli draws with ``p <= 0`` or ``p >= 1`` have constant results, so
  the source skips generation and advances the bit generator by the exact
  number of skipped variates, returning a shared read-only constant mask.
  This turns e.g. the default ``removal_prob = 1.0`` LRC draw and every
  ideal-noise draw into (amortised) no-ops.
* Masks are uint8 0/1 rather than bool so the packed-plane kernels can use
  them in bitwise arithmetic directly; bool views are free either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _ckernels

__all__ = ["DrawOp", "DrawPlan", "DrawSource"]

#: Buffer slots per shape within one segment: an entangling layer holds its
#: nine masks at once, so the slots cycle only well past a layer's block.
RING_SLOTS = 12

#: Target float64 bytes per generation chunk on the NumPy path: draws are
#: produced and thresholded in row blocks that fit L2, so the comparison
#: reads the fresh draws from cache instead of streaming the whole buffer
#: back from memory.  Row-blocking a C-contiguous fill preserves the exact
#: value sequence.
CHUNK_BYTES = 256 * 1024

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DrawOp:
    """One RNG call of the per-round schedule.

    ``kind`` is ``"bern"`` (``random(shape) < threshold`` -> uint8 mask) or
    ``"randint"`` (``integers(low, high, shape)`` narrowed to uint8; the
    draw itself stays int64 exactly like the baseline).  ``shape_id``
    indexes :attr:`DrawPlan.shapes`.
    """

    kind: str
    shape_id: int
    threshold: float = 0.0
    low: int = 0
    high: int = 0


@dataclass
class DrawPlan:
    """The complete, ordered draw schedule of one simulator run.

    ``body`` runs every round; ``lrc_data`` / ``lrc_anc`` are prepended when
    the round's pending-LRC flags say so; ``final`` runs once after the last
    round.  ``shapes`` maps shape ids to ``(shots, n)`` tuples.

    Time-structured noise (``NoiseParams.is_time_structured``) sets
    ``bodies`` — one pre-compiled body per round, indexed by round number —
    in which case ``body`` is ignored.  Stationary runs leave ``bodies`` as
    ``None`` and execute the identical schedule they always have.
    """

    shapes: list[tuple[int, int]] = field(default_factory=list)
    lrc_data: list[DrawOp] = field(default_factory=list)
    lrc_anc: list[DrawOp] = field(default_factory=list)
    body: list[DrawOp] = field(default_factory=list)
    final: list[DrawOp] = field(default_factory=list)
    bodies: list[list[DrawOp]] | None = None

    def shape_id(self, shape: tuple[int, int]) -> int:
        """Intern ``shape`` and return its id."""
        try:
            return self.shapes.index(shape)
        except ValueError:
            self.shapes.append(shape)
            return len(self.shapes) - 1

    def round_segments(
        self, lrc_data_any: bool, lrc_anc_any: bool, round_index: int = 0
    ) -> list[list[DrawOp]]:
        """The op segments of one round given the two per-round LRC flags."""
        segments: list[list[DrawOp]] = []
        if lrc_data_any:
            segments.append(self.lrc_data)
        if lrc_anc_any:
            segments.append(self.lrc_anc)
        segments.append(self.body if self.bodies is None else self.bodies[round_index])
        return segments


def _constant(threshold: float) -> int | None:
    """0 / 1 when a Bernoulli draw has a constant result, else ``None``."""
    if threshold <= 0.0:
        return 0
    if threshold >= 1.0:
        return 1
    return None


@dataclass
class _Program:
    """One op list bound to its outputs (and, with the kernels, its table)."""

    ops: list[DrawOp]
    results: list[np.ndarray]
    table: np.ndarray | None
    table_address: int = 0


class DrawSource:
    """Executes a :class:`DrawPlan` in stream order against one Generator.

    The source owns the Generator from construction to :meth:`close`: with
    the compiled kernels its state lives in a shadow copy in between.
    Returned masks are valid until the consumer moves past the current
    segment (LRC, body or final) or draws ``RING_SLOTS`` more of the same
    shape, whichever comes first.
    """

    def __init__(self, rng: np.random.Generator, plan: DrawPlan) -> None:
        self.rng = rng
        self._plan = plan
        use_c = _ckernels.available()
        use_c = use_c and rng.bit_generator.state["bit_generator"] == "PCG64"
        self._gen = _ckernels.load_pcg64(rng.bit_generator) if use_c else None
        self._gen_address = self._gen.ctypes.data if use_c else 0
        self._slots: list[list[np.ndarray]] = [[] for _ in plan.shapes]
        self._constants = [
            [_frozen(np.full(shape, value, dtype=np.uint8)) for value in (0, 1)]
            for shape in plan.shapes
        ]
        self._draw_bufs: list[np.ndarray] = []
        if not use_c:
            for shots, n in plan.shapes:
                rows = max(64, CHUNK_BYTES // (max(1, n) * 8))
                self._draw_bufs.append(np.empty((min(rows, shots), n)))
        self._programs: dict[tuple, _Program] = {}
        self._program: _Program | None = None
        self._index = 0
        self._round = 0

    # -- schedule driving ------------------------------------------------
    def start_round(self, lrc_data_any: bool, lrc_anc_any: bool) -> None:
        """Declare the next round's conditional segments."""
        segments = self._plan.round_segments(lrc_data_any, lrc_anc_any, self._round)
        self._round += 1
        self._start(segments)

    def start_final(self) -> None:
        """Switch to the end-of-run readout segment."""
        self._start([self._plan.final])

    def _start(self, segments: list[list[DrawOp]]) -> None:
        key = tuple(id(segment) for segment in segments)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._compile(segments)
        self._program = program
        self._index = 0

    def _compile(self, segments: list[list[DrawOp]]) -> _Program:
        ops: list[DrawOp] = []
        results: list[np.ndarray] = []
        rows: list[tuple[int, int, int, int, int]] = []
        for segment in segments:
            cursor = [0] * len(self._plan.shapes)
            for op in segment:
                shots, n = self._plan.shapes[op.shape_id]
                size = shots * n
                ops.append(op)
                constant = _constant(op.threshold) if op.kind == "bern" else None
                if constant is not None:
                    results.append(self._constants[op.shape_id][constant])
                    rows.append((_ckernels.OP_SKIP, 0, 0, size, 0))
                    continue
                slots = self._slots[op.shape_id]
                slot = cursor[op.shape_id] % RING_SLOTS
                cursor[op.shape_id] += 1
                if slot == len(slots):
                    slots.append(np.empty((shots, n), dtype=np.uint8))
                out = slots[slot]
                results.append(out)
                address = out.ctypes.data
                if op.kind == "bern":
                    threshold = _ckernels.bern_threshold(op.threshold)
                    rows.append((_ckernels.OP_BERN, threshold, 0, size, address))
                else:
                    span = op.high - op.low - 1
                    assert 1 <= span <= _ckernels.MAX_INT_RANGE
                    off = op.low & _MASK64
                    rows.append((_ckernels.OP_INT8, span, off, size, address))
        if self._gen is None:
            return _Program(ops, results, None)
        table = np.array(rows, dtype=np.uint64).reshape(len(rows), 5)
        return _Program(ops, results, table, table.ctypes.data)

    # -- consumption -----------------------------------------------------
    def next(self) -> np.ndarray:
        """The next mask/values array of the schedule, in stream order."""
        index = self._index
        self._index = index + 1
        program = self._program
        assert program is not None
        if self._gen is not None:
            _ckernels.draw_ops(
                self._gen_address,
                program.table_address + index * _ckernels.ROW_BYTES,
                1,
            )
        else:
            self._execute(program.ops[index], program.results[index])
        return program.results[index]

    def next_block(self, count: int) -> list[np.ndarray]:
        """The next ``count`` arrays of the schedule, drawn in one call."""
        start = self._index
        stop = self._index = start + count
        program = self._program
        assert program is not None and stop <= len(program.ops)
        if self._gen is not None:
            _ckernels.draw_ops(
                self._gen_address,
                program.table_address + start * _ckernels.ROW_BYTES,
                count,
            )
        else:
            for index in range(start, stop):
                self._execute(program.ops[index], program.results[index])
        return program.results[start:stop]

    def close(self) -> None:
        """Write the shadow state back into the Generator (idempotent)."""
        if self._gen is not None:
            _ckernels.store_pcg64(self._gen, self.rng.bit_generator)

    # -- the NumPy path --------------------------------------------------
    def _execute(self, op: DrawOp, out: np.ndarray) -> None:
        shape = self._plan.shapes[op.shape_id]
        if op.kind == "randint":
            # The generator call matches the baseline exactly (int64,
            # rejection sampling and all); only the stored copy is narrowed.
            values = self.rng.integers(op.low, op.high, size=shape)
            np.copyto(out, values, casting="unsafe")
            return
        if _constant(op.threshold) is not None:
            # The baseline still consumed shots*n variates here; skip the
            # generation but advance the stream by exactly that much.
            # ``advance`` also resets PCG64's buffered half-word
            # (``has_uint32``/``uinteger``), which real double draws leave
            # untouched and a later bounded ``integers`` call would consume —
            # restore it or the integer stream forks.
            generator = self.rng.bit_generator
            before = generator.state
            generator.advance(shape[0] * shape[1])
            after = generator.state
            after["has_uint32"] = before["has_uint32"]
            after["uinteger"] = before["uinteger"]
            generator.state = after
            return
        # Generate + threshold in row blocks: contiguous row slices of a
        # C-order fill consume the identical value sequence, and the
        # comparison then reads L2-resident draws.
        chunk = self._draw_bufs[op.shape_id]
        rows = chunk.shape[0]
        random = self.rng.random
        for start in range(0, shape[0], rows):
            stop = min(start + rows, shape[0])
            draw = chunk[: stop - start]
            random(out=draw)
            np.less(draw, op.threshold, out=out[start:stop])


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False
    return mask
