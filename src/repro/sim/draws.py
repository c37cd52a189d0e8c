"""The simulator's sparse draw contract and the source that executes it.

Every random variate of a run comes from raw PCG64 ``uint64`` outputs of
the run's Generator, consumed in the order the simulator asks for them
(``ENGINE_VERSION`` 6).  The contract is defined on those outputs alone —
no ``Generator.random`` / ``integers`` call and no half-word buffer — and
draws only what the simulation consumes:

* **Bernoulli rows.**  A ``(shots, n)`` mask of rate ``p`` covers its sites
  in row-major order.  Rows with a constant result (``p <= 0`` or
  ``p >= 1``) consume nothing.  ``p = 1/2`` takes 64 fair bits per output,
  least significant bit first.  Any other ``p < 1/2`` is sampled by
  geometric gaps, one output per event: with ``T = ceil(p * 2**64)`` and
  ``q = 2**64 - T``, the gap table holds ``t_1 = q`` and ``t_{j+1} =
  floor(t_j * q / 2**64)`` (integers only, so every platform and both
  execution paths build the same table) up to ``GAP_TABLE_MAX`` nonzero
  entries; an output ``u`` skips ``j = #{t > u}`` sites and marks the next
  one, or, when ``j`` is the table length, skips that many sites and marks
  nothing (the geometric law is memoryless).  The row ends with the output
  that reaches past its last site.  ``p > 1/2`` samples the complement
  row of rate ``1 - p`` (exact in floating point) and inverts it.
* **Conditional variates** are drawn only at the sites that consume them,
  in row-major site order, after the row that selects them:
  :meth:`DrawSource.choices` draws ``low + u % span`` per site (the
  depolarising Pauli choice where data depolarised, the LRC frame flips
  where leakage was removed, the LRC Pauli choice where its gate hit).
  The entangling layer draws its gate-hit, data-gate-leak and
  ancilla-gate-leak rows, then sweeps its sites: where exactly one operand
  is leaked, the transport decision (``u < T`` of the mobility, unless
  constant) and one output whose low two bits flip the healthy partner's
  X/Z; where the gate hit, the Pauli pair ``1 + u % 15``.

The NumPy path here is the contract's oracle; the compiled kernels
(:mod:`repro.sim._ckernels`) run the same contract against a shadow copy of
the PCG64 state and must match it value for value: the compiled round
draws its rows into event lists and its conditional variates in the same
order, without materialising a mask.  Closing the source leaves the
Generator's state advanced by exactly the outputs consumed, and its
half-word buffer as it was, on both paths.  Masks are uint8 0/1 so the
NumPy path's packed-plane algebra can use them in bitwise arithmetic
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _ckernels

__all__ = ["GAP_TABLE_MAX", "Rate", "rate", "RoundRates", "round_rates", "DrawSource"]

#: Longest gap table: at ``p = 1e-3`` a gap reaches past it 1.7% of the time
#: (one extra output), and the table stays L2-resident.
GAP_TABLE_MAX = 4096

#: Mask buffers per shape: a consumer holds at most two masks of one shape
#: at once, and a buffer is reused ``RING_SLOTS`` draws later.
RING_SLOTS = 4

#: Raw outputs the NumPy path generates per refill.
RAW_BLOCK = 1 << 14

_TWO64 = 1 << 64


@dataclass(frozen=True, eq=False)
class Rate:
    """One probability compiled for the draw contract.

    ``record`` is the uint64 rate record the kernels read (kind, per-site
    threshold, gap-table length, gap-table address); ``table`` the
    decreasing gap thresholds of the sampled (``p`` or ``1 - p``) rate.
    """

    probability: float
    kind: int
    threshold: int
    table: np.ndarray
    record: np.ndarray

    @property
    def constant(self) -> bool:
        return self.kind <= _ckernels.RATE_ONE


@lru_cache(maxsize=512)  # bounded: a gap table holds up to 32 KiB
def rate(probability: float) -> Rate:
    """The compiled :class:`Rate` of ``probability`` (built once per value)."""
    if probability <= 0.0 or probability >= 1.0:
        kind = _ckernels.RATE_ONE if probability >= 1.0 else _ckernels.RATE_ZERO
        return _rate(probability, kind, 0, np.empty(0, dtype=np.uint64))
    threshold = math.ceil(probability * 18446744073709551616.0)
    if probability == 0.5:
        return _rate(probability, _ckernels.RATE_FAIR, threshold, np.empty(0, dtype=np.uint64))
    sampled = probability if probability < 0.5 else 1.0 - probability
    keep = _TWO64 - math.ceil(sampled * 18446744073709551616.0)
    if _ckernels.available():
        table = _ckernels.gap_table(keep, GAP_TABLE_MAX)
    else:
        table = gap_table(keep)
    kind = _ckernels.RATE_GAPS if probability < 0.5 else _ckernels.RATE_GAPS_NOT
    return _rate(probability, kind, threshold, table)


def gap_table(keep: int) -> np.ndarray:
    """The gap table of ``keep`` in Python integers: the kernels-off path
    and the oracle of :func:`repro.sim._ckernels.gap_table`."""
    table = []
    value = keep
    while value and len(table) < GAP_TABLE_MAX:
        table.append(value)
        value = (value * keep) >> 64
    return np.array(table, dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class RoundRates:
    """The rate records of one compiled round, stacked for
    :func:`~repro.sim._ckernels.qec_round` (``address`` points at
    ``records``).  ``rates`` keeps the gap tables the records point at
    alive."""

    records: np.ndarray
    rates: tuple[Rate, ...]
    address: int


@lru_cache(maxsize=64)
def round_rates(*probabilities: float) -> RoundRates:
    """The :class:`RoundRates` of one probability per entry of
    :data:`~repro.sim._ckernels.ROUND_RATES`, in that order (built once
    per combination)."""
    assert len(probabilities) == len(_ckernels.ROUND_RATES)
    rates = tuple(rate(probability) for probability in probabilities)
    records = np.stack([r.record for r in rates])
    return RoundRates(records, rates, records.ctypes.data)


def _rate(probability: float, kind: int, threshold: int, table: np.ndarray) -> Rate:
    record = np.array(
        [kind, threshold, table.size, table.ctypes.data if table.size else 0],
        dtype=np.uint64,
    )
    table.flags.writeable = False
    return Rate(probability, kind, threshold, table, record)


class _RawStream:
    """The NumPy path's supply of raw outputs, read ahead in blocks.

    Reads come from a private copy of the bit generator; :meth:`commit`
    advances the real one by exactly the outputs consumed.
    """

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._start = bit_generator.state
        self._private = np.random.PCG64()
        self._private.state = self._start
        self._buffer = np.empty(0, dtype=np.uint64)
        self._position = 0
        self.consumed = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` outputs, not yet consumed."""
        available = self._buffer.size - self._position
        if available < count:
            fresh = self._private.random_raw(max(count - available, RAW_BLOCK))
            self._buffer = np.concatenate((self._buffer[self._position:], fresh))
            self._position = 0
        return self._buffer[self._position : self._position + count]

    def skip(self, count: int) -> None:
        self._position += count
        self.consumed += count

    def take(self, count: int) -> np.ndarray:
        values = self.peek(count)
        self.skip(count)
        return values

    def commit(self, bit_generator: np.random.BitGenerator) -> None:
        advanced = np.random.PCG64()
        advanced.state = self._start
        advanced.advance(self.consumed)
        state = bit_generator.state
        state["state"]["state"] = advanced.state["state"]["state"]
        bit_generator.state = state


class DrawSource:
    """Executes the draw contract in call order against one Generator.

    The source owns the Generator's stream from construction to
    :meth:`close`.  With the compiled kernels the state lives in a shadow
    copy (``gen_address`` is its address, for kernels that draw inside,
    like :func:`~repro.sim._ckernels.qec_round`); otherwise a
    :class:`_RawStream` supplies the NumPy oracle.  Returned masks are
    valid until ``RING_SLOTS`` more of the same shape are drawn.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("the draw contract is defined on PCG64 outputs")
        self.rng = rng
        use_c = _ckernels.available()
        self._gen = _ckernels.load_pcg64(rng.bit_generator) if use_c else None
        self.gen_address = self._gen.ctypes.data if self._gen is not None else 0
        self._stream = None if use_c else _RawStream(rng.bit_generator)
        self._rings: dict[tuple[int, ...], tuple[list[np.ndarray], list[int]]] = {}
        self._constants: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

    @property
    def compiled(self) -> bool:
        """Whether the compiled kernels execute this source's draws."""
        return self._gen is not None

    def _buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        buffers, cursor = self._rings.setdefault(tuple(shape), ([], [0]))
        slot = cursor[0] % RING_SLOTS
        cursor[0] += 1
        if slot == len(buffers):
            buffers.append(np.empty(shape, dtype=np.uint8))
        return buffers[slot]

    # -- the contract ----------------------------------------------------
    def mask(self, probability: float, shape: tuple[int, ...]) -> np.ndarray:
        """A Bernoulli(``probability``) row of ``shape`` as a uint8 mask."""
        compiled = rate(probability)
        if compiled.constant:
            key = (tuple(shape), compiled.kind)
            constant = self._constants.get(key)
            if constant is None:
                constant = np.full(shape, compiled.kind, dtype=np.uint8)
                constant.flags.writeable = False
                self._constants[key] = constant
            return constant
        out = self._buffer(shape)
        if self._gen is not None:
            _ckernels.draw_row(self.gen_address, compiled.record.ctypes.data, out)
        else:
            self._fill_row(compiled, out.reshape(-1))
        return out

    def choices(self, where: np.ndarray, low: int, high: int) -> np.ndarray:
        """``low + u % (high - low)`` at ``where``'s nonzero sites, else 0."""
        out = self._buffer(where.shape)
        if self._gen is not None:
            _ckernels.draw_choices(self.gen_address, where, out, low, high - low)
        else:
            out.fill(0)
            sites = np.flatnonzero(where)
            raw = self._take(sites.size)
            out.reshape(-1)[sites] = low + raw % np.uint64(high - low)
        return out

    def layer_draws(
        self, one: np.ndarray, hit: np.ndarray, mobility: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The layer's conditional sweep (NumPy path; the round kernel draws inline).

        ``one`` flags the sites with exactly one leaked operand, ``hit`` the
        gate-hit row.  Returns dense uint8 ``(transport, flips, pair)``,
        zero where nothing was drawn.
        """
        moved = rate(mobility)
        per_one = 1 if moved.constant else 2
        counts = one.reshape(-1) * np.int64(per_one) + hit.reshape(-1)
        sites = np.flatnonzero(counts)
        used = counts[sites]
        offsets = np.cumsum(used) - used
        raw = self._take(int(used.sum()))
        transport, flips, pair = (np.zeros(one.shape, dtype=np.uint8) for _ in range(3))
        is_one = one.reshape(-1)[sites].astype(bool)
        leaked_sites, leaked_offsets = sites[is_one], offsets[is_one]
        if moved.constant:
            transport.reshape(-1)[leaked_sites] = moved.kind
        else:
            transport.reshape(-1)[leaked_sites] = raw[leaked_offsets] < np.uint64(
                moved.threshold
            )
        flips.reshape(-1)[leaked_sites] = raw[leaked_offsets + per_one - 1] & np.uint64(3)
        is_hit = hit.reshape(-1)[sites].astype(bool)
        pair_offsets = offsets[is_hit] + per_one * is_one[is_hit]
        pair.reshape(-1)[sites[is_hit]] = 1 + raw[pair_offsets] % np.uint64(15)
        return transport, flips, pair

    def close(self) -> None:
        """Write the advanced state back into the Generator (idempotent)."""
        if self._gen is not None:
            _ckernels.store_pcg64(self._gen, self.rng.bit_generator)
        elif self._stream is not None:
            self._stream.commit(self.rng.bit_generator)

    # -- the NumPy oracle ------------------------------------------------
    def _take(self, count: int) -> np.ndarray:
        assert self._stream is not None
        return self._stream.take(count)

    def _fill_row(self, compiled: Rate, out: np.ndarray) -> None:
        assert self._stream is not None
        n = out.size
        if compiled.kind == _ckernels.RATE_FAIR:
            words = self._stream.take(-(-n // 64)).astype("<u8")
            bits = np.unpackbits(words.view(np.uint8), bitorder="little")
            out[:] = bits[:n]
            return
        base = int(compiled.kind == _ckernels.RATE_GAPS_NOT)
        out.fill(base)
        out[self._gap_sites(compiled, n)] = base ^ 1

    def _gap_sites(self, compiled: Rate, n: int) -> np.ndarray:
        """The event sites of one gap-sampled row of ``n`` sites."""
        assert self._stream is not None
        table = compiled.table
        k = table.size
        ascending = table[::-1]
        sampled = min(compiled.probability, 1.0 - compiled.probability)
        found = []
        cursor = 0
        while cursor < n:
            count = int((n - cursor) * sampled * 1.25) + 64
            raw = self._stream.peek(count)
            gaps = k - np.searchsorted(ascending, raw, side="right")
            ends = cursor + np.cumsum(np.where(gaps == k, k, gaps + 1))
            used = min(int(np.searchsorted(ends, n)) + 1, count)
            events = ends[:used][gaps[:used] < k] - 1
            found.append(events[events < n])
            cursor = int(ends[used - 1])
            self._stream.skip(used)
        return np.concatenate(found) if found else np.empty(0, dtype=np.int64)
