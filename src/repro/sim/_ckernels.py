"""Optional runtime-compiled C kernels for the simulator hot path.

Three jobs dominate the simulator once the NumPy-level waste is gone, and
all are awkward for NumPy itself:

* **The sparse draws.**  The kernels execute the draw contract of
  :mod:`repro.sim.draws` against a shadow copy of the run's PCG64 state
  (``gen``: the 128-bit state and increment as (high, low) u64 pairs).
  Only raw ``uint64`` outputs are consumed; a Bernoulli row is described by
  a *rate record* (``RATE_WORDS`` u64: kind, per-site threshold, gap-table
  length, gap-table address) built once per probability by
  :func:`repro.sim.draws.rate`:

  - ``draw_row`` fills one Bernoulli row: constant rows (``RATE_ZERO`` /
    ``RATE_ONE``) consume nothing, fair rows (``RATE_FAIR``) take 64 bits
    per output, and rare-event rows (``RATE_GAPS``, or ``RATE_GAPS_NOT``
    for ``p > 1/2``, sampled as the complement) take one output per event:
    the gap to the next event is the number of gap-table thresholds above
    the output, and a gap of the full table length means "no event in
    that many sites" (the geometric law is memoryless).
  - ``draw_choices`` draws ``low + raw % span`` at the nonzero sites of a
    mask, in row-major order, and zero elsewhere.

  ``load_pcg64`` / ``store_pcg64`` move the state between the Generator and
  ``gen``; NumPy's buffered half-word is neither read nor written.
  ``tests/test_properties.py`` checks the kernels against the NumPy oracle
  value for value and both against the laws they sample.
* **The entangling layer.**  ``cnot_layer`` draws the layer's gate-hit and
  two gate-leak rows, then gathers one layer's operand pairs straight out
  of the full packed planes, applies the per-element algebra and scatters
  them back, in cache-sized tiles.  The algebra runs in two passes per
  tile: a branch-free pass (vectorised: ideal propagation and gate-induced
  leakage) that flags the rare sites needing conditional draws, then a
  scalar pass over the flagged sites, in row-major order, that draws the
  transport decision and partner flips where exactly one operand is
  leaked and the Pauli pair where the gate hit.  A layer's gates touch
  each qubit at most once (``RoundSchedule.validate``), so updating in
  place equals gather-all/compute/scatter-all.  Every plane and row
  pointer is ``restrict``-qualified; the Python wrapper asserts that no
  row buffer overlaps a plane.
* **The speculation step.**  ``speculate`` runs the draw-free tail of a
  round for a lookup policy in one call, shot row by shot row: the
  detector XOR (with round 0's X-stabilizer mask), the per-qubit pattern
  gather, the flag-table lookup (single- or two-round key) and the
  accuracy counts (false/true positives, false negatives, leaked data
  qubits and ancillas).  The gather reads fixed
  (qubit, position, member) slots padded with an index that never fires,
  and is specialised on the slot shape so the compiler unrolls it; the
  run-constant half (slots, the policy's
  :class:`~repro.core.speculator.TableLayout`) is one
  :class:`SpeculatePlan` record, like the rate records above.
  ``tests/test_sim_equivalence.py`` checks it against the NumPy pattern
  GEMM + ``LookupPolicy.decide_into`` + NumPy counts.

All three are compiled on demand with the system C compiler into a cached
shared library; when no compiler is available everything falls back to the
pure-NumPy implementations (results are identical either way —
``tests/test_sim_equivalence.py`` pins both modes).  Set
``REPRO_SIM_CKERNELS=0`` to force the fallback.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .._cbuild import build

__all__ = [
    "RATE_ZERO",
    "RATE_ONE",
    "RATE_FAIR",
    "RATE_GAPS",
    "RATE_GAPS_NOT",
    "RATE_WORDS",
    "available",
    "draw_row",
    "draw_choices",
    "load_pcg64",
    "store_pcg64",
    "cnot_layer",
    "SpeculatePlan",
    "speculate",
]

#: Rate-record kinds (word 0 of a rate record).
RATE_ZERO, RATE_ONE, RATE_FAIR, RATE_GAPS, RATE_GAPS_NOT = 0, 1, 2, 3, 4

#: u64 words per rate record: kind, threshold, gap-table length, address.
RATE_WORDS = 4

_MASK64 = (1 << 64) - 1

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;
#define MULT ((((u128)0x2360ed051fc65da4ULL) << 64) | (u128)0x4385df649fccf645ULL)

enum { RATE_ZERO = 0, RATE_ONE = 1, RATE_FAIR = 2, RATE_GAPS = 3, RATE_GAPS_NOT = 4 };

typedef struct { u128 state, incr; } pcg_t;

/* kind, per-site threshold (u < threshold), gap-table length and table. */
typedef struct {
    uint64_t kind, threshold;
    int64_t k;
    const uint64_t* table;
} rate_t;

static inline pcg_t load(const uint64_t* gen) {
    pcg_t g = {(((u128)gen[0]) << 64) | gen[1], (((u128)gen[2]) << 64) | gen[3]};
    return g;
}

static inline void store(uint64_t* gen, const pcg_t* g) {
    gen[0] = (uint64_t)(g->state >> 64);
    gen[1] = (uint64_t)g->state;
}

/* numpy's pcg64 next64: step the LCG, then the XSL-RR output. */
static inline uint64_t next64(pcg_t* g) {
    g->state = g->state * MULT + g->incr;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

/* The number of (decreasing) gap thresholds above u. */
static inline int64_t gap(uint64_t u, const uint64_t* t, int64_t k) {
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (t[mid] > u) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static void fill_row(pcg_t* g, const rate_t* r, uint8_t* out, int64_t n) {
    if (r->kind <= RATE_ONE) {
        memset(out, (int)r->kind, (size_t)n);
        return;
    }
    if (r->kind == RATE_FAIR) {
        for (int64_t i = 0; i < n; i += 64) {
            const uint64_t w = next64(g);
            const int64_t m = n - i < 64 ? n - i : 64;
            for (int64_t b = 0; b < m; b++) out[i + b] = (uint8_t)((w >> b) & 1u);
        }
        return;
    }
    const uint8_t base = r->kind == RATE_GAPS_NOT;
    const int64_t k = r->k;
    memset(out, base, (size_t)n);
    for (int64_t c = 0; c < n;) {
        const int64_t j = gap(next64(g), r->table, k);
        if (j == k) {  /* no event within the next k sites */
            c += k;
            continue;
        }
        c += j;
        if (c < n) out[c] = base ^ 1u;
        c++;
    }
}

static inline uint8_t bern1(pcg_t* g, const rate_t* r) {
    return r->kind <= RATE_ONE ? (uint8_t)r->kind : (uint8_t)(next64(g) < r->threshold);
}

void draw_row(uint64_t* gen, const rate_t* rate, uint8_t* out, int64_t n) {
    pcg_t g = load(gen);
    fill_row(&g, rate, out, n);
    store(gen, &g);
}

/* Whether the 8 bytes at p have any of `bits` set (skips empty stretches). */
static inline int any8(const uint8_t* p, uint64_t bits) {
    uint64_t w;
    memcpy(&w, p, 8);
    return (w & bits) != 0;
}

void draw_choices(uint64_t* gen, const uint8_t* where, uint8_t* out, int64_t n,
                  uint64_t low, uint64_t span) {
    pcg_t g = load(gen);
    memset(out, 0, (size_t)n);
    for (int64_t i = 0; i < n; i += 8) {
        const int64_t stop = n - i < 8 ? n : i + 8;
        if (stop == i + 8 && !any8(where + i, ~0ULL)) continue;
        for (int64_t j = i; j < stop; j++)
            if (where[j]) out[j] = (uint8_t)(low + next64(&g) % span);
    }
    store(gen, &g);
}

/* Pass 1 of a tile (packed planes x | z<<1 | leaked<<2): ideal CNOT
 * propagation on healthy pairs and gate-induced leakage, the exact
 * semantics of the NumPy tile loop in sim/simulator.py minus the
 * conditional draws.  flags[i] marks the sites pass 2 visits: bit 0 exactly
 * one operand leaked, bit 1 the gate hit, bit 2 the data operand was the
 * leaked one.  counts[0]/counts[1] accumulate new data/ancilla leaks. */
static void layer_tile(uint8_t* restrict pd, uint8_t* restrict pa,
                       const uint8_t* restrict isz, const uint8_t* restrict gh,
                       const uint8_t* restrict dgl, const uint8_t* restrict agl,
                       uint8_t* restrict flags, int64_t n, int64_t* restrict counts) {
    int64_t new_data = 0, new_anc = 0;
    for (int64_t i = 0; i < n; i++) {
        uint8_t d = pd[i], a = pa[i];
        uint8_t ld = d >> 2, la = a >> 2;
        uint8_t h = (uint8_t)((ld | la) ^ 1u);
        uint8_t hz = h & isz[i], hnz = h ^ hz;
        uint8_t t;
        /* Z-type: data controls ancilla X / ancilla feeds data Z; X-type:
         * the mirror; healthy columns only */
        t = d & hz;               a ^= t;
        t = (a >> 1) & hz;        d ^= (uint8_t)(t << 1);
        t = a & hnz;              d ^= t;
        t = (d >> 1) & hnz;       a ^= (uint8_t)(t << 1);
        uint8_t m5 = dgl[i] & (uint8_t)(ld ^ 1u);
        uint8_t m4 = agl[i] & (uint8_t)(la ^ 1u);
        new_data += m5;
        new_anc += m4;
        pd[i] = d | (uint8_t)(m5 << 2);
        pa[i] = a | (uint8_t)(m4 << 2);
        flags[i] = (uint8_t)((ld ^ la) | (gh[i] << 1) | (ld << 2));
    }
    counts[0] += new_data;
    counts[1] += new_anc;
}

/* Pass 2: the conditional draws at flagged sites, in row-major order.  A
 * one-leaked site draws the transport decision, then one output whose low
 * two bits are the healthy partner's X/Z flips (applied unless the leak is
 * transported to it); a hit site then draws its Pauli pair in 1..15 (low
 * two bits on the data, high two on the ancilla). */
static void layer_fixups(pcg_t* g, const rate_t* transport, uint8_t* restrict pd,
                         uint8_t* restrict pa, const uint8_t* restrict flags,
                         int64_t n, int64_t* restrict counts) {
    for (int64_t i = 0; i < n; i++) {
        if (!(i & 7) && n - i >= 8 && !any8(flags + i, 0x0303030303030303ULL)) {
            i += 7;
            continue;
        }
        const uint8_t f = flags[i];
        if (!(f & 3u)) continue;
        uint8_t d = pd[i], a = pa[i];
        if (f & 1u) {
            const uint8_t moved = bern1(g, transport);
            const uint8_t flips = (uint8_t)(next64(g) & 3u);
            uint8_t* partner = (f & 4u) ? &a : &d;
            if (!moved) {
                *partner ^= flips;
            } else if (!(*partner & 4u)) {
                *partner |= 4u;
                counts[(f & 4u) ? 1 : 0]++;
            }
        }
        if (f & 2u) {
            const uint8_t pair = (uint8_t)(1u + next64(g) % 15u);
            d ^= pair & 3u;
            a ^= pair >> 2;
        }
        pd[i] = d;
        pa[i] = a;
    }
}

/* Elements per tile (whole shot rows, at least one). */
#define TILE 2048

/* One entangling layer on the full packed planes: data_pack (shots x nd)
 * and anc_pack (shots x na) are updated in place at columns didx[g] /
 * aidx[g] of every shot row.  rates[0..2] are the gate-hit, gate-leak and
 * transport rates; the gate-hit and the two gate-leak rows (shots x gates,
 * row-major, like isz) are drawn into gh / dgl / agl first, then the tiles
 * run both passes in order. */
void cnot_layer(uint8_t* restrict data_pack, uint8_t* restrict anc_pack,
                int64_t shots, int64_t nd, int64_t na,
                const int64_t* restrict didx, const int64_t* restrict aidx,
                int64_t gates, const uint8_t* restrict isz, uint64_t* gen,
                const rate_t* rates, uint8_t* restrict gh, uint8_t* restrict dgl,
                uint8_t* restrict agl, int64_t* restrict counts) {
    const int64_t rows = gates < TILE ? TILE / gates : 1;
    const int64_t width = rows * gates;
    int32_t doff[width], aoff[width];
    uint8_t dt[width], at[width], flags[width];
    pcg_t g = load(gen);
    fill_row(&g, &rates[0], gh, shots * gates);
    fill_row(&g, &rates[1], dgl, shots * gates);
    fill_row(&g, &rates[1], agl, shots * gates);
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < gates; c++) {
            doff[r * gates + c] = (int32_t)(r * nd + didx[c]);
            aoff[r * gates + c] = (int32_t)(r * na + aidx[c]);
        }
    }
    counts[0] = 0;
    counts[1] = 0;
    for (int64_t r0 = 0; r0 < shots; r0 += rows) {
        const int64_t e0 = r0 * gates;
        const int64_t m = (shots - r0 < rows ? shots - r0 : rows) * gates;
        uint8_t* restrict dbase = data_pack + r0 * nd;
        uint8_t* restrict abase = anc_pack + r0 * na;
        for (int64_t i = 0; i < m; i++) {
            dt[i] = dbase[doff[i]];
            at[i] = abase[aoff[i]];
        }
        layer_tile(dt, at, isz + e0, gh + e0, dgl + e0, agl + e0, flags, m, counts);
        layer_fixups(&g, &rates[2], dt, at, flags, m, counts);
        for (int64_t i = 0; i < m; i++) {
            dbase[doff[i]] = dt[i];
            abase[aoff[i]] = at[i];
        }
    }
    store(gen, &g);
}

/* The run-constant half of a speculation step (SpeculatePlan.record). */
typedef struct {
    int64_t nd, na, width, members, silent;
    const int32_t* slots;      /* nd x width x members, padded with na */
    const uint8_t* table;      /* every qubit's flag table, back to back */
    const int64_t* offsets;    /* nd: start of each qubit's table */
    const int64_t* shifts;     /* nd: previous-pattern key shift; NULL: one round */
    const uint8_t* keep0;      /* na: 0 where round 0 defines no detector */
} spec_plan_t;

/* One round's speculation, row by row: detectors, patterns, the table
 * lookup and the accuracy counts.  W x M is the pattern gather's shape
 * (positions x members per group); constant arguments let the compiler
 * unroll it. */
static inline __attribute__((always_inline)) void spec_rows(
        const spec_plan_t* p, int64_t first, int64_t shots,
        const uint8_t* restrict meas, const uint8_t* restrict prev,
        uint8_t* restrict det, int32_t* restrict pat,
        const int32_t* restrict prev_pat, const uint8_t* restrict leaked, const uint8_t* restrict anc_leaked,
        uint8_t* restrict lrc, int64_t* restrict counts,
        const int64_t W, const int64_t M) {
    const int64_t nd = p->nd, na = p->na;
    const int32_t* restrict slots = p->slots;
    const uint8_t* restrict table = p->table;
    const int64_t* restrict offsets = p->offsets;
    const int64_t* restrict shifts = p->shifts;
    const uint8_t* restrict keep = first ? p->keep0 : NULL;
    const int lookup = !(first && p->silent);
    /* This row's detectors, plus the never-firing pad. */
    uint8_t d[na + 1];
    int64_t lrcs = 0, tp = 0, leaks = 0, anc_leaks = 0;
    d[na] = 0;
    for (int64_t r = 0; r < shots; r++) {
        const uint8_t* restrict mr = meas + r * na;
        const uint8_t* restrict pr = prev + r * na;
        const uint8_t* restrict al = anc_leaked + r * na;
        if (keep) {
            for (int64_t a = 0; a < na; a++) d[a] = (mr[a] ^ pr[a]) & keep[a];
        } else {
            for (int64_t a = 0; a < na; a++) d[a] = mr[a] ^ pr[a];
        }
        memcpy(det + r * na, d, (size_t)na);
        for (int64_t a = 0; a < na; a++) anc_leaks += al[a];
        int32_t* restrict pq = pat + r * nd;
        const int32_t* restrict ppq = prev_pat + r * nd;
        const uint8_t* restrict lq = leaked + r * nd;
        uint8_t* restrict fq = lrc + r * nd;
        for (int64_t q = 0; q < nd; q++) {
            const int32_t* restrict s = slots + q * W * M;
            int32_t v = 0;
            for (int64_t b = 0; b < W; b++) {
                uint8_t bit = 0;
                for (int64_t j = 0; j < M; j++) bit |= d[s[b * M + j]];
                v |= (int32_t)bit << b;
            }
            pq[q] = v;
            uint8_t f = 0;
            if (lookup) {
                int64_t key = v;
                if (shifts) key += (int64_t)ppq[q] << shifts[q];
                f = table[offsets[q] + key];
            }
            fq[q] = f;
        }
        /* A separate pass vectorises (byte sums); fp and fn follow below. */
        for (int64_t q = 0; q < nd; q++) {
            lrcs += fq[q];
            leaks += lq[q];
            tp += fq[q] & lq[q];
        }
    }
    counts[0] = lrcs - tp;
    counts[1] = leaks - tp;
    counts[2] = tp;
    counts[3] = leaks;
    counts[4] = anc_leaks;
}

/* counts receives false positives, false negatives, true positives, leaked
 * data qubits and leaked ancillas.  Gathers of up to 10 positions with one-
 * or two-member groups (every registered code) run specialised; any other
 * shape runs the same body with runtime bounds. */
void speculate(const spec_plan_t* p, int64_t first, int64_t shots,
               const uint8_t* meas, const uint8_t* prev, uint8_t* det,
               int32_t* pat, const int32_t* prev_pat, const uint8_t* leaked,
               const uint8_t* anc_leaked, uint8_t* lrc, int64_t* counts) {
#define SPEC(W, M) do { spec_rows(p, first, shots, meas, prev, det, pat, prev_pat, \
        leaked, anc_leaked, lrc, counts, W, M); return; } while (0)
#define SPEC_WIDTHS(M) switch (p->width) { \
        case 1: SPEC(1, M); case 2: SPEC(2, M); case 3: SPEC(3, M); \
        case 4: SPEC(4, M); case 5: SPEC(5, M); case 6: SPEC(6, M); \
        case 7: SPEC(7, M); case 8: SPEC(8, M); case 9: SPEC(9, M); \
        case 10: SPEC(10, M); default: break; }
    if (p->members == 1) SPEC_WIDTHS(1)
    if (p->members == 2) SPEC_WIDTHS(2)
    SPEC(p->width, p->members);
#undef SPEC_WIDTHS
#undef SPEC
}
"""

_lib: ctypes.CDLL | None = None


def _build() -> ctypes.CDLL | None:
    """Compile (or load the cached build of) the kernel library."""
    lib = build(_SOURCE, "simkernels")
    if lib is None:
        return None
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.draw_row.argtypes = [pointer, pointer, pointer, i64]
    lib.draw_choices.argtypes = [pointer] * 3 + [i64, ctypes.c_uint64, ctypes.c_uint64]
    lib.cnot_layer.argtypes = (
        [pointer] * 2 + [i64] * 3 + [pointer] * 2 + [i64] + [pointer] * 7
    )
    lib.speculate.argtypes = [pointer, i64, i64] + [pointer] * 9
    for function in (lib.draw_row, lib.draw_choices, lib.cnot_layer, lib.speculate):
        function.restype = None
    return lib


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    global _lib
    if os.environ.get("REPRO_SIM_CKERNELS", "1") == "0":
        return False
    if _lib is None:
        _lib = _build()
    return _lib is not None


def load_pcg64(bit_generator: np.random.BitGenerator) -> np.ndarray:
    """The ``gen`` array (uint64[4]) of a PCG64 bit generator's state."""
    state = bit_generator.state["state"]
    value, inc = state["state"], state["inc"]
    return np.array(
        [value >> 64, value & _MASK64, inc >> 64, inc & _MASK64], dtype=np.uint64
    )


def store_pcg64(gen: np.ndarray, bit_generator: np.random.BitGenerator) -> None:
    """Write ``gen``'s state back into the bit generator."""
    state = bit_generator.state
    state["state"]["state"] = (int(gen[0]) << 64) | int(gen[1])
    bit_generator.state = state


def draw_row(gen_address: int, rate_address: int, out: np.ndarray) -> None:
    """Fill the C-contiguous uint8 ``out`` with one Bernoulli row.

    Callers pass raw addresses for the generator and the rate record
    (resolved once per run): ``.ctypes`` costs microseconds a call.
    """
    assert _lib is not None and out.flags.c_contiguous and out.dtype == np.uint8
    _lib.draw_row(gen_address, rate_address, out.ctypes.data, out.size)


def draw_choices(
    gen_address: int, where: np.ndarray, out: np.ndarray, low: int, span: int
) -> None:
    """``out = low + raw % span`` at the nonzero sites of ``where``, else 0."""
    assert _lib is not None and where.shape == out.shape and span >= 1
    assert where.flags.c_contiguous and out.flags.c_contiguous
    _lib.draw_choices(gen_address, where.ctypes.data, out.ctypes.data, out.size, low, span)


def cnot_layer(
    data_pack: np.ndarray,
    anc_pack: np.ndarray,
    data_idx: np.ndarray,
    anc_idx: np.ndarray,
    isz: np.ndarray,
    gen_address: int,
    rates: np.ndarray,
    rows: tuple,
    counts: np.ndarray,
) -> None:
    """Draw and run one entangling layer in place on the full packed planes.

    ``data_idx`` / ``anc_idx`` (int64) are the layer's gate columns, ``isz``
    the ``(shots, gates)`` uint8 Z-type flags, ``rates`` the gate-hit,
    gate-leak and transport rate records (uint64 ``(3, RATE_WORDS)``),
    ``rows`` three ``(shots, gates)`` uint8 buffers that receive the
    gate-hit and data/ancilla gate-leak rows; ``counts`` (int64[2])
    receives the new data/ancilla leak counts.
    """
    assert _lib is not None and rates.shape == (3, RATE_WORDS)
    for row in rows:
        assert row.shape == isz.shape and row.flags.c_contiguous
        # The planes are restrict-qualified in C: a row sharing their memory
        # would be undefined behaviour, not just a wrong answer.
        assert not np.may_share_memory(row, data_pack), "row aliases data plane"
        assert not np.may_share_memory(row, anc_pack), "row aliases ancilla plane"
    shots, gates = isz.shape
    _lib.cnot_layer(
        data_pack.ctypes.data, anc_pack.ctypes.data,
        shots, data_pack.shape[1], anc_pack.shape[1],
        data_idx.ctypes.data, anc_idx.ctypes.data,
        gates, isz.ctypes.data, gen_address, rates.ctypes.data,
        *(row.ctypes.data for row in rows), counts.ctypes.data,
    )


class SpeculatePlan:
    """The run-constant half of :func:`speculate`, resolved once per run.

    ``slots`` (``(num_data, width, members)``) lists the ancillas ORed into
    each pattern bit, padded with ``num_ancilla``, an index the kernel reads
    as a detector that never fires.  ``keep0`` (uint8 ``(num_ancilla,)``)
    is 0 where round 0 defines no detector.  ``table`` / ``offsets`` / ``shifts`` /
    ``silent_first_round`` are a policy's
    :class:`~repro.core.speculator.TableLayout`.  The plan holds every
    array it points at.
    """

    def __init__(
        self,
        slots: np.ndarray,
        keep0: np.ndarray,
        table: np.ndarray,
        offsets: np.ndarray,
        shifts: np.ndarray | None,
        silent_first_round: bool,
    ) -> None:
        num_data, width, members = slots.shape
        arrays = [
            np.ascontiguousarray(slots, dtype=np.int32),
            np.ascontiguousarray(table, dtype=bool).view(np.uint8),
            np.ascontiguousarray(offsets, dtype=np.int64),
            None if shifts is None else np.ascontiguousarray(shifts, dtype=np.int64),
            np.ascontiguousarray(keep0, dtype=np.uint8),
        ]
        self._arrays = arrays
        self.num_data, self.num_ancilla = num_data, keep0.shape[0]
        self.record = np.array(
            [num_data, self.num_ancilla, width, members, int(silent_first_round)]
            + [0 if array is None else array.ctypes.data for array in arrays],
            dtype=np.uint64,
        )
        assert self.record.shape == (10,)  # the words of spec_plan_t
        self.address = self.record.ctypes.data


def speculate(
    plan: SpeculatePlan,
    round_index: int,
    measurement: np.ndarray,
    prev_measurement: np.ndarray,
    detectors: np.ndarray,
    patterns: np.ndarray,
    prev_patterns: np.ndarray,
    data_leaked: np.ndarray,
    anc_leaked: np.ndarray,
    data_lrc: np.ndarray,
    counts: np.ndarray,
) -> None:
    """One round's speculation step in one call, in place.

    Reads the ``(shots, num_ancilla)`` bool ``measurement`` /
    ``prev_measurement`` / ``anc_leaked``, the
    ``(shots, num_data)`` int32 ``prev_patterns`` and bool ``data_leaked``;
    writes ``detectors``, ``patterns`` and the decision ``data_lrc``, and
    ``counts`` (int64[5]): false positives, false negatives, true
    positives, leaked data qubits, leaked ancillas.
    """
    assert _lib is not None and patterns.dtype == np.int32 == prev_patterns.dtype
    assert patterns.shape == data_lrc.shape == (data_lrc.shape[0], plan.num_data)
    assert measurement.shape == detectors.shape == (data_lrc.shape[0], plan.num_ancilla)
    _lib.speculate(
        plan.address, round_index == 0, data_lrc.shape[0],
        measurement.ctypes.data, prev_measurement.ctypes.data, detectors.ctypes.data,
        patterns.ctypes.data, prev_patterns.ctypes.data, data_leaked.ctypes.data, anc_leaked.ctypes.data, data_lrc.ctypes.data,
        counts.ctypes.data,
    )
