"""Optional runtime-compiled C kernels for the simulator hot path.

Two jobs dominate the simulator once the NumPy-level waste is gone, and
both are awkward for NumPy itself:

* **The draw schedule.**  ``draw_ops`` executes a contiguous block of the
  run's :class:`~repro.sim.draws.DrawOp` list in one call, against a shadow
  copy of NumPy's PCG64 state (``gen``: the 128-bit state and increment as
  (high, low) u64 pairs, then ``has_uint32`` and ``uinteger``, the
  half-word buffer ``next_uint32`` keeps).  Each row of the op table is one
  ``Generator`` call of the frozen contract:

  - ``OP_BERN``: ``random(n) < p`` as a uint8 mask.  For ``u ~ U[0,1) =
    (raw >> 11) * 2**-53``, ``u < p`` ⟺ ``raw < ceil(p * 2**53) << 11``
    exactly, so the mask is decided on the raw integer and no float64 is
    ever materialised.
  - ``OP_SKIP``: a Bernoulli draw with a constant result (``p <= 0`` or
    ``p >= 1``).  The state jumps ahead by ``n`` steps (PCG's O(log n)
    LCG advance) and the half-word buffer is left alone, exactly like
    ``n`` real double draws.
  - ``OP_INT8`` / ``OP_INT64``: ``integers(low, high, n)`` with NumPy's
    int64 path for ranges below ``2**32 - 1``: 32-bit Lemire rejection
    sampling over ``next_uint32``, which hands out the buffered upper half
    of a 64-bit step before taking a new one.  ``OP_INT8`` narrows each
    value to one byte on store (the simulator's masks), ``OP_INT64`` keeps
    it whole.

  ``load_pcg64`` / ``store_pcg64`` move the state between the Generator
  and ``gen``; ``tests/test_properties.py`` checks the kernels against
  ``Generator.random`` / ``Generator.integers`` value for value and on the
  post-state.
* **The entangling layer.**  ``cnot_layer`` gathers one layer's operand
  pairs straight out of the full packed planes, applies the ~40-op
  per-element algebra and scatters them back, in cache-sized tiles.  A
  layer's gates touch each qubit at most once (``RoundSchedule.validate``),
  so updating in place equals gather-all/compute/scatter-all.  Every
  pointer is ``restrict``-qualified, which is what lets the compiler
  vectorise the algebra; the Python wrapper asserts that neither writable
  plane overlaps a mask (masks may share one constant buffer: they are
  only read).

Both are compiled on demand with the system C compiler into a cached
shared library; when no compiler is available everything falls back to the
pure-NumPy implementations (results are identical either way —
``tests/test_sim_equivalence.py`` pins both modes).  Set
``REPRO_SIM_CKERNELS=0`` to force the fallback.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np

from .._cbuild import build

__all__ = [
    "OP_BERN",
    "OP_SKIP",
    "OP_INT8",
    "OP_INT64",
    "ROW_BYTES",
    "available",
    "bern_threshold",
    "draw_ops",
    "load_pcg64",
    "store_pcg64",
    "cnot_layer",
]

#: Op-table row kinds (column 0 of a ``draw_ops`` table row).
OP_BERN, OP_SKIP, OP_INT8, OP_INT64 = 0, 1, 2, 3

#: Bytes per op-table row: five uint64 columns.
ROW_BYTES = 40

#: Largest ``high - low - 1`` the bounded-integer kernel ports: NumPy
#: switches to a different generator path at ``2**32 - 1`` and above (and
#: draws nothing at 0, which the kernel does not port either).
MAX_INT_RANGE = 0xFFFFFFFE

_MASK64 = (1 << 64) - 1

_SOURCE = r"""
#include <stdint.h>

typedef unsigned __int128 u128;
#define MULT ((((u128)0x2360ed051fc65da4ULL) << 64) | (u128)0x4385df649fccf645ULL)

enum { OP_BERN = 0, OP_SKIP = 1, OP_INT8 = 2, OP_INT64 = 3 };

static inline uint64_t out_xsl_rr(u128 state) {
    uint64_t hi = (uint64_t)(state >> 64), lo = (uint64_t)state;
    uint64_t x = hi ^ lo;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

/* pcg_advance_lcg_128: the state after `delta` steps, in O(log delta). */
static u128 advance(u128 state, u128 delta, u128 incr) {
    u128 cur_mult = MULT, cur_plus = incr, acc_mult = 1u, acc_plus = 0u;
    while (delta > 0) {
        if (delta & 1u) {
            acc_mult *= cur_mult;
            acc_plus = acc_plus * cur_mult + cur_plus;
        }
        cur_plus = (cur_mult + 1u) * cur_plus;
        cur_mult *= cur_mult;
        delta >>= 1;
    }
    return acc_mult * state + acc_plus;
}

typedef struct {
    u128 state, incr;
    int has32;      /* numpy's has_uint32 */
    uint32_t half;  /* numpy's uinteger */
} pcg_t;

static inline uint64_t next64(pcg_t* g) {
    g->state = g->state * MULT + g->incr;
    return out_xsl_rr(g->state);
}

/* pcg64_next32: the buffered upper half first, else a fresh step. */
static inline uint32_t next32(pcg_t* g) {
    if (g->has32) {
        g->has32 = 0;
        return g->half;
    }
    uint64_t next = next64(g);
    g->has32 = 1;
    g->half = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* numpy's buffered_bounded_lemire_uint32: uniform on [0, rng], rng given
 * as rng_excl = rng + 1 with threshold = 2**32 mod rng_excl. */
static inline uint64_t lemire32(pcg_t* g, uint32_t rng_excl, uint32_t threshold) {
    uint64_t m;
    do {
        m = (uint64_t)next32(g) * rng_excl;
    } while ((uint32_t)m < threshold);  /* threshold < rng_excl */
    return m >> 32;
}

/* Run `count` op-table rows (kind, param, off, n, out) in order against the
 * shadow generator gen = {state_hi, state_lo, inc_hi, inc_lo, has_uint32,
 * uinteger}.  OP_BERN: param is the raw-integer threshold.  OP_INT*:
 * param is rng = high - low - 1 (1 <= rng < 2**32 - 1; numpy draws nothing
 * for rng = 0, which no caller uses) and off is low. */
void draw_ops(uint64_t* gen, const uint64_t* table, int64_t count) {
    pcg_t g = {
        (((u128)gen[0]) << 64) | gen[1], (((u128)gen[2]) << 64) | gen[3],
        gen[4] != 0, (uint32_t)gen[5],
    };
    for (int64_t k = 0; k < count; k++) {
        const uint64_t* row = table + 5 * k;
        const uint64_t kind = row[0], param = row[1], off = row[2];
        const int64_t n = (int64_t)row[3];
        void* out = (void*)(uintptr_t)row[4];
        if (kind == OP_SKIP) {
            g.state = advance(g.state, (u128)(uint64_t)n, g.incr);
        } else if (kind == OP_BERN) {
            uint8_t* out8 = out;
            for (int64_t i = 0; i < n; i++)
                out8[i] = next64(&g) < param;
        } else {
            const uint32_t rng_excl = (uint32_t)param + 1u;
            const uint32_t threshold = (UINT32_MAX - (uint32_t)param) % rng_excl;
            if (kind == OP_INT8) {
                uint8_t* out8 = out;
                for (int64_t i = 0; i < n; i++)
                    out8[i] = (uint8_t)(off + lemire32(&g, rng_excl, threshold));
            } else {
                uint64_t* out64 = out;
                for (int64_t i = 0; i < n; i++)
                    out64[i] = off + lemire32(&g, rng_excl, threshold);
            }
        }
    }
    gen[0] = (uint64_t)(g.state >> 64);
    gen[1] = (uint64_t)g.state;
    gen[4] = (uint64_t)g.has32;
    gen[5] = g.half;  /* numpy keeps the last half-word after using it */
}

/* The per-element layer algebra on one gathered tile (packed planes
 * x | z<<1 | leaked<<2), the exact semantics of the NumPy tile loop in
 * sim/simulator.py.  counts[0]/counts[1] accumulate new data/ancilla leaks. */
static void layer_tile(uint8_t* restrict pd, uint8_t* restrict pa,
                       const uint8_t* restrict isz,
                       const uint8_t* restrict tr, const uint8_t* restrict rx,
                       const uint8_t* restrict rz, const uint8_t* restrict rx2,
                       const uint8_t* restrict rz2, const uint8_t* restrict gh,
                       const uint8_t* restrict pp, const uint8_t* restrict dgl,
                       const uint8_t* restrict agl, int64_t n,
                       int64_t* restrict counts) {
    int64_t new_data = 0, new_anc = 0;
    for (int64_t i = 0; i < n; i++) {
        uint8_t d = pd[i], a = pa[i];
        uint8_t ld = d >> 2, la = a >> 2;
        uint8_t h = (uint8_t)((ld | la) ^ 1u);
        uint8_t hz = h & isz[i], hnz = h ^ hz;
        uint8_t t;
        /* ideal CNOT propagation (Z-type: data controls ancilla X / ancilla
         * feeds data Z; X-type: the mirror), healthy columns only */
        t = d & hz;               a ^= t;
        t = (a >> 1) & hz;        d ^= (uint8_t)(t << 1);
        t = a & hnz;              d ^= t;
        t = (d >> 1) & hnz;       a ^= (uint8_t)(t << 1);
        /* leaked-operand malfunction: transport or scramble */
        uint8_t m1 = (uint8_t)(ld & (la ^ 1u));  /* data_only */
        uint8_t m2 = (uint8_t)(la & (ld ^ 1u));  /* anc_only  */
        uint8_t m4 = m1 & tr[i];                 /* anc_gets_leak  */
        uint8_t m5 = m2 & tr[i];                 /* data_gets_leak */
        uint8_t tni = tr[i] ^ 1u;
        m1 &= tni;                               /* scramble_anc  */
        m2 &= tni;                               /* scramble_data */
        a ^= m1 & rx[i];
        a ^= (uint8_t)((m1 & rz[i]) << 1);
        d ^= m2 & rx2[i];
        d ^= (uint8_t)((m2 & rz2[i]) << 1);
        /* two-qubit depolarising gate error */
        uint8_t ghm = (uint8_t)(gh[i] * 3u);
        d ^= (uint8_t)(pp[i] & 3u) & ghm;
        a ^= (uint8_t)(pp[i] >> 2) & ghm;
        /* gate-induced leakage */
        m5 |= dgl[i];  m5 &= (uint8_t)(ld ^ 1u);
        m4 |= agl[i];  m4 &= (uint8_t)(la ^ 1u);
        new_data += m5;
        new_anc += m4;
        d |= (uint8_t)(m5 << 2);
        a |= (uint8_t)(m4 << 2);
        pd[i] = d;
        pa[i] = a;
    }
    counts[0] += new_data;
    counts[1] += new_anc;
}

/* Elements per tile (whole shot rows, at least one). */
#define TILE 2048

/* One entangling layer on the full packed planes: data_pack (shots x nd)
 * and anc_pack (shots x na) are updated in place at columns didx[g] /
 * aidx[g] of every shot row.  masks[0..8] (transport, rand_x, rand_z,
 * rand_x2, rand_z2, gate_hit, pauli_pair, data_gate_leak, anc_gate_leak)
 * and isz are (shots x gates) row-major.  Each tile gathers its operands
 * through flat per-tile offsets, runs the algebra and scatters them back. */
void cnot_layer(uint8_t* restrict data_pack, uint8_t* restrict anc_pack,
                int64_t shots, int64_t nd, int64_t na,
                const int64_t* restrict didx, const int64_t* restrict aidx,
                int64_t gates, const uint8_t* restrict isz,
                const uint8_t* const* masks, int64_t* restrict counts) {
    const int64_t rows = gates < TILE ? TILE / gates : 1;
    const int64_t width = rows * gates;
    int32_t doff[width], aoff[width];
    uint8_t dt[width], at[width];
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t g = 0; g < gates; g++) {
            doff[r * gates + g] = (int32_t)(r * nd + didx[g]);
            aoff[r * gates + g] = (int32_t)(r * na + aidx[g]);
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
        layer_tile(dt, at, isz + e0,
                   masks[0] + e0, masks[1] + e0, masks[2] + e0, masks[3] + e0,
                   masks[4] + e0, masks[5] + e0, masks[6] + e0, masks[7] + e0,
                   masks[8] + e0, m, counts);
        for (int64_t i = 0; i < m; i++) {
            dbase[doff[i]] = dt[i];
            abase[aoff[i]] = at[i];
        }
    }
}
"""

_lib: ctypes.CDLL | None = None


def _build() -> ctypes.CDLL | None:
    """Compile (or load the cached build of) the kernel library."""
    lib = build(_SOURCE, "simkernels")
    if lib is None:
        return None
    lib.draw_ops.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    lib.draw_ops.restype = None
    lib.cnot_layer.argtypes = (
        [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
        + [ctypes.c_int64] + [ctypes.c_void_p] * 3
    )
    lib.cnot_layer.restype = None
    return lib


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    global _lib
    if os.environ.get("REPRO_SIM_CKERNELS", "1") == "0":
        return False
    if _lib is None:
        _lib = _build()
    return _lib is not None


def bern_threshold(probability: float) -> int:
    """The raw-u64 threshold deciding ``U[0,1) < probability``, ``0 < p < 1``.

    ``ceil(p * 2**53) << 11`` is exact (power-of-two scaling) and at most
    ``(2**53 - 1) << 11`` for any double below one.
    """
    return math.ceil(probability * 9007199254740992.0) << 11


def load_pcg64(bit_generator: np.random.BitGenerator) -> np.ndarray:
    """The ``gen`` array (uint64[6]) of a PCG64 bit generator's state."""
    state = bit_generator.state
    value, inc = state["state"]["state"], state["state"]["inc"]
    return np.array(
        [value >> 64, value & _MASK64, inc >> 64, inc & _MASK64,
         state["has_uint32"], state["uinteger"]],
        dtype=np.uint64,
    )


def store_pcg64(gen: np.ndarray, bit_generator: np.random.BitGenerator) -> None:
    """Write ``gen`` back into the bit generator (state and half-word buffer)."""
    state = bit_generator.state
    state["state"]["state"] = (int(gen[0]) << 64) | int(gen[1])
    state["has_uint32"] = int(gen[4])
    state["uinteger"] = int(gen[5])
    bit_generator.state = state


def draw_ops(gen_address: int, rows_address: int, count: int) -> None:
    """Execute ``count`` consecutive op-table rows in order.

    Rows are C-contiguous uint64 ``(kind, param, off, n, out_address)``
    quintuples (``ROW_BYTES`` each) starting at ``rows_address``; the
    ``gen`` array at ``gen_address`` advances in place.  Callers pass raw
    addresses (``array.ctypes.data``, resolved once per table) because this
    runs once per draw block and ``.ctypes`` costs microseconds a call.
    """
    assert _lib is not None
    _lib.draw_ops(gen_address, rows_address, count)


def cnot_layer(
    data_pack: np.ndarray,
    anc_pack: np.ndarray,
    data_idx: np.ndarray,
    anc_idx: np.ndarray,
    isz: np.ndarray,
    masks: tuple,
    counts: np.ndarray,
) -> None:
    """Run one entangling layer in place on the full packed planes.

    ``data_idx`` / ``anc_idx`` (int64) are the layer's gate columns, ``isz``
    the ``(shots, gates)`` uint8 Z-type flags, ``masks`` the layer's nine
    ``(shots, gates)`` draws in stream order (transport, rand_x, rand_z,
    rand_x2, rand_z2, gate_hit, pauli_pair, data_gate_leak, anc_gate_leak);
    ``counts`` (int64[2]) receives the new data/ancilla leak counts.
    """
    assert _lib is not None
    for mask in masks:
        assert mask.shape == isz.shape and mask.flags.c_contiguous
        # The planes are restrict-qualified in C: a mask sharing their memory
        # would be undefined behaviour, not just a wrong answer.
        assert not np.may_share_memory(mask, data_pack), "mask aliases data plane"
        assert not np.may_share_memory(mask, anc_pack), "mask aliases ancilla plane"
    pointers = (ctypes.c_void_p * 9)(*(mask.ctypes.data for mask in masks))
    shots, gates = isz.shape
    _lib.cnot_layer(
        data_pack.ctypes.data, anc_pack.ctypes.data,
        shots, data_pack.shape[1], anc_pack.shape[1],
        data_idx.ctypes.data, anc_idx.ctypes.data,
        gates, isz.ctypes.data, pointers, counts.ctypes.data,
    )
