"""Optional runtime-compiled C kernels for the simulator hot path.

Two loops dominate the simulator once the NumPy-level waste is gone, and
both are awkward for NumPy itself:

* **Bernoulli mask generation.**  ``Generator.random(out=...)`` has to
  materialise 8 bytes of float64 per variate that the simulator immediately
  collapses to one 0/1 byte via ``np.less``.  ``pcg64_bern`` runs the same
  PCG64 (XSL-RR 128/64) step stream in C and fuses the threshold compare,
  writing only the uint8 mask: for ``u ~ U[0,1) = (raw >> 11) * 2**-53``,
  ``u < p``  ⟺  ``raw < ceil(p * 2**53) << 11`` exactly, so the masks are
  bit-identical to the NumPy path.  The caller passes the bit generator's
  128-bit state in/out and keeps ``numpy``'s ``Generator`` authoritative
  between C segments (see ``repro.sim.draws``).
* **The entangling-layer algebra.**  ~50 elementwise uint8 ops per layer
  stream every operand through memory once per op under NumPy;
  ``cnot_layer`` performs the identical per-element computation in one pass.

Both kernels are compiled on demand with the system C compiler into a
cached shared library; when no compiler is available everything falls back
to the pure-NumPy implementations (results are identical either way —
``tests/test_sim_equivalence.py`` pins both modes).  Set
``REPRO_SIM_CKERNELS=0`` to force the fallback.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .._cbuild import build

__all__ = ["available", "pcg64_bern", "cnot_layer"]

_SOURCE = r"""
#include <stdint.h>

typedef unsigned __int128 u128;
#define MULT ((((u128)0x2360ed051fc65da4ULL) << 64) | (u128)0x4385df649fccf645ULL)

static inline uint64_t out_xsl_rr(u128 state) {
    uint64_t hi = (uint64_t)(state >> 64), lo = (uint64_t)state;
    uint64_t x = hi ^ lo;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

/* PCG64 (XSL-RR 128/64) Bernoulli masks: out[i] = (U[0,1) < p), where the
 * uniform stream is numpy's own (one raw u64 per double, value < p decided
 * on the raw integer).  state/inc are (high, low) u64 pairs; state is
 * updated in place so the caller can resync numpy's Generator. */
void pcg64_bern(uint64_t* st, const uint64_t* inc, uint64_t threshold,
                int64_t n, uint8_t* out) {
    u128 state = (((u128)st[0]) << 64) | st[1];
    u128 incr  = (((u128)inc[0]) << 64) | inc[1];
    for (int64_t i = 0; i < n; i++) {
        state = state * MULT + incr;
        out[i] = out_xsl_rr(state) < threshold;
    }
    st[0] = (uint64_t)(state >> 64);
    st[1] = (uint64_t)state;
}

/* One entangling layer on packed planes (x | z<<1 | leaked<<2), the exact
 * per-element semantics of the NumPy tile kernel in sim/simulator.py.
 * counts[0]/counts[1] receive the new data/ancilla leak event counts. */
void cnot_layer(uint8_t* pd, uint8_t* pa, const uint8_t* isz,
                const uint8_t* tr, const uint8_t* rx, const uint8_t* rz,
                const uint8_t* rx2, const uint8_t* rz2,
                const uint8_t* gh, const uint8_t* pp,
                const uint8_t* dgl, const uint8_t* agl,
                int64_t n, int64_t* counts) {
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
    counts[0] = new_data;
    counts[1] = new_anc;
}
"""

_lib: ctypes.CDLL | None = None


def _build() -> ctypes.CDLL | None:
    """Compile (or load the cached build of) the kernel library."""
    lib = build(_SOURCE, "simkernels")
    if lib is None:
        return None
    lib.pcg64_bern.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64,
        ctypes.c_int64, ctypes.c_void_p,
    ]
    lib.pcg64_bern.restype = None
    lib.cnot_layer.argtypes = [ctypes.c_void_p] * 12 + [ctypes.c_int64, ctypes.c_void_p]
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


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def pcg64_bern(
    state: np.ndarray, inc: np.ndarray, threshold: int, out: np.ndarray
) -> None:
    """Fill ``out`` (uint8, C-contiguous) with Bernoulli masks; advance ``state``."""
    assert _lib is not None
    _lib.pcg64_bern(
        _ptr(state), _ptr(inc), ctypes.c_uint64(threshold),
        ctypes.c_int64(out.size), _ptr(out),
    )


def cnot_layer(
    pd: np.ndarray,
    pa: np.ndarray,
    isz: np.ndarray,
    masks: tuple,
    counts: np.ndarray,
) -> None:
    """Run the fused layer kernel over ``n = pd.size`` elements.

    ``masks`` is the 8-mask + pauli tuple (transport, rand_x, rand_z,
    rand_x2, rand_z2, gate_hit, pauli_u8, data_gate_leak, anc_gate_leak) in
    draw order; ``counts`` is an int64[2] output (new data/ancilla leaks).
    """
    assert _lib is not None
    transport, rand_x, rand_z, rand_x2, rand_z2, gate_hit, pauli, dgl, agl = masks
    _lib.cnot_layer(
        _ptr(pd), _ptr(pa), _ptr(isz),
        _ptr(transport), _ptr(rand_x), _ptr(rand_z), _ptr(rand_x2), _ptr(rand_z2),
        _ptr(gate_hit), _ptr(pauli), _ptr(dgl), _ptr(agl),
        ctypes.c_int64(pd.size), _ptr(counts),
    )
