"""Optional runtime-compiled C kernels for the simulator hot path.

With the kernels a QEC round is one call, :func:`qec_round`, on the run's
packed planes; the rest of this module is what that call is built from.

* **The sparse draws.**  The kernels execute the draw contract of
  :mod:`repro.sim.draws` against a shadow copy of the run's PCG64 state
  (``gen``: the 128-bit state and increment as (high, low) u64 pairs).
  Only raw ``uint64`` outputs are consumed; a Bernoulli row is described by
  a *rate record* (``RATE_WORDS`` u64: kind, per-site threshold, gap-table
  length, gap-table address) built once per probability by
  :func:`repro.sim.draws.rate`.  Constant rows (``RATE_ZERO`` /
  ``RATE_ONE``) consume nothing, fair rows (``RATE_FAIR``) take 64 bits
  per output, and rare-event rows (``RATE_GAPS``, or ``RATE_GAPS_NOT``
  for ``p > 1/2``, sampled as the complement) take one output per event:
  the gap to the next event is the number of gap-table thresholds above
  the output, and a gap of the full table length means "no event in that
  many sites" (the geometric law is memoryless).  ``draw_row`` /
  ``draw_choices`` expose a mask row and the conditional integers to
  :class:`~repro.sim.draws.DrawSource` (the final readout and the
  sampler's property tests); ``draw_row`` draws with the round's own
  sampler, so those tests pin what a round runs.  ``load_pcg64`` /
  ``store_pcg64`` move the state between the Generator and ``gen``, and
  NumPy's buffered half-word is neither read nor written.  ``tests/test_properties.py`` checks the
  kernels against the NumPy oracle value for value and both against the
  laws they sample.
* **The round.**  ``qec_round`` runs one round on the planes
  ``x | z<<1 | leaked<<2`` (uint8, one byte per qubit and shot), which stay
  resident for the whole run: the pending data and ancilla LRCs, data
  depolarisation and leakage, ancilla reset and leakage, every entangling
  layer, measurement and MLR, and, for a lookup policy, the speculation
  step.  A row is never written out as a mask: it is drawn into a list of
  its event sites (or, for a fair row, its output words) and applied at
  its hits, so a row of rate ``p`` costs ``O(p * sites)`` beyond its
  outputs.  Conditional variates are drawn after their row, at the sites
  that consume them, in row-major order, exactly as the NumPy path draws
  them; row-free work (frame reset, the readout) is one pass over a
  plane, and plane bits 3-5 carry a row's marks into it.  An entangling
  layer gathers its operand pairs in cache-sized tiles, runs a
  branch-free vectorised pass (ideal propagation) that flags the sites
  with exactly one leaked operand, marks its gate-hit and gate-leak rows
  into the flags, and visits the flagged sites in order (gate-induced
  leakage, then the transport decision and partner flips, then the Pauli
  pair).  A layer's gates touch each qubit at most once
  (``RoundSchedule.validate``), so updating in place equals
  gather-all/compute/scatter-all.  The run-constant half (schedule,
  buffers, the generator) is one :class:`RoundPlan` record; the plan
  asserts that no buffer overlaps a plane (the pointers are
  ``restrict``-qualified).  When traced, the call stamps
  ``CLOCK_MONOTONIC`` (``time.perf_counter_ns``'s clock on Linux) at each
  phase boundary inside it; otherwise it reads no clock.
* **The speculation step.**  For a lookup policy the round ends with the
  draw-free speculation step, shot row by shot row: the detector XOR
  (with round 0's X-stabilizer mask), the per-qubit pattern gather, the
  flag-table lookup (single- or two-round key) and the accuracy counts
  (false/true positives, false negatives, leaked data qubits and
  ancillas).  The gather reads fixed (qubit, position, member) slots
  padded with an index that never fires, and is specialised on the slot
  shape so the compiler unrolls it; the run-constant half (slots, the
  policy's :class:`~repro.core.speculator.TableLayout`) is one
  :class:`SpeculatePlan`.  ``speculate`` runs the step alone on bool
  leak flags, which is how ``tests/test_sim_equivalence.py`` checks it
  against the NumPy pattern GEMM + ``LookupPolicy.decide_into`` + NumPy
  counts.

Everything is compiled on demand with the system C compiler into one
cached shared library; when no compiler is available the simulator runs
its NumPy per-phase path, the kernels' oracle (results are identical
either way: ``tests/test_sim_equivalence.py`` pins both modes).  Set
``REPRO_SIM_CKERNELS=0`` to force that path.
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
    "gap_table",
    "draw_row",
    "draw_choices",
    "load_pcg64",
    "store_pcg64",
    "SpeculatePlan",
    "speculate",
    "ROUND_RATES",
    "RoundPlan",
    "qec_round",
]

#: Rate-record kinds (word 0 of a rate record).
RATE_ZERO, RATE_ONE, RATE_FAIR, RATE_GAPS, RATE_GAPS_NOT = 0, 1, 2, 3, 4

#: u64 words per rate record: kind, threshold, gap-table length, address.
RATE_WORDS = 4

#: The probabilities of a round's rows, in the order of :func:`qec_round`'s
#: rate records (``R_*`` in the C source).
ROUND_RATES = (
    "p", "p_leak", "gate_error", "leakage_mobility", "ancilla_reset_removes_leakage",
    "mlr_error", "lrc_removal", "lrc_gate_error", "lrc_induced_leakage",
)

_MASK64 = (1 << 64) - 1

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <time.h>

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

static inline uint8_t bern1(pcg_t* g, const rate_t* r) {
    return r->kind <= RATE_ONE ? (uint8_t)r->kind : (uint8_t)(next64(g) < r->threshold);
}

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "word8/pop_byte read byte k of a word as its bits 8k..8k+7"
#endif

/* The bytes p[i .. i+8) (zero past n) as one word, masked with bits. */
static inline uint64_t word8(const uint8_t* p, int64_t i, int64_t n, uint64_t bits) {
    uint64_t w = 0;
    if (n - i >= 8) memcpy(&w, p + i, 8);
    else memcpy(&w, p + i, (size_t)(n - i));
    return w & bits;
}

/* The index of the lowest nonzero byte of *w, which is cleared. */
static inline int64_t pop_byte(uint64_t* w) {
    const int b = __builtin_ctzll(*w) & 56;
    *w &= ~(0xFFULL << b);
    return b >> 3;
}

/* The gap table of rate(): t_1 = keep, t_{j+1} = floor(t_j * keep / 2^64),
 * up to max nonzero entries.  Returns its length. */
int64_t gap_table(uint64_t keep, uint64_t* out, int64_t max) {
    int64_t k = 0;
    for (uint64_t t = keep; t && k < max; t = (uint64_t)(((u128)t * keep) >> 64)) out[k++] = t;
    return k;
}

void draw_choices(uint64_t* gen, const uint8_t* where, uint8_t* out, int64_t n,
                  uint64_t low, uint64_t span) {
    pcg_t g = load(gen);
    memset(out, 0, (size_t)n);
    for (int64_t i0 = 0; i0 < n; i0 += 8) {
        for (uint64_t w = word8(where, i0, n, ~0ULL); w;) {
            const int64_t i = i0 + pop_byte(&w);
            out[i] = (uint8_t)(low + next64(&g) % span);
        }
    }
    store(gen, &g);
}

/* One drawn Bernoulli row of n sites.  A gap-sampled row keeps its
 * ascending event sites (the hits of RATE_GAPS, the misses of
 * RATE_GAPS_NOT), a fair row its output words, a constant row nothing.
 * next / cur are the cursor of either hit_at queries or a next_hit walk. */
typedef struct {
    uint64_t kind;
    int64_t n, count, next, cur;
    const int32_t* ev;
    const uint64_t* words;
} row_t;

/* Draws a row into buf (8-byte aligned, room for n sites and for a fair
 * row's (n + 63) / 64 words), consuming one output per event of a
 * gap-sampled row, one per 64 sites of a fair row and none for a constant
 * one. */
static row_t draw(pcg_t* g, const rate_t* r, int64_t n, int32_t* buf) {
    row_t row = {r->kind, n, 0, 0, -1, buf, (const uint64_t*)buf};
    if (r->kind == RATE_FAIR) {
        uint64_t* words = (uint64_t*)buf;
        for (int64_t i = 0; i < (n + 63) / 64; i++) words[i] = next64(g);
    } else if (r->kind >= RATE_GAPS) {
        const int64_t k = r->k;
        for (int64_t c = 0; c < n;) {
            const int64_t j = gap(next64(g), r->table, k);
            if (j == k) {
                c += k;
                continue;
            }
            c += j;
            if (c < n) buf[row.count++] = (int32_t)c;
            c++;
        }
    }
    return row;
}

static inline uint8_t fair_bit(const uint64_t* words, int64_t s) {
    return (uint8_t)((words[s >> 6] >> (s & 63)) & 1u);
}

/* Steps a walk to the row's next hit site and returns it (n past the last). */
static inline int64_t next_hit(row_t* r) {
    int64_t s = r->cur + 1;
    switch (r->kind) {
    case RATE_ZERO:
        s = r->n;
        break;
    case RATE_GAPS:
        s = r->next < r->count ? r->ev[r->next++] : r->n;
        break;
    case RATE_GAPS_NOT:
        for (; r->next < r->count && r->ev[r->next] == s; r->next++) s++;
        break;
    case RATE_FAIR:
        while (s < r->n && !fair_bit(r->words, s)) s++;
        break;
    default:  /* RATE_ONE: every site */
        break;
    }
    return r->cur = s < r->n ? s : r->n;
}

#define FOR_HITS(row, s) for (int64_t s; (s = next_hit(&(row))) < (row).n;)

/* One row of n sites as a 0/1 mask, drawn exactly as the round draws it;
 * buf is draw()'s scratch. */
void draw_row(uint64_t* gen, const rate_t* rate, uint8_t* out, int64_t n, int32_t* buf) {
    pcg_t g = load(gen);
    row_t row = draw(&g, rate, n, buf);
    memset(out, 0, (size_t)n);
    FOR_HITS(row, s) out[s] = 1;
    store(gen, &g);
}

/* Whether site s is a hit; queries come in ascending site order. */
static inline uint8_t hit_at(row_t* r, int64_t s) {
    if (r->kind <= RATE_ONE) return (uint8_t)r->kind;
    if (r->kind == RATE_FAIR) return fair_bit(r->words, s);
    while (r->next < r->count && r->ev[r->next] < s) r->next++;
    return (uint8_t)((r->kind == RATE_GAPS_NOT) ^ (r->next < r->count && r->ev[r->next] == s));
}

/* ORs bit into flags[s - lo] at every hit s < hi of a walk primed with
 * next_hit. */
static inline void mark(row_t* r, int64_t lo, int64_t hi, uint8_t* flags, uint8_t bit) {
    for (; r->cur < hi; next_hit(r)) flags[r->cur - lo] |= bit;
}

/* The rate records of a round, in ROUND_RATES order. */
enum { R_P, R_LEAK, R_GATE, R_MOBILITY, R_RESET, R_MLR, R_LRC_REMOVE, R_LRC_GATE, R_LRC_LEAK };

/* X, Y, Z (a choice in 0..2) as frame flips x | z<<1. */
static const uint8_t PAULI_XZ[3] = {1u, 3u, 2u};

/* The set sites of a bool mask, ascending, into sites; returns how many. */
static int64_t list_sites(const uint8_t* restrict mask, int64_t n, int32_t* restrict sites) {
    int64_t m = 0;
    for (int64_t i0 = 0; i0 < n; i0 += 8)
        for (uint64_t w = word8(mask, i0, n, ~0ULL); w;) sites[m++] = (int32_t)(i0 + pop_byte(&w));
    return m;
}

/* LRC gadgets at the m listed sites of plane p (n sites), as
 * LeakageSimulator._apply_lrc: the removal row, the frame flips where
 * leakage was removed (data only), the gate-hit row, the Pauli choice where
 * it hit, the induced-leakage row.  Each row is drawn whole before the
 * sweep over the listed sites, which draws its conditional variates in
 * site order. */
static void apply_lrc(pcg_t* g, const rate_t* rates, uint8_t* restrict p, int64_t n,
                      const int32_t* restrict sites, int64_t m, int flips,
                      int32_t* restrict buf, int64_t* leaks) {
    row_t row = draw(g, &rates[R_LRC_REMOVE], n, buf);
    for (int64_t k = 0; k < m; k++) {
        if ((p[sites[k]] & 4u) && hit_at(&row, sites[k]))
            p[sites[k]] ^= (uint8_t)(4u | (flips ? next64(g) & 3u : 0u));
    }
    row = draw(g, &rates[R_LRC_GATE], n, buf);
    for (int64_t k = 0; k < m; k++)
        if (hit_at(&row, sites[k])) p[sites[k]] ^= PAULI_XZ[next64(g) % 3u];
    row = draw(g, &rates[R_LRC_LEAK], n, buf);
    for (int64_t k = 0; k < m; k++) {
        if (!(p[sites[k]] & 4u) && hit_at(&row, sites[k])) {
            p[sites[k]] |= 4u;
            (*leaks)++;
        }
    }
}

/* Leaks the unleaked qubits of plane p at the hits of one row. */
static void inject(pcg_t* g, const rate_t* rate, uint8_t* restrict p, int64_t n,
                   int32_t* restrict buf, int64_t* leaks) {
    row_t row = draw(g, rate, n, buf);
    FOR_HITS(row, s) {
        if (!(p[s] & 4u)) {
            p[s] |= 4u;
            (*leaks)++;
        }
    }
}

/* Start-of-round noise: data depolarisation (the hit row, then the Pauli
 * choice at its hits) and leakage, then the ancilla reset (frames cleared,
 * the X- and Z-flip rows, the leakage-removal row; a constant-one removal
 * clears every flag in the clearing pass) and ancilla leakage. */
static void round_noise(pcg_t* g, const rate_t* rates, uint8_t* restrict dp, int64_t nd,
                        uint8_t* restrict ap, int64_t na, int32_t* restrict buf,
                        int64_t* leaks) {
    row_t row = draw(g, &rates[R_P], nd, buf);
    FOR_HITS(row, s) dp[s] ^= PAULI_XZ[next64(g) % 3u];
    inject(g, &rates[R_LEAK], dp, nd, buf, leaks);
    const uint8_t keep = rates[R_RESET].kind == RATE_ONE ? 0u : 4u;
    for (int64_t i = 0; i < na; i++) ap[i] &= keep;
    row = draw(g, &rates[R_P], na, buf);
    FOR_HITS(row, s) ap[s] ^= 1u;
    row = draw(g, &rates[R_P], na, buf);
    FOR_HITS(row, s) ap[s] ^= 2u;
    if (keep) {
        row = draw(g, &rates[R_RESET], na, buf);
        FOR_HITS(row, s) ap[s] &= 3u;
    }
    inject(g, &rates[R_LEAK], ap, na, buf, leaks);
}

/* Pass 1 of a layer tile: ideal CNOT propagation on healthy pairs (as in
 * the NumPy tile loop in sim/simulator.py).  flags[i]
 * gets bit 0 where exactly one operand is leaked and bit 2 where the data
 * operand is the leaked one. */
static void layer_tile(uint8_t* restrict pd, uint8_t* restrict pa,
                       const uint8_t* restrict isz, uint8_t* restrict flags, int64_t n) {
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
        pd[i] = d;
        pa[i] = a;
        flags[i] = (uint8_t)((ld ^ la) | (ld << 2));
    }
}

/* Pass 2: the flagged sites in row-major order (bit 1 gate hit, bits 3 / 4
 * data / ancilla gate leak, marked from the rows).  Gate-induced leakage
 * first; then a one-leaked site draws the transport decision and one output
 * whose low two bits are the healthy partner's X/Z flips (applied unless
 * the leak is transported to it); a hit site then draws its Pauli pair in
 * 1..15 (low two bits on the data, high two on the ancilla). */
static void layer_fixups(pcg_t* g, const rate_t* transport, uint8_t* restrict pd,
                         uint8_t* restrict pa, const uint8_t* restrict flags,
                         int64_t n, int64_t* leaks) {
    for (int64_t i0 = 0; i0 < n; i0 += 8) {
        for (uint64_t w = word8(flags, i0, n, 0x1B1B1B1B1B1B1B1BULL); w;) {
            const int64_t i = i0 + pop_byte(&w);
            const uint8_t f = flags[i];
            uint8_t d = pd[i], a = pa[i];
            if ((f & 8u) && !(d & 4u)) {
                d |= 4u;
                (*leaks)++;
            }
            if ((f & 16u) && !(a & 4u)) {
                a |= 4u;
                (*leaks)++;
            }
            if (f & 1u) {
                const uint8_t moved = bern1(g, transport);
                const uint8_t flips = (uint8_t)(next64(g) & 3u);
                uint8_t* partner = (f & 4u) ? &a : &d;
                if (!moved) {
                    *partner ^= flips;
                } else if (!(*partner & 4u)) {
                    *partner |= 4u;
                    (*leaks)++;
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
}

/* Elements per tile (whole shot rows, at least one). */
#define TILE 2048

/* One entangling layer on the packed planes (shots x nd, shots x na), in
 * place at columns didx[c] / aidx[c] of every shot row: the gate-hit and
 * the data and ancilla gate-leak rows (shots x gates sites, into the three
 * event buffers), then both passes tile by tile. */
static void cnot_layer(pcg_t* g, const rate_t* rates, int32_t* bufs, int64_t cap,
                       uint8_t* restrict data_pack, uint8_t* restrict anc_pack,
                       int64_t shots, int64_t nd, int64_t na,
                       const int64_t* restrict didx, const int64_t* restrict aidx,
                       const uint8_t* restrict isz, int64_t gates, int64_t* leaks) {
    const int64_t rows = gates < TILE ? TILE / gates : 1;
    const int64_t width = rows * gates;
    int32_t doff[width], aoff[width];
    uint8_t zt[width], dt[width], at[width], flags[width];
    row_t hit = draw(g, &rates[R_GATE], shots * gates, bufs);
    row_t data_leak = draw(g, &rates[R_LEAK], shots * gates, bufs + cap);
    row_t anc_leak = draw(g, &rates[R_LEAK], shots * gates, bufs + 2 * cap);
    next_hit(&hit);
    next_hit(&data_leak);
    next_hit(&anc_leak);
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < gates; c++) {
            doff[r * gates + c] = (int32_t)(r * nd + didx[c]);
            aoff[r * gates + c] = (int32_t)(r * na + aidx[c]);
            zt[r * gates + c] = isz[c];
        }
    }
    for (int64_t r0 = 0; r0 < shots; r0 += rows) {
        const int64_t e0 = r0 * gates;
        const int64_t m = (shots - r0 < rows ? shots - r0 : rows) * gates;
        uint8_t* restrict dbase = data_pack + r0 * nd;
        uint8_t* restrict abase = anc_pack + r0 * na;
        for (int64_t i = 0; i < m; i++) {
            dt[i] = dbase[doff[i]];
            at[i] = abase[aoff[i]];
        }
        layer_tile(dt, at, zt, flags, m);
        mark(&hit, e0, e0 + m, flags, 2u);
        mark(&data_leak, e0, e0 + m, flags, 8u);
        mark(&anc_leak, e0, e0 + m, flags, 16u);
        layer_fixups(g, &rates[R_MOBILITY], dt, at, flags, m, leaks);
        for (int64_t i = 0; i < m; i++) {
            dbase[doff[i]] = dt[i];
            abase[aoff[i]] = at[i];
        }
    }
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

/* One shot row's pattern gather and table lookup: patterns into pq, LRC
 * flags into fq.  W x M is the gather's shape (positions x members per
 * group); constant arguments let the compiler unroll it. */
static inline __attribute__((always_inline)) void gather_row(
        const spec_plan_t* p, const uint8_t* restrict d, const int32_t* restrict ppq,
        int32_t* restrict pq, uint8_t* restrict fq, int lookup,
        const int64_t W, const int64_t M) {
    const int32_t* restrict slots = p->slots;
    const uint8_t* restrict table = p->table;
    const int64_t* restrict offsets = p->offsets;
    const int64_t* restrict shifts = p->shifts;
    for (int64_t q = 0; q < p->nd; q++) {
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
}

typedef void (*gather_t)(const spec_plan_t*, const uint8_t*, const int32_t*, int32_t*,
                         uint8_t*, int);

/* Gathers of up to 10 positions with one- or two-member groups (every
 * registered code) run specialised; any other shape runs the same body
 * with runtime bounds. */
#define GATHER(W, M) \
    static void gather_##W##_##M(const spec_plan_t* p, const uint8_t* d, const int32_t* ppq, \
                                 int32_t* pq, uint8_t* fq, int lookup) { \
        gather_row(p, d, ppq, pq, fq, lookup, W, M); \
    }
#define GATHERS(M) GATHER(1, M) GATHER(2, M) GATHER(3, M) GATHER(4, M) GATHER(5, M) \
    GATHER(6, M) GATHER(7, M) GATHER(8, M) GATHER(9, M) GATHER(10, M)
GATHERS(1)
GATHERS(2)
#define GATHER_TABLE(M) {gather_1_##M, gather_2_##M, gather_3_##M, gather_4_##M, \
    gather_5_##M, gather_6_##M, gather_7_##M, gather_8_##M, gather_9_##M, gather_10_##M}
static const gather_t SPECIALISED[2][10] = {GATHER_TABLE(1), GATHER_TABLE(2)};

static void gather_any(const spec_plan_t* p, const uint8_t* d, const int32_t* ppq,
                       int32_t* pq, uint8_t* fq, int lookup) {
    gather_row(p, d, ppq, pq, fq, lookup, p->width, p->members);
}

/* One round's speculation, row by row: detectors, patterns, the table
 * lookup and the accuracy counts.  Leak flags are bit ls of leaked /
 * anc_leaked (0: bool arrays, 2: packed planes).  counts receives false
 * positives, false negatives, true positives, leaked data qubits and
 * leaked ancillas. */
static void spec_step(const spec_plan_t* p, int64_t first, int64_t shots,
                      const uint8_t* restrict meas, const uint8_t* restrict prev,
                      uint8_t* restrict det, int32_t* restrict pat,
                      const int32_t* restrict prev_pat, const uint8_t* restrict leaked,
                      const uint8_t* restrict anc_leaked, int ls,
                      uint8_t* restrict lrc, int64_t* restrict counts) {
    const int64_t nd = p->nd, na = p->na;
    const gather_t gather = p->members >= 1 && p->members <= 2 && p->width >= 1
            && p->width <= 10 ? SPECIALISED[p->members - 1][p->width - 1] : gather_any;
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
        for (int64_t a = 0; a < na; a++) anc_leaks += al[a] >> ls;
        const uint8_t* restrict lq = leaked + r * nd;
        uint8_t* restrict fq = lrc + r * nd;
        gather(p, d, prev_pat + r * nd, pat + r * nd, fq, lookup);
        /* A separate pass vectorises (byte sums); fp and fn follow below. */
        for (int64_t q = 0; q < nd; q++) {
            const uint8_t l = (uint8_t)(lq[q] >> ls);
            lrcs += fq[q];
            leaks += l;
            tp += fq[q] & l;
        }
    }
    counts[0] = lrcs - tp;
    counts[1] = leaks - tp;
    counts[2] = tp;
    counts[3] = leaks;
    counts[4] = anc_leaks;
}

/* The speculation step alone, on bool leak flags. */
void speculate(const spec_plan_t* p, int64_t first, int64_t shots,
               const uint8_t* meas, const uint8_t* prev, uint8_t* det,
               int32_t* pat, const int32_t* prev_pat, const uint8_t* leaked,
               const uint8_t* anc_leaked, uint8_t* lrc, int64_t* counts) {
    spec_step(p, first, shots, meas, prev, det, pat, prev_pat, leaked, anc_leaked, 0,
              lrc, counts);
}

/* The run-constant half of a round (RoundPlan.record).  Optional outputs
 * are NULL when the run does not read them. */
typedef struct {
    int64_t shots, nd, na, layers, uses_mlr, cap, frame_sites;
    const int64_t* layer_start;   /* layers + 1 offsets into the gate arrays */
    const int64_t* gate_data;     /* every layer's data columns, back to back */
    const int64_t* gate_anc;      /* ... and ancilla columns */
    const uint8_t* gate_isz;      /* ... and Z-type flags */
    const uint8_t* meas_frame;    /* the measured frame bit (1 Z-type, 2 X-type) of
                                     frame_sites sites: whole shot rows */
    const spec_plan_t* spec;      /* NULL: the caller runs the speculation step */
    int32_t* sites;               /* three event buffers of cap sites */
    uint64_t* gen;
    uint8_t* data_pack;
    uint8_t* anc_pack;
    uint8_t* data_lrc;            /* the pending data LRCs in, the decision out */
    const uint8_t* anc_lrc;       /* the pending ancilla LRCs, or NULL */
    uint8_t* meas[2];             /* outcomes of even / odd rounds (the other: previous) */
    int32_t* pat[2];              /* patterns of even / odd rounds (likewise) */
    int64_t* ticks;
    uint8_t* detectors;
    uint8_t* mlr_flags;           /* optional */
    uint8_t* data_leaked;         /* optional bool copies of the leak flags */
    uint8_t* anc_leaked;
    int64_t* counts;              /* data LRCs, ancilla LRCs, new leaks, speculation counts */
} round_plan_t;

/* Measurement and MLR on the ancilla plane: the readout-flip row, the fair
 * row of leaked readouts (when random), and for MLR the missed-flag and
 * false-flag rows, marked into plane bits 3-5.  A vectorised pass then
 * reads out every ancilla as if healthy and clears the marks (keeping a
 * leaked ancilla's missed mark); a pass over the leaked ancillas reads
 * them out and resets the correctly flagged ones. */
static void measure(pcg_t* g, const rate_t* rates, const round_plan_t* p, int64_t random,
                    uint8_t* restrict meas) {
    static const rate_t fair = {RATE_FAIR, 0, 0, NULL};
    const int64_t shots = p->shots, na = p->na, n = shots * na;
    uint8_t* restrict ap = p->anc_pack;
    row_t row = draw(g, &rates[R_P], n, p->sites);
    FOR_HITS(row, s) ap[s] |= 8u;
    const row_t coin = draw(g, &fair, random ? n : 0, p->sites + p->cap);
    if (p->uses_mlr) {
        row = draw(g, &rates[R_MLR], n, p->sites);
        FOR_HITS(row, s) ap[s] |= 16u;
        row = draw(g, &rates[R_P], n, p->sites);
        FOR_HITS(row, s) ap[s] |= 32u;
    }
    const uint8_t* restrict frame = p->meas_frame;
    uint8_t* restrict mlr = p->mlr_flags;
    for (int64_t i0 = 0; i0 < n; i0 += p->frame_sites) {
        const int64_t m = n - i0 < p->frame_sites ? n - i0 : p->frame_sites;
        uint8_t* restrict ar = ap + i0;
        uint8_t* restrict mr = meas + i0;
        if (mlr) {
            uint8_t* restrict fr = mlr + i0;
            for (int64_t j = 0; j < m; j++) fr[j] = (uint8_t)((ar[j] >> 5) & 1u);
        }
        for (int64_t j = 0; j < m; j++) {
            const uint8_t v = ar[j];
            mr[j] = (uint8_t)(((v & frame[j]) != 0) ^ ((v >> 3) & 1u));
            ar[j] = (uint8_t)((v & 7u) | (v & ((v & 4u) << 2)));
        }
    }
    for (int64_t i0 = 0; i0 < n; i0 += 8) {
        for (uint64_t w = word8(ap, i0, n, 0x0404040404040404ULL); w;) {
            const int64_t i = i0 + pop_byte(&w);
            meas[i] = random ? fair_bit(coin.words, i) : 1u;
            if (p->uses_mlr) {
                const uint8_t flag = (uint8_t)(((ap[i] >> 4) & 1u) ^ 1u);
                if (mlr) mlr[i] = flag;
                if (flag) ap[i] &= 3u;
            }
            ap[i] &= 7u;
        }
    }
}

/* CLOCK_MONOTONIC ns (time.perf_counter_ns's clock on Linux) into ticks[k]. */
static inline void stamp(int64_t* ticks, int k) {
    if (!ticks) return;
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    ticks[k] = (int64_t)ts.tv_sec * 1000000000LL + (int64_t)ts.tv_nsec;
}

/* One QEC round in place on the plan's planes; rates are the round's
 * records in ROUND_RATES order.  Round r measures into meas[r % 2] and
 * reads meas[(r + 1) % 2] as the previous outcomes (patterns likewise).
 * With traced set, ticks[0..2] receive the ends of the noise, layer and
 * measurement phases; otherwise no clock is read. */
void qec_round(const round_plan_t* p, const rate_t* rates, int64_t round_index,
               int64_t random, int64_t traced) {
    const int64_t odd = round_index & 1;
    uint8_t* meas = p->meas[odd];
    int64_t* ticks = traced ? p->ticks : NULL;
    const int64_t nd = p->shots * p->nd, na = p->shots * p->na, cap = p->cap;
    int32_t* bufs = p->sites;
    int64_t* counts = p->counts;
    int64_t leaks = 0;
    pcg_t g = load(p->gen);
    counts[0] = list_sites(p->data_lrc, nd, bufs + cap);
    if (counts[0]) apply_lrc(&g, rates, p->data_pack, nd, bufs + cap, counts[0], 1, bufs, &leaks);
    counts[1] = p->anc_lrc ? list_sites(p->anc_lrc, na, bufs + cap) : 0;
    if (counts[1]) apply_lrc(&g, rates, p->anc_pack, na, bufs + cap, counts[1], 0, bufs, &leaks);
    round_noise(&g, rates, p->data_pack, nd, p->anc_pack, na, bufs, &leaks);
    stamp(ticks, 0);
    for (int64_t layer = 0; layer < p->layers; layer++) {
        const int64_t lo = p->layer_start[layer], gates = p->layer_start[layer + 1] - lo;
        if (gates)
            cnot_layer(&g, rates, bufs, cap, p->data_pack, p->anc_pack, p->shots, p->nd,
                       p->na, p->gate_data + lo, p->gate_anc + lo, p->gate_isz + lo, gates,
                       &leaks);
    }
    stamp(ticks, 1);
    measure(&g, rates, p, random, meas);
    stamp(ticks, 2);
    store(p->gen, &g);
    counts[2] = leaks;
    if (p->spec)
        spec_step(p->spec, round_index == 0, p->shots, meas, p->meas[odd ^ 1], p->detectors,
                  p->pat[odd], p->pat[odd ^ 1], p->data_pack, p->anc_pack, 2, p->data_lrc,
                  counts + 3);
    if (p->data_leaked)
        for (int64_t i = 0; i < nd; i++) p->data_leaked[i] = p->data_pack[i] >> 2;
    if (p->anc_leaked)
        for (int64_t i = 0; i < na; i++) p->anc_leaked[i] = p->anc_pack[i] >> 2;
}
"""

_lib: ctypes.CDLL | None = None


def _build() -> ctypes.CDLL | None:
    """Compile (or load the cached build of) the kernel library."""
    lib = build(_SOURCE, "simkernels")
    if lib is None:
        return None
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.draw_row.argtypes = [pointer, pointer, pointer, i64, pointer]
    lib.draw_choices.argtypes = [pointer] * 3 + [i64, ctypes.c_uint64, ctypes.c_uint64]
    lib.speculate.argtypes = [pointer, i64, i64] + [pointer] * 9
    lib.qec_round.argtypes = [pointer, pointer, i64, i64, i64]
    for function in (lib.draw_row, lib.draw_choices, lib.speculate, lib.qec_round):
        function.restype = None
    lib.gap_table.argtypes = [ctypes.c_uint64, pointer, i64]
    lib.gap_table.restype = i64
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


def gap_table(keep: int, limit: int) -> np.ndarray:
    """The gap table of :func:`repro.sim.draws.rate` for ``keep``
    (``2**64 - ceil(p * 2**64)``), at most ``limit`` entries, as uint64."""
    assert _lib is not None and 0 < keep < 1 << 64
    table = np.empty(limit, dtype=np.uint64)
    return table[: _lib.gap_table(keep, table.ctypes.data, limit)].copy()


def draw_row(gen_address: int, rate_address: int, out: np.ndarray) -> None:
    """Fill the C-contiguous uint8 ``out`` with one Bernoulli row.

    The row is drawn by the round's own sampler (``draw``, then a walk over
    its hits).  Callers pass raw addresses for the generator and the rate
    record (resolved once per run): ``.ctypes`` costs microseconds a call.
    """
    assert _lib is not None and out.flags.c_contiguous and out.dtype == np.uint8
    # draw()'s scratch: n int32 event sites or (n + 63) // 64 u64 fair words
    # (two int32 at n = 1), 8-byte aligned.
    scratch = np.empty(max(-(-out.size // 2), -(-out.size // 64)), dtype=np.uint64)
    _lib.draw_row(gen_address, rate_address, out.ctypes.data, out.size, scratch.ctypes.data)


def draw_choices(
    gen_address: int, where: np.ndarray, out: np.ndarray, low: int, span: int
) -> None:
    """``out = low + raw % span`` at the nonzero sites of ``where``, else 0."""
    assert _lib is not None and where.shape == out.shape and span >= 1
    assert where.flags.c_contiguous and out.flags.c_contiguous
    _lib.draw_choices(gen_address, where.ctypes.data, out.ctypes.data, out.size, low, span)


class SpeculatePlan:
    """The run-constant half of the speculation step, resolved once per run.

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
    """The speculation step alone, in place (:func:`qec_round` runs it on the
    packed planes).

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


class RoundPlan:
    """The run-constant half of :func:`qec_round`, resolved once per run.

    ``layers`` lists each entangling layer's ``(data_idx, anc_idx, is_z)``
    gate columns; ``measure_frame`` (``(num_ancilla,)``) the frame bit each
    ancilla's readout takes (1: X frame, for Z-type checks; 2: Z frame),
    which the plan tiles over whole shot rows so the readout pass runs flat.
    The buffers are the run's: the packed planes ``data_pack`` /
    ``anc_pack``; the pending-LRC masks (``data_lrc`` also receives a
    lookup policy's decision; ``anc_lrc`` is ``None`` for a policy that
    emits no ancilla LRCs); ``measurements`` and ``patterns``, the pairs
    even rounds / odd rounds write (each round reads the other one as the
    previous round's); ``detectors``; ``ticks`` (int64[4], of which the
    call stamps the first three); and ``counts``
    (int64[8]: data LRCs, ancilla LRCs and new leaks of the round, then
    the five :func:`speculate` counts).  ``speculate`` is ``None`` when the
    caller runs the speculation step; ``mlr_flags``, ``data_leaked`` and
    ``anc_leaked`` are optional bool outputs for a caller that reads them.
    The plan owns the round's event buffers and holds every array it
    points at.
    """

    def __init__(
        self,
        *,
        gen_address: int,
        layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        measure_frame: np.ndarray,
        speculate: SpeculatePlan | None,
        uses_mlr: bool,
        data_pack: np.ndarray,
        anc_pack: np.ndarray,
        data_lrc: np.ndarray,
        anc_lrc: np.ndarray | None,
        measurements: tuple[np.ndarray, np.ndarray],
        patterns: tuple[np.ndarray, np.ndarray],
        detectors: np.ndarray,
        mlr_flags: np.ndarray | None,
        data_leaked: np.ndarray | None,
        anc_leaked: np.ndarray | None,
        ticks: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        shots, num_data = data_pack.shape
        num_ancilla = anc_pack.shape[1]
        # Three event buffers of one register's sites each; an even length
        # keeps every buffer 8-byte aligned for a fair row's output words.
        cap = shots * max(num_data, num_ancilla)
        assert cap < 2**31, "event sites are int32"
        cap += cap % 2
        self._sites = np.empty(3 * cap, dtype=np.int32)
        gate_counts = [len(data_idx) for data_idx, _, _ in layers]
        # About 2 KiB of readout frame: a whole number of shot rows.
        frame_rows = min(shots, max(1, 2048 // num_ancilla))
        arrays = [
            np.concatenate([[0], np.cumsum(gate_counts)]).astype(np.int64),
            np.concatenate([data_idx for data_idx, _, _ in layers]).astype(np.int64),
            np.concatenate([anc_idx for _, anc_idx, _ in layers]).astype(np.int64),
            np.concatenate([is_z for _, _, is_z in layers]).astype(np.uint8),
            np.tile(np.asarray(measure_frame, dtype=np.uint8), frame_rows),
        ]
        data_shape, anc_shape = (shots, num_data), (shots, num_ancilla)
        for plane in (data_pack, anc_pack):
            assert plane.dtype == np.uint8 and plane.flags.c_contiguous
        bytemaps = [
            ("data_lrc", data_lrc, data_shape),
            ("anc_lrc", anc_lrc, anc_shape),
            *(("measurements", m, anc_shape) for m in measurements),
            ("detectors", detectors, anc_shape),
            ("mlr_flags", mlr_flags, anc_shape),
            ("data_leaked", data_leaked, data_shape),
            ("anc_leaked", anc_leaked, anc_shape),
        ]
        for name, buffer, shape in bytemaps:
            if buffer is None:
                continue
            assert buffer.shape == shape and buffer.dtype.itemsize == 1, name
            assert buffer.flags.c_contiguous, name
            # The planes are restrict-qualified in C: a buffer sharing their
            # memory would be undefined behaviour, not just a wrong answer.
            for plane in (data_pack, anc_pack):
                assert not np.may_share_memory(buffer, plane), f"{name} aliases a plane"
        for pattern in patterns:
            assert pattern.shape == data_shape and pattern.dtype == np.int32
            assert pattern.flags.c_contiguous
        assert ticks.dtype == np.int64 and ticks.shape == (4,)
        assert counts.dtype == np.int64 and counts.shape == (8,)

        def address(array: np.ndarray | None) -> int:
            return 0 if array is None else array.ctypes.data

        self._arrays = (arrays, speculate, data_pack, anc_pack, bytemaps, patterns, ticks, counts)
        self.speculates = speculate is not None
        self.record = np.array(
            [shots, num_data, num_ancilla, len(layers), int(uses_mlr), cap]
            + [frame_rows * num_ancilla]
            + [address(array) for array in arrays]
            + [0 if speculate is None else speculate.address, address(self._sites)]
            + [gen_address, address(data_pack), address(anc_pack)]
            + [address(data_lrc), address(anc_lrc)]
            + [address(m) for m in measurements] + [address(p) for p in patterns]
            + [address(ticks), address(detectors), address(mlr_flags)]
            + [address(data_leaked), address(anc_leaked), address(counts)],
            dtype=np.uint64,
        )
        assert self.record.shape == (29,)  # the words of round_plan_t
        self.address = self.record.ctypes.data


def qec_round(
    plan: RoundPlan, rates_address: int, round_index: int, readout_leak_random: bool,
    traced: bool,
) -> None:
    """One QEC round on ``plan``'s buffers, in one call.

    ``rates_address`` points at the round's rate records, in
    :data:`ROUND_RATES` order (:func:`repro.sim.draws.round_rates`).
    Writes the round's measurement (``plan``'s ``measurements[round_index
    % 2]``) and counts; with a speculation plan also the detectors, the
    patterns and the decision.  ``traced`` stamps the plan's ``ticks[:3]``
    with the ``CLOCK_MONOTONIC`` ns at the end of the noise, layer and
    measurement phases; otherwise no clock is read.
    """
    assert _lib is not None
    _lib.qec_round(plan.address, rates_address, round_index, readout_leak_random, traced)
