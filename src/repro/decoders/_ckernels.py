"""Optional runtime-compiled C kernels for the decoder hot path.

The interpreted decoder loops that dominate batched decoding once the
NumPy-level work is vectorised all follow the :mod:`repro.sim._ckernels`
pattern — compiled on demand by :func:`repro._cbuild.build`, cached, with
bit-identical NumPy/Python fallbacks when no compiler is available:

* **Batch syndrome hashing.**  Deduplication
  (:meth:`~repro.decoders.base.DecoderBase._deduplicate`) has to group
  identical packed syndrome rows; ``np.unique(..., axis=0)`` lex-sorts the
  full ``(shots, nbytes)`` matrix.  ``hash_rows`` collapses each row to one
  FNV-1a 64-bit value in a single pass so the grouping runs on a flat
  uint64 vector instead.  The caller verifies the grouping against the raw
  rows (collisions demote to the exact path), so hashing never changes
  results — only the representative *order*, which the inverse-scatter
  erases.
* **One compiled decode entry.**  ``decode_rows`` is the only decode call
  the Python side makes, for both decoders and every graph size: it takes
  CSR fired-node rows (a batch's uncached syndromes, or the one row of a
  per-shot miss), decodes each with one of the two static C helpers below
  and returns CSR edges, parities and a per-row status.  Its entries equal
  the interpreted path's edge for edge; the rows it defers go to that path.
* **Exact matching** (``decode_syndrome``, static).  One row runs cost
  extraction, the analytic 1/2-detector rules, the matching, the
  predecessor retrace and the logical parity, emitting the exact edge
  sequence of :class:`~repro.decoders.matching.MatchingDecoder`'s
  interpreted path.  Each fired detector reads its distance and
  predecessor rows through a row index: the pinned all-pairs matrices of a
  graph under the all-pairs gate (rows = the fired node ids, so nothing is
  copied per syndrome), or, past it, the syndrome's own dijkstra rows
  (rows = ``0..count-1``, one ``decode_rows`` call per row).  Each
  retraced edge's logical-flip bit comes from the graph's CSR
  (:class:`GraphContext`), read at the endpoint that is not the boundary
  node.  The matching itself:

  - *3..8 detectors*: a bitmask DP, the line-for-line mirror of
    ``MatchingDecoder._dp_matching`` — same mask iteration order, same
    lowest-free-bit commit, same strict ``<`` tie-breaking, same IEEE
    double arithmetic — so the chosen pairs (not just their weight) are
    the Python DP's.
  - *9+ detectors*: a line-for-line port of networkx 3.6.1's
    ``max_weight_matching(G, maxcardinality=True)`` on its float-weight
    path over exactly the graph ``matching._networkx_matching`` builds:
    the same node order (``d0..dn-1`` then ``b0..bn-1``), the same
    neighbour (edge insertion) order, the same ``1e9 - cost`` weights, the
    same dict iteration orders (blossoms in creation order, ``bestedgeto``
    in first insertion order, ``leaves()`` in stack order) and the same
    IEEE double operations in the same order.  The matched pair *set*,
    orientation included, is therefore networkx's, ties too.  Before the
    port, networkx blossom was ~62% of the durable sweep's shard compute
    (~3.7 ms per call at a median of 12 fired detectors, on a shared
    2-vCPU x86-64 host).

  The DP's infinite dead end and any non-finite blossom cost defer the
  row to the interpreted path (the Python DP, which demotes to greedy, or
  networkx), so inf/NaN semantics stay out of the port.  Matched pairs
  leave the blossom port in one canonical order: by ascending lower
  detector index, each pair oriented as networkx's
  ``matching_dict_to_set`` reports it (so the entry never depends on
  ``PYTHONHASHSEED``).
* **Union-find** (``uf_decode``, static).  One row runs
  :class:`~repro.decoders.union_find.UnionFindDecoder`'s cluster growth,
  peeling and parity line for line over the same :class:`GraphContext`
  CSR.  The Python algorithm's output depends on CPython's ``set``
  iteration order for ints (the fired set fixes cluster order, each
  member set the frontier order, its first slot the peeling root), so the
  kernel rebuilds each such set's slot layout — ``hash(n) == n``, 8
  initial slots, 9 linear probes then perturbed probing, growth to the
  next power of two above ``4 * used`` — and the entry is the interpreted
  one, edge for edge (iterating in insertion order instead changed the
  logical parity of 46 in 900 random 1-19 detector colour d=5 syndromes,
  and of 278 in 900 toric ones).  A load-time self-check compares the
  emulation with ``list(set(...))`` on fixed add sequences and, on
  disagreement (a future CPython changing its set layout), disables only
  the union-find rows; :func:`intset_order` exposes the emulation to the
  tests.

Work buffers are per-thread and grown on demand, so syndromes of any size
and the realtime worker threads are both safe; a call's output buffers
live only for that call.

Gating: set ``REPRO_DECODER_CKERNELS=0`` to force the fallbacks; when that
variable is unset the sim-wide ``REPRO_SIM_CKERNELS`` switch applies, so
one variable still disables every compiled kernel in the repo.
"""

from __future__ import annotations

import ctypes
import operator
import os
import threading
from collections.abc import Callable, Sequence

import numpy as np

from .._cbuild import build

__all__ = [
    "available",
    "hash_rows",
    "GraphContext",
    "uf_available",
    "decode_rows",
    "intset_order",
]

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* FNV-1a 64-bit over each row of a (rows, nbytes) uint8 matrix. */
void hash_rows(const uint8_t* data, int64_t rows, int64_t nbytes,
               uint64_t* out) {
    for (int64_t r = 0; r < rows; r++) {
        const uint8_t* p = data + r * nbytes;
        uint64_t h = 14695981039346656037ULL;
        for (int64_t b = 0; b < nbytes; b++) {
            h ^= (uint64_t)p[b];
            h *= 1099511628211ULL;
        }
        out[r] = h;
    }
}

/* Exact minimum-weight matching by DP over matched-detector subsets for
 * 1..8 detectors: the line-for-line mirror of MatchingDecoder._dp_matching.
 * boundary_cost is double[count], pair_cost double[count*count]; out_pairs
 * receives up to count (i, j) index pairs with j == -1 meaning "matched to
 * the boundary", in the Python retrace order (full mask walking back to
 * empty).  Returns the number of pairs, or -1 when every complete matching
 * has infinite cost (the Python DP then falls back to greedy). */
static int32_t dp_match(int32_t count, const double* boundary_cost,
                        const double* pair_cost, int32_t* out_pairs) {
    int32_t size = 1 << count;
    double best[256];
    /* prev[0..size) is set below; zeroed for -Wmaybe-uninitialized. */
    int32_t prev[256] = {0}, pick_i[256], pick_j[256];
    for (int32_t m = 0; m < size; m++) { best[m] = INFINITY; prev[m] = -1; }
    best[0] = 0.0;
    for (int32_t mask = 0; mask < size - 1; mask++) {
        double cost = best[mask];
        /* !(cost < inf) == Python's `cost == infinite`: costs are never NaN
         * (finite + inf stays inf), so the two predicates agree exactly. */
        if (!(cost < INFINITY)) continue;
        int32_t free_bits = ~mask & (size - 1);
        int32_t low = free_bits & -free_bits;
        int32_t i = __builtin_ctz((unsigned)low);
        int32_t with_boundary = mask | low;
        double cand = cost + boundary_cost[i];
        if (cand < best[with_boundary]) {
            best[with_boundary] = cand;
            prev[with_boundary] = mask;
            pick_i[with_boundary] = i;
            pick_j[with_boundary] = -1;
        }
        int32_t rest = free_bits ^ low;
        while (rest) {
            int32_t pb = rest & -rest;
            int32_t j = __builtin_ctz((unsigned)pb);
            int32_t with_pair = mask | low | pb;
            cand = cost + pair_cost[(int64_t)i * count + j];
            if (cand < best[with_pair]) {
                best[with_pair] = cand;
                prev[with_pair] = mask;
                pick_i[with_pair] = i;
                pick_j[with_pair] = j;
            }
            rest ^= pb;
        }
    }
    if (prev[size - 1] < 0) return -1;
    int32_t pairs = 0;
    int32_t mask = size - 1;
    while (mask) {
        out_pairs[2 * pairs] = pick_i[mask];
        out_pairs[2 * pairs + 1] = pick_j[mask];
        pairs++;
        mask = prev[mask];
    }
    return pairs;
}

/* ------------------------------------------------------------------------
 * Blossom matching: a line-for-line port of networkx 3.6.1
 * max_weight_matching(G, maxcardinality=True) on its float-weight path,
 * over the virtual-boundary graph of matching._networkx_matching.
 *
 * Node ids follow networkx's node order: detector copy d_i is i, boundary
 * copy b_i is n + i (V = 2n vertices).  Non-trivial blossoms take ids
 * V..V+bcap-1 from a free list; `live` keeps them in creation order, which
 * is the iteration order of networkx's blossomdual / blossomparent dicts.
 * Python's None is -1 (edges, parents, mates) or 0 (labels).
 * ---------------------------------------------------------------------- */

typedef struct {
    int32_t n, V, T, bcap;
    double *W;        /* V*V edge weights (only real edges are read) */
    double *dual;     /* dualvar, V */
    double *bdual;    /* blossomdual, indexed by id, T */
    double *bcost;    /* decode_syndrome's cost extraction, n */
    double *pcost;    /* n*n */
    int32_t *adj;     /* V*n neighbour lists in G.neighbors() order */
    int32_t *label, *le_v, *le_w, *be_v, *be_w, *parent, *base;  /* T */
    int32_t *inb, *mate, *serial;                                /* V */
    int32_t *nchilds, *nbest, *alive;                            /* bcap */
    int32_t *childs, *edge_v, *edge_w, *best_v, *best_w;         /* bcap*V */
    int32_t *live, *freelist;                                    /* bcap */
    int32_t *queue, *stack, *leaves, *path, *tmp;
    int32_t *bt_v, *bt_w, *bt_has, *bt_order;                   /* T */
    uint32_t *allow;                                             /* V*V */
    int32_t nlive, nfree, nqueue, mate_count;
    uint32_t stage;
} BM;

static int64_t bm_layout(BM* s, char* mem, int32_t n) {
    int64_t V = 2 * (int64_t)n, bcap = n + 1, T = V + bcap, off = 0;
#define TAKE(field, type, count) do { \
        if (mem) s->field = (type*)(mem + off); \
        off += ((int64_t)(count) * (int64_t)sizeof(type) + 7) & ~(int64_t)7; \
    } while (0)
    TAKE(W, double, V * V); TAKE(dual, double, V); TAKE(bdual, double, T);
    TAKE(bcost, double, n); TAKE(pcost, double, (int64_t)n * n);
    TAKE(adj, int32_t, V * n);
    TAKE(label, int32_t, T); TAKE(le_v, int32_t, T); TAKE(le_w, int32_t, T);
    TAKE(be_v, int32_t, T); TAKE(be_w, int32_t, T);
    TAKE(parent, int32_t, T); TAKE(base, int32_t, T);
    TAKE(inb, int32_t, V); TAKE(mate, int32_t, V); TAKE(serial, int32_t, V);
    TAKE(nchilds, int32_t, bcap); TAKE(nbest, int32_t, bcap);
    TAKE(alive, int32_t, bcap);
    TAKE(childs, int32_t, bcap * V); TAKE(edge_v, int32_t, bcap * V);
    TAKE(edge_w, int32_t, bcap * V); TAKE(best_v, int32_t, bcap * V);
    TAKE(best_w, int32_t, bcap * V);
    TAKE(live, int32_t, bcap); TAKE(freelist, int32_t, bcap);
    TAKE(queue, int32_t, 2 * V + 8); TAKE(stack, int32_t, T);
    TAKE(leaves, int32_t, V); TAKE(path, int32_t, T); TAKE(tmp, int32_t, V);
    TAKE(bt_v, int32_t, T); TAKE(bt_w, int32_t, T); TAKE(bt_has, int32_t, T);
    TAKE(bt_order, int32_t, T);
    TAKE(allow, uint32_t, V * V);
#undef TAKE
    if (mem) {
        s->n = n; s->V = (int32_t)V; s->bcap = (int32_t)bcap; s->T = (int32_t)T;
    }
    return off;
}

/* Bytes of work buffer decode_syndrome needs for n detectors. */
int64_t match_work_bytes(int32_t n) {
    BM s;
    return bm_layout(&s, 0, n);
}

#define SLOT(s, b) ((int64_t)((b) - (s)->V) * (s)->V)
#define WRAP(j, len) ((j) < 0 ? (j) + (len) : (j))

/* 2 * slack of edge (v, w): dualvar[v] + dualvar[w] - 2 * weight. */
static inline double bm_slack(const BM* s, int32_t v, int32_t w) {
    return (s->dual[v] + s->dual[w]) - 2.0 * s->W[(int64_t)v * s->V + w];
}

static inline int bm_allowed(const BM* s, int32_t v, int32_t w) {
    return s->allow[(int64_t)v * s->V + w] == s->stage;
}

static inline void bm_allow(BM* s, int32_t v, int32_t w) {
    s->allow[(int64_t)v * s->V + w] = s->stage;
    s->allow[(int64_t)w * s->V + v] = s->stage;
}

/* mate[x] = y, remembering first-insertion order (the mate dict's key
 * order, which decides each pair's orientation in matching_dict_to_set). */
static inline void bm_set_mate(BM* s, int32_t x, int32_t y) {
    if (s->mate[x] < 0) s->serial[x] = s->mate_count++;
    s->mate[x] = y;
}

static int32_t bm_index(const int32_t* list, int32_t len, int32_t x) {
    for (int32_t k = 0; k < len; k++)
        if (list[k] == x) return k;
    return -1;
}

/* Blossom.leaves(): stack order (pop from the end, push childs in order). */
static int32_t bm_leaves(BM* s, int32_t b, int32_t* out) {
    int32_t sp = 0, cnt = 0;
    const int32_t* ch = s->childs + SLOT(s, b);
    for (int32_t k = 0; k < s->nchilds[b - s->V]; k++) s->stack[sp++] = ch[k];
    while (sp) {
        int32_t t = s->stack[--sp];
        if (t >= s->V) {
            const int32_t* tc = s->childs + SLOT(s, t);
            for (int32_t k = 0; k < s->nchilds[t - s->V]; k++) s->stack[sp++] = tc[k];
        } else {
            out[cnt++] = t;
        }
    }
    return cnt;
}

static void bm_assign_label(BM* s, int32_t w, int32_t t, int32_t v) {
    int32_t b = s->inb[w];
    s->label[w] = s->label[b] = t;
    s->le_v[w] = s->le_v[b] = v;
    s->le_w[w] = s->le_w[b] = v < 0 ? -1 : w;
    s->be_v[w] = s->be_v[b] = -1;
    s->be_w[w] = s->be_w[b] = -1;
    if (t == 1) {
        if (b >= s->V) s->nqueue += bm_leaves(s, b, s->queue + s->nqueue);
        else s->queue[s->nqueue++] = b;
    } else if (t == 2) {
        int32_t base = s->base[b];
        bm_assign_label(s, s->mate[base], 1, base);
    }
}

static int32_t bm_scan_blossom(BM* s, int32_t v, int32_t w) {
    int32_t npath = 0, base = -1;
    while (v >= 0) {
        int32_t b = s->inb[v];
        if (s->label[b] & 4) { base = s->base[b]; break; }
        s->path[npath++] = b;
        s->label[b] = 5;
        if (s->le_v[b] < 0) {
            v = -1;
        } else {
            v = s->le_v[b];
            b = s->inb[v];
            v = s->le_v[b];
        }
        if (w >= 0) { int32_t t = v; v = w; w = t; }
    }
    for (int32_t k = 0; k < npath; k++) s->label[s->path[k]] = 1;
    return base;
}

/* One candidate (i, j) of addBlossom's bestedgeto scan; k = (ki, kj) is
 * stored in its original orientation, as the Python does. */
static inline void bm_best_to(BM* s, int32_t b, int32_t ki, int32_t kj,
                              int32_t* nbt) {
    int32_t i = ki, j = kj;
    if (s->inb[j] == b) { i = kj; j = ki; }
    int32_t bj = s->inb[j];
    if (bj != b && s->label[bj] == 1
        && (!s->bt_has[bj] || bm_slack(s, i, j) < bm_slack(s, s->bt_v[bj], s->bt_w[bj]))) {
        if (!s->bt_has[bj]) { s->bt_has[bj] = 1; s->bt_order[(*nbt)++] = bj; }
        s->bt_v[bj] = ki;
        s->bt_w[bj] = kj;
    }
}

static void bm_add_blossom(BM* s, int32_t base, int32_t v, int32_t w) {
    const int32_t V = s->V, n = s->n;
    int32_t bb = s->inb[base], bv = s->inb[v], bw = s->inb[w];
    int32_t b = V + s->freelist[--s->nfree];
    s->alive[b - V] = 1;
    s->live[s->nlive++] = b;
    s->base[b] = base;
    s->parent[b] = -1;
    s->parent[bb] = b;
    int32_t *ch = s->childs + SLOT(s, b), *ev = s->edge_v + SLOT(s, b),
            *ew = s->edge_w + SLOT(s, b);
    int32_t nc = 0, ne = 0;
    ev[ne] = v; ew[ne] = w; ne++;
    while (bv != bb) {
        s->parent[bv] = b;
        ch[nc++] = bv;
        ev[ne] = s->le_v[bv]; ew[ne] = s->le_w[bv]; ne++;
        v = s->le_v[bv];
        bv = s->inb[v];
    }
    ch[nc++] = bb;
    for (int32_t a = 0, z = nc - 1; a < z; a++, z--) {
        int32_t t = ch[a]; ch[a] = ch[z]; ch[z] = t;
    }
    for (int32_t a = 0, z = ne - 1; a < z; a++, z--) {
        int32_t t = ev[a]; ev[a] = ev[z]; ev[z] = t;
        t = ew[a]; ew[a] = ew[z]; ew[z] = t;
    }
    while (bw != bb) {
        s->parent[bw] = b;
        ch[nc++] = bw;
        ev[ne] = s->le_w[bw]; ew[ne] = s->le_v[bw]; ne++;
        w = s->le_v[bw];
        bw = s->inb[w];
    }
    s->nchilds[b - V] = nc;
    s->label[b] = 1;
    s->le_v[b] = s->le_v[bb];
    s->le_w[b] = s->le_w[bb];
    s->bdual[b] = 0.0;
    int32_t nl = bm_leaves(s, b, s->leaves);
    for (int32_t k = 0; k < nl; k++) {
        int32_t x = s->leaves[k];
        if (s->label[s->inb[x]] == 2) s->queue[s->nqueue++] = x;
        s->inb[x] = b;
    }
    /* b.mybestedges from the sub-blossoms' lists or their vertices. */
    int32_t nbt = 0;
    for (int32_t k = 0; k < nc; k++) {
        int32_t sb = ch[k];
        if (sb >= V && s->nbest[sb - V] >= 0) {
            const int32_t *lv = s->best_v + SLOT(s, sb), *lw = s->best_w + SLOT(s, sb);
            int32_t cnt = s->nbest[sb - V];
            s->nbest[sb - V] = -1;
            for (int32_t e = 0; e < cnt; e++) bm_best_to(s, b, lv[e], lw[e], &nbt);
        } else if (sb >= V) {
            int32_t cnt = bm_leaves(s, sb, s->leaves);
            for (int32_t e = 0; e < cnt; e++) {
                int32_t x = s->leaves[e];
                for (int32_t a = 0; a < n; a++)
                    bm_best_to(s, b, x, s->adj[(int64_t)x * n + a], &nbt);
            }
        } else {
            for (int32_t a = 0; a < n; a++)
                bm_best_to(s, b, sb, s->adj[(int64_t)sb * n + a], &nbt);
        }
        s->be_v[sb] = s->be_w[sb] = -1;
    }
    int32_t *mv = s->best_v + SLOT(s, b), *mw = s->best_w + SLOT(s, b);
    s->nbest[b - V] = nbt;
    for (int32_t k = 0; k < nbt; k++) {
        int32_t bj = s->bt_order[k];
        mv[k] = s->bt_v[bj];
        mw[k] = s->bt_w[bj];
        s->bt_has[bj] = 0;
    }
    int32_t best = -1;
    double best_slack = 0.0;
    for (int32_t k = 0; k < nbt; k++) {
        double ks = bm_slack(s, mv[k], mw[k]);
        if (best < 0 || ks < best_slack) { best = k; best_slack = ks; }
    }
    s->be_v[b] = best < 0 ? -1 : mv[best];
    s->be_w[b] = best < 0 ? -1 : mw[best];
}

static void bm_expand_blossom(BM* s, int32_t b, int endstage) {
    const int32_t V = s->V;
    const int32_t *ch = s->childs + SLOT(s, b), *ev = s->edge_v + SLOT(s, b),
                  *ew = s->edge_w + SLOT(s, b);
    const int32_t nc = s->nchilds[b - V];
    for (int32_t k = 0; k < nc; k++) {
        int32_t sb = ch[k];
        s->parent[sb] = -1;
        if (sb >= V) {
            if (endstage && s->bdual[sb] == 0.0) {
                bm_expand_blossom(s, sb, endstage);
            } else {
                int32_t nl = bm_leaves(s, sb, s->leaves);
                for (int32_t e = 0; e < nl; e++) s->inb[s->leaves[e]] = sb;
            }
        } else {
            s->inb[sb] = sb;
        }
    }
    if (!endstage && s->label[b] == 2) {
        int32_t entry = s->inb[s->le_w[b]];
        int32_t j = bm_index(ch, nc, entry), jstep;
        if (j & 1) { j -= nc; jstep = 1; } else { jstep = -1; }
        int32_t v = s->le_v[b], w = s->le_w[b], p, q;
        while (j != 0) {
            if (jstep == 1) { p = ev[WRAP(j, nc)]; q = ew[WRAP(j, nc)]; }
            else { q = ev[WRAP(j - 1, nc)]; p = ew[WRAP(j - 1, nc)]; }
            s->label[w] = 0;
            s->label[q] = 0;
            bm_assign_label(s, w, 2, v);
            bm_allow(s, p, q);
            j += jstep;
            if (jstep == 1) { v = ev[WRAP(j, nc)]; w = ew[WRAP(j, nc)]; }
            else { w = ev[WRAP(j - 1, nc)]; v = ew[WRAP(j - 1, nc)]; }
            bm_allow(s, v, w);
            j += jstep;
        }
        int32_t bw = ch[WRAP(j, nc)];
        s->label[w] = s->label[bw] = 2;
        s->le_v[w] = s->le_v[bw] = v;
        s->le_w[w] = s->le_w[bw] = w;
        s->be_v[bw] = s->be_w[bw] = -1;
        j += jstep;
        while (ch[WRAP(j, nc)] != entry) {
            int32_t bv = ch[WRAP(j, nc)];
            if (s->label[bv] == 1) { j += jstep; continue; }
            int32_t x = -1;
            if (bv >= V) {
                int32_t nl = bm_leaves(s, bv, s->leaves);
                for (int32_t e = 0; e < nl; e++)
                    if (s->label[s->leaves[e]]) { x = s->leaves[e]; break; }
            } else if (s->label[bv]) {
                x = bv;
            }
            if (x >= 0) {
                s->label[x] = 0;
                s->label[s->mate[s->base[bv]]] = 0;
                bm_assign_label(s, x, 2, s->le_v[x]);
            }
            j += jstep;
        }
    }
    /* Remove the expanded blossom entirely. */
    s->label[b] = 0;
    s->le_v[b] = s->le_w[b] = -1;
    s->be_v[b] = s->be_w[b] = -1;
    s->nbest[b - V] = -1;
    s->alive[b - V] = 0;
    s->freelist[s->nfree++] = b - V;
    int32_t at = bm_index(s->live, s->nlive, b);
    memmove(s->live + at, s->live + at + 1, (size_t)(s->nlive - at - 1) * sizeof(int32_t));
    s->nlive--;
}

static void bm_rotate(int32_t* list, int32_t len, int32_t by, int32_t* tmp) {
    if (by == 0) return;
    memcpy(tmp, list, (size_t)by * sizeof(int32_t));
    memmove(list, list + by, (size_t)(len - by) * sizeof(int32_t));
    memcpy(list + len - by, tmp, (size_t)by * sizeof(int32_t));
}

static void bm_augment_blossom(BM* s, int32_t b, int32_t v) {
    const int32_t V = s->V;
    int32_t t = v;
    while (s->parent[t] != b) t = s->parent[t];
    if (t >= V) bm_augment_blossom(s, t, v);
    int32_t *ch = s->childs + SLOT(s, b), *ev = s->edge_v + SLOT(s, b),
            *ew = s->edge_w + SLOT(s, b);
    const int32_t nc = s->nchilds[b - V];
    int32_t i = bm_index(ch, nc, t), j = i, jstep;
    if (i & 1) { j -= nc; jstep = 1; } else { jstep = -1; }
    while (j != 0) {
        int32_t w, x;
        j += jstep;
        t = ch[WRAP(j, nc)];
        if (jstep == 1) { w = ev[WRAP(j, nc)]; x = ew[WRAP(j, nc)]; }
        else { x = ev[WRAP(j - 1, nc)]; w = ew[WRAP(j - 1, nc)]; }
        if (t >= V) bm_augment_blossom(s, t, w);
        j += jstep;
        t = ch[WRAP(j, nc)];
        if (t >= V) bm_augment_blossom(s, t, x);
        bm_set_mate(s, w, x);
        bm_set_mate(s, x, w);
    }
    bm_rotate(ch, nc, i, s->tmp);
    bm_rotate(ev, nc, i, s->tmp);
    bm_rotate(ew, nc, i, s->tmp);
    s->base[b] = s->base[ch[0]];
}

static void bm_augment_matching(BM* s, int32_t v, int32_t w) {
    for (int pass = 0; pass < 2; pass++) {
        int32_t sv = pass ? w : v, j = pass ? v : w;
        for (;;) {
            int32_t bs = s->inb[sv];
            if (bs >= s->V) bm_augment_blossom(s, bs, sv);
            bm_set_mate(s, sv, j);
            if (s->le_v[bs] < 0) break;
            int32_t t = s->le_v[bs];
            int32_t bt = s->inb[t];
            sv = s->le_v[bt];
            j = s->le_w[bt];
            if (bt >= s->V) bm_augment_blossom(s, bt, j);
            bm_set_mate(s, j, sv);
        }
    }
}

static void bm_solve(BM* s) {
    const int32_t V = s->V, n = s->n, T = s->T;
    for (;;) {
        /* A stage: clear labels, least-slack edges and allowable edges. */
        for (int32_t x = 0; x < T; x++) {
            s->label[x] = 0;
            s->le_v[x] = s->le_w[x] = -1;
            s->be_v[x] = s->be_w[x] = -1;
        }
        for (int32_t k = 0; k < s->nlive; k++) s->nbest[s->live[k] - V] = -1;
        s->stage++;
        s->nqueue = 0;
        for (int32_t v = 0; v < V; v++)
            if (s->mate[v] < 0 && s->label[s->inb[v]] == 0) bm_assign_label(s, v, 1, -1);
        int augmented = 0;
        for (;;) {
            /* A substage: label until an augmenting path or a dead end. */
            while (s->nqueue && !augmented) {
                int32_t v = s->queue[--s->nqueue];
                const int32_t* nbrs = s->adj + (int64_t)v * n;
                for (int32_t a = 0; a < n; a++) {
                    int32_t w = nbrs[a];
                    int32_t bv = s->inb[v], bw = s->inb[w];
                    if (bv == bw) continue;
                    double kslack = 0.0;
                    if (!bm_allowed(s, v, w)) {
                        kslack = bm_slack(s, v, w);
                        if (kslack <= 0) bm_allow(s, v, w);
                    }
                    if (bm_allowed(s, v, w)) {
                        if (s->label[bw] == 0) {
                            bm_assign_label(s, w, 2, v);
                        } else if (s->label[bw] == 1) {
                            int32_t base = bm_scan_blossom(s, v, w);
                            if (base >= 0) {
                                bm_add_blossom(s, base, v, w);
                            } else {
                                bm_augment_matching(s, v, w);
                                augmented = 1;
                                break;
                            }
                        } else if (s->label[w] == 0) {
                            s->label[w] = 2;
                            s->le_v[w] = v;
                            s->le_w[w] = w;
                        }
                    } else if (s->label[bw] == 1) {
                        if (s->be_v[bv] < 0 || kslack < bm_slack(s, s->be_v[bv], s->be_w[bv])) {
                            s->be_v[bv] = v;
                            s->be_w[bv] = w;
                        }
                    } else if (s->label[w] == 0) {
                        if (s->be_v[w] < 0 || kslack < bm_slack(s, s->be_v[w], s->be_w[w])) {
                            s->be_v[w] = v;
                            s->be_w[w] = w;
                        }
                    }
                }
            }
            if (augmented) break;

            int deltatype = -1;
            double delta = 0.0;
            int32_t dv = -1, dw = -1, dblossom = -1;
            /* delta2: least slack between an S-vertex and a free vertex. */
            for (int32_t v = 0; v < V; v++) {
                if (s->label[s->inb[v]] == 0 && s->be_v[v] >= 0) {
                    double d = bm_slack(s, s->be_v[v], s->be_w[v]);
                    if (deltatype == -1 || d < delta) {
                        delta = d; deltatype = 2; dv = s->be_v[v]; dw = s->be_w[v];
                    }
                }
            }
            /* delta3: half the least slack between two S-blossoms, in
             * blossomparent order (vertices, then blossoms by creation). */
            for (int32_t k = 0; k < V + s->nlive; k++) {
                int32_t b = k < V ? k : s->live[k - V];
                if (s->parent[b] < 0 && s->label[b] == 1 && s->be_v[b] >= 0) {
                    double d = bm_slack(s, s->be_v[b], s->be_w[b]) / 2.0;
                    if (deltatype == -1 || d < delta) {
                        delta = d; deltatype = 3; dv = s->be_v[b]; dw = s->be_w[b];
                    }
                }
            }
            /* delta4: least z of a top-level T-blossom. */
            for (int32_t k = 0; k < s->nlive; k++) {
                int32_t b = s->live[k];
                if (s->parent[b] < 0 && s->label[b] == 2
                    && (deltatype == -1 || s->bdual[b] < delta)) {
                    delta = s->bdual[b]; deltatype = 4; dblossom = b;
                }
            }
            if (deltatype == -1) {
                /* Max-cardinality optimum: final delta = max(0, min dual). */
                double low = s->dual[0];
                for (int32_t v = 1; v < V; v++)
                    if (s->dual[v] < low) low = s->dual[v];
                deltatype = 1;
                delta = low > 0 ? low : 0.0;
            }
            for (int32_t v = 0; v < V; v++) {
                int32_t l = s->label[s->inb[v]];
                if (l == 1) s->dual[v] -= delta;
                else if (l == 2) s->dual[v] += delta;
            }
            for (int32_t k = 0; k < s->nlive; k++) {
                int32_t b = s->live[k];
                if (s->parent[b] < 0) {
                    if (s->label[b] == 1) s->bdual[b] += delta;
                    else if (s->label[b] == 2) s->bdual[b] -= delta;
                }
            }
            if (deltatype == 1) {
                break;
            } else if (deltatype == 2 || deltatype == 3) {
                bm_allow(s, dv, dw);
                s->queue[s->nqueue++] = dv;
            } else {
                bm_expand_blossom(s, dblossom, 0);
            }
        }
        if (!augmented) return;
        /* End of stage: expand S-blossoms with zero dual, creation order. */
        int32_t nsnap = s->nlive;
        memcpy(s->tmp, s->live, (size_t)nsnap * sizeof(int32_t));
        for (int32_t k = 0; k < nsnap; k++) {
            int32_t b = s->tmp[k];
            if (s->alive[b - V] && s->parent[b] < 0 && s->label[b] == 1
                && s->bdual[b] == 0.0)
                bm_expand_blossom(s, b, 1);
        }
    }
}

/* Maximum-weight maximum-cardinality matching of the virtual-boundary
 * graph for n detectors: d_i--d_j weighs 1e9 - pair_cost[i*n+j] (i < j,
 * the upper triangle only), d_i--b_i weighs 1e9 - boundary_cost[i], and
 * b_i--b_j weighs 1e9.  Writes the matched (i, j) index pairs (j == -1:
 * boundary) into out_pairs in ascending order of their lower detector
 * index, each oriented as networkx's matching_dict_to_set reports it, and
 * returns their number, or -1 when a cost is not finite. */
static int32_t bm_match(BM* s, const double* bcost, const double* pcost,
                        int32_t* out_pairs) {
    const int32_t n = s->n, V = s->V;
    const double large = 1e9;
    for (int32_t i = 0; i < n; i++) {
        if (!isfinite(bcost[i])) return -1;
        for (int32_t j = i + 1; j < n; j++)
            if (!isfinite(pcost[(int64_t)i * n + j])) return -1;
    }
    double maxweight = 0.0;
    for (int32_t i = 0; i < n; i++) {
        for (int32_t j = i + 1; j < n; j++) {
            double wt = large - pcost[(int64_t)i * n + j];
            s->W[(int64_t)i * V + j] = s->W[(int64_t)j * V + i] = wt;
            if (wt > maxweight) maxweight = wt;
            s->W[(int64_t)(n + i) * V + n + j] = s->W[(int64_t)(n + j) * V + n + i] = large;
            if (large > maxweight) maxweight = large;
        }
        double wt = large - bcost[i];
        s->W[(int64_t)i * V + n + i] = s->W[(int64_t)(n + i) * V + i] = wt;
        if (wt > maxweight) maxweight = wt;
    }
    /* G.neighbors(): d_i sees d_0..d_{n-1} (minus itself) then b_i;
     * b_i sees d_i then b_0..b_{n-1} (minus itself). */
    for (int32_t i = 0; i < n; i++) {
        int32_t *dn = s->adj + (int64_t)i * n, *bn = s->adj + (int64_t)(n + i) * n;
        int32_t a = 0, c = 0;
        bn[c++] = i;
        for (int32_t j = 0; j < n; j++) {
            if (j == i) continue;
            dn[a++] = j;
            bn[c++] = n + j;
        }
        dn[a] = n + i;
    }
    for (int32_t v = 0; v < V; v++) {
        s->dual[v] = maxweight;
        s->inb[v] = v;
        s->base[v] = v;
        s->parent[v] = -1;
        s->mate[v] = -1;
    }
    for (int32_t k = 0; k < s->bcap; k++) {
        s->freelist[k] = s->bcap - 1 - k;
        s->nbest[k] = -1;
        s->alive[k] = 0;
    }
    for (int32_t x = 0; x < s->T; x++) s->bt_has[x] = 0;
    memset(s->allow, 0, (size_t)V * V * sizeof(uint32_t));
    s->nfree = s->bcap;
    s->nlive = 0;
    s->mate_count = 0;
    s->stage = 0;
    bm_solve(s);
    int32_t pairs = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t m = s->mate[i];
        if (m < 0 || (m < n && m < i)) continue;
        if (m >= n) {
            out_pairs[2 * pairs] = i;
            out_pairs[2 * pairs + 1] = -1;
        } else {
            int first = s->serial[m] < s->serial[i];
            out_pairs[2 * pairs] = first ? m : i;
            out_pairs[2 * pairs + 1] = first ? i : m;
        }
        pairs++;
    }
    return pairs;
}

/* Logical-flip bit of the edge a--b from the graph's CSR: the slot of b in
 * the row of whichever endpoint is not the boundary node (a detector row is
 * a handful of slots; the boundary's holds every boundary edge).  0 when no
 * such edge exists, as DetectorGraph.edge_between returns None then. */
static inline int32_t edge_flip(int32_t a, int32_t b, int32_t boundary,
                                const int32_t* indptr, const int32_t* indices,
                                const uint8_t* flips) {
    if (a == boundary) { int32_t t = a; a = b; b = t; }
    for (int32_t s = indptr[a]; s < indptr[a + 1]; s++)
        if (indices[s] == b) return flips[s];
    return 0;
}

/* Decode of one exact syndrome (a decode_rows helper): cost extraction,
 * exact matching (analytic for one or two fired detectors, the bitmask DP
 * for 3..8, blossom for 9+), shortest-path retrace and the logical parity.
 * Fired detector i reads its distance and predecessor rows at row rows[i]
 * of ``dist`` (float64) and ``pred`` (int32, negative = no predecessor, as
 * scipy emits), both num_nodes wide: a graph's all-pairs matrices with
 * rows = flagged, or the syndrome's own dijkstra rows with
 * rows = 0..count-1.  indptr / indices / flips are the graph's CSR with one
 * logical-flip bit per slot.  ``work`` holds match_work_bytes(count) bytes
 * and ``pair_idx`` 2*count ints.  Emits (a, b) node pairs into out_edges
 * in exactly the Python retrace order and returns their number, or -1 when
 * the DP hits the infinite dead end or a blossom cost is not finite (the
 * row is then deferred to the interpreted path, which demotes to greedy or
 * runs networkx). */
static int32_t decode_syndrome(int32_t count, const int64_t* flagged,
                               const int64_t* rows, const double* dist,
                               const int32_t* pred, int32_t num_nodes,
                               int32_t boundary, const int32_t* indptr,
                               const int32_t* indices, const uint8_t* flips,
                               void* work, int32_t* pair_idx,
                               int32_t* out_edges, int32_t* out_parity) {
    const int64_t N = num_nodes;
    int32_t num_pairs;
    if (count == 1) {
        pair_idx[0] = 0; pair_idx[1] = -1;
        num_pairs = 1;
    } else if (count == 2) {
        /* Mirror of _exact_matching's analytic two-detector rule,
         * including the <= that prefers pairing on exact ties. */
        double paired = dist[rows[0] * N + flagged[1]];
        double via_boundary = dist[rows[0] * N + boundary]
                            + dist[rows[1] * N + boundary];
        if (paired <= via_boundary) {
            pair_idx[0] = 0; pair_idx[1] = 1;
            num_pairs = 1;
        } else {
            pair_idx[0] = 0; pair_idx[1] = -1;
            pair_idx[2] = 1; pair_idx[3] = -1;
            num_pairs = 2;
        }
    } else {
        BM s = {0};  /* bm_layout sets it; zeroed for -Wmaybe-uninitialized */
        bm_layout(&s, (char*)work, count);
        for (int32_t i = 0; i < count; i++) {
            const double* row = dist + rows[i] * N;
            s.bcost[i] = row[boundary];
            for (int32_t j = 0; j < count; j++)
                s.pcost[(int64_t)i * count + j] = row[flagged[j]];
        }
        if (count <= 8) num_pairs = dp_match(count, s.bcost, s.pcost, pair_idx);
        else num_pairs = bm_match(&s, s.bcost, s.pcost, pair_idx);
        if (num_pairs < 0) return -1;
    }
    int32_t n = 0;
    int32_t parity = 0;
    for (int32_t k = 0; k < num_pairs; k++) {
        int32_t i = pair_idx[2 * k];
        int32_t j = pair_idx[2 * k + 1];
        const int32_t* row = pred + rows[i] * N;
        int32_t node = (j < 0) ? boundary : (int32_t)flagged[j];
        for (;;) {
            int32_t prev = row[node];
            if (prev < 0) break;
            out_edges[2 * n] = prev;
            out_edges[2 * n + 1] = node;
            n++;
            parity ^= edge_flip(prev, node, boundary, indptr, indices, flips);
            node = prev;
        }
    }
    *out_parity = parity;
    return n;
}

/* ------------------------------------------------------------------------
 * CPython int-set emulation.  The union-find decoder's output depends on
 * the iteration order of Python sets of node ids, so the port rebuilds each
 * such set's slot layout: hash(n) == n, an 8-slot start, probe slot
 * i = h & mask then up to 9 linear slots while i + 9 <= mask, then
 * perturb >>= 5 and i = (i*5 + 1 + perturb) & mask; after each new key,
 * resize when used*5 >= mask*3 to the smallest power of two above 4*used
 * (2*used past 50000), re-inserting the old slots in slot order.  Nothing
 * is ever deleted, so dummy slots never occur.  Iteration is slot order.
 * ---------------------------------------------------------------------- */

static int is_insert(int32_t* table, size_t mask, int32_t key) {
    size_t perturb = (size_t)key, i = (size_t)key & mask;
    for (;;) {
        int32_t* entry = table + i;
        int probes = (i + 9 <= mask) ? 9 : 0;
        do {
            if (*entry < 0) { *entry = key; return 1; }
            if (*entry == key) return 0;
            entry++;
        } while (probes--);
        perturb >>= 5;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

/* Iteration order of the set built by adding keys[0..k) in order: writes
 * the distinct keys to out in slot order and returns their number.  table
 * holds at least 8*k + 8 ints, tmp at least k. */
static int32_t is_build(const int32_t* keys, int32_t k, int32_t* table,
                        int32_t* tmp, int32_t* out) {
    size_t mask = 7, used = 0;
    for (size_t t = 0; t <= mask; t++) table[t] = -1;
    for (int32_t a = 0; a < k; a++) {
        if (!is_insert(table, mask, keys[a])) continue;
        used++;
        if (used * 5 < mask * 3) continue;
        size_t minused = used > 50000 ? used * 2 : used * 4, size = 8;
        while (size <= minused) size <<= 1;
        int32_t n = 0;
        for (size_t t = 0; t <= mask; t++)
            if (table[t] >= 0) tmp[n++] = table[t];
        mask = size - 1;
        for (size_t t = 0; t <= mask; t++) table[t] = -1;
        for (int32_t b = 0; b < n; b++) is_insert(table, mask, tmp[b]);
    }
    int32_t n = 0;
    for (size_t t = 0; t <= mask; t++)
        if (table[t] >= 0) out[n++] = table[t];
    return n;
}

/* Test and self-check entry: list(set(keys)) for k non-negative ints.
 * work holds 9*k + 8 ints. */
int32_t intset_order(const int32_t* keys, int32_t k, int32_t* work, int32_t* out) {
    return is_build(keys, k, work, work + 8 * (int64_t)k + 8, out);
}

/* ------------------------------------------------------------------------
 * Union-find decoding: a line-for-line mirror of
 * UnionFindDecoder._grow_clusters + _peel + DecoderBase's parity loop over
 * a CSR copy of graph.neighbors (same list order) with one logical-flip bit
 * per slot.  Python dicts keep insertion order, so `membership` is the
 * `mem` list; every Python set of nodes is rebuilt by is_build.  Per-node
 * arrays are only valid where their stamp matches the current call (mark,
 * vis) or grouping (clst), so a call touches O(cluster) memory.
 * ---------------------------------------------------------------------- */

typedef struct {
    uint32_t *hdr;                /* [call stamp, grouping stamp] */
    uint32_t *mark, *vis, *clst;  /* cap */
    int32_t *dpar, *mem, *clidx, *ci, *clroot, *clfill, *clstart, *cllist;
    int32_t *odd, *front, *order, *bpar, *settab, *settmp;
    uint8_t *flags, *bflip, *syn; /* flags: 1 parity, 2 boundary, 4 fired */
} UF;

static int64_t uf_layout(UF* u, char* mem, int32_t cap) {
    int64_t off = 0, N = cap;
#define TAKE(field, type, count) do { \
        if (mem) u->field = (type*)(mem + off); \
        off += ((int64_t)(count) * (int64_t)sizeof(type) + 7) & ~(int64_t)7; \
    } while (0)
    TAKE(hdr, uint32_t, 2);
    TAKE(mark, uint32_t, 2 * N);  /* mark then vis: one memset on wrap */
    TAKE(clst, uint32_t, N);
    TAKE(dpar, int32_t, N); TAKE(mem, int32_t, N); TAKE(clidx, int32_t, N);
    TAKE(ci, int32_t, N); TAKE(clroot, int32_t, N); TAKE(clfill, int32_t, N);
    TAKE(clstart, int32_t, N + 1); TAKE(cllist, int32_t, N);
    TAKE(odd, int32_t, N); TAKE(front, int32_t, N); TAKE(order, int32_t, N);
    TAKE(bpar, int32_t, N); TAKE(settab, int32_t, 8 * N + 8);
    TAKE(settmp, int32_t, N);
    TAKE(flags, uint8_t, N); TAKE(bflip, uint8_t, N); TAKE(syn, uint8_t, N);
#undef TAKE
    if (mem) u->vis = u->mark + N;
    return off;
}

/* Bytes of (zero-initialised) work buffer uf_decode needs for graphs of up
 * to cap nodes. */
int64_t uf_work_bytes(int32_t cap) {
    UF u;
    return uf_layout(&u, 0, cap);
}

/* Next stamp of counter; on wrap-around the stamped arrays are cleared. */
static uint32_t uf_stamp(uint32_t* counter, uint32_t* arrays, int64_t len) {
    if (*counter == UINT32_MAX) {
        memset(arrays, 0, (size_t)len * sizeof(uint32_t));
        *counter = 0;
    }
    return ++*counter;
}

static inline int32_t uf_find(int32_t* par, int32_t node) {
    int32_t root = node;
    while (par[root] != root) root = par[root];
    while (par[node] != root) {
        int32_t next = par[node];
        par[node] = root;
        node = next;
    }
    return root;
}

static inline void uf_union(UF* u, int32_t a, int32_t b) {
    int32_t ra = uf_find(u->dpar, a), rb = uf_find(u->dpar, b);
    if (ra == rb) return;
    u->dpar[rb] = ra;
    u->flags[ra] ^= u->flags[rb] & 1;
    u->flags[ra] |= u->flags[rb] & 2;
}

static inline int uf_neutral(UF* u, int32_t node) {
    uint8_t f = u->flags[uf_find(u->dpar, node)];
    return !(f & 1) || (f & 2);
}

/* cluster_members(): roots in order of first appearance in membership,
 * each cluster's nodes (cllist[clstart[c]..clstart[c+1])) in membership
 * order, i.e. the order they were added to the Python member set.
 * Leaves every member's dpar pointing straight at its root. */
static int32_t uf_group(UF* u, int32_t nmem, int32_t cap) {
    uint32_t st = uf_stamp(&u->hdr[1], u->clst, cap);
    int32_t ncl = 0;
    for (int32_t i = 0; i < nmem; i++) {
        int32_t r = uf_find(u->dpar, u->mem[i]);
        if (u->clst[r] != st) {
            u->clst[r] = st;
            u->clidx[r] = ncl;
            u->clroot[ncl] = r;
            u->clfill[ncl] = 0;
            ncl++;
        }
        int32_t c = u->clidx[r];
        u->ci[i] = c;
        u->clfill[c]++;
    }
    u->clstart[0] = 0;
    for (int32_t c = 0; c < ncl; c++) {
        u->clstart[c + 1] = u->clstart[c] + u->clfill[c];
        u->clfill[c] = u->clstart[c];
    }
    for (int32_t i = 0; i < nmem; i++) u->cllist[u->clfill[u->ci[i]]++] = u->mem[i];
    return ncl;
}

/* Set-iteration order of cluster c's member set, into u->front. */
static int32_t uf_members(UF* u, int32_t c) {
    return is_build(u->cllist + u->clstart[c], u->clstart[c + 1] - u->clstart[c],
                    u->settab, u->settmp, u->front);
}

static inline void uf_add(UF* u, uint32_t stamp, int32_t node, int fired,
                          int32_t boundary) {
    u->mark[node] = stamp;
    u->dpar[node] = node;
    u->flags[node] = (uint8_t)((fired ? 5 : 0) | (node == boundary ? 2 : 0));
}

/* Union-find decode of one non-empty syndrome (a decode_rows helper).
 * flagged holds count node ids, all in [0, num_nodes), in the order the
 * Python set was built from; indptr / indices / flips are the CSR graph of
 * num_nodes <= cap nodes.  Emits (node, parent) edges into out_edges in
 * _peel's order with their logical parity, and returns the edge count; -1
 * when growth does not converge within max_steps (the interpreted path then
 * raises), -2 on a frontier root outside the stale grouping (the row is
 * deferred to Python). */
static int32_t uf_decode(int32_t count, const int64_t* flagged, int32_t boundary,
                         const int32_t* indptr, const int32_t* indices,
                         const uint8_t* flips, int32_t max_steps, int32_t cap,
                         void* work, int32_t* out_edges, int32_t* out_parity) {
    UF u = {0};  /* uf_layout sets it; zeroed for -Wmaybe-uninitialized */
    uf_layout(&u, (char*)work, cap);
    uint32_t stamp = uf_stamp(&u.hdr[0], u.mark, 2 * (int64_t)cap);
    /* fired_nodes = set(flagged): its slot order is membership order. */
    for (int32_t a = 0; a < count; a++) u.order[a] = (int32_t)flagged[a];
    int32_t nfired = is_build(u.order, count, u.settab, u.settmp, u.front);
    int32_t nmem = 0;
    for (int32_t a = 0; a < nfired; a++) {
        uf_add(&u, stamp, u.front[a], 1, boundary);
        u.mem[nmem++] = u.front[a];
    }
    int converged = 0;
    for (int32_t step = 0; step < max_steps; step++) {
        int32_t ncl = uf_group(&u, nmem, cap), nodd = 0;
        for (int32_t c = 0; c < ncl; c++)
            if (!uf_neutral(&u, u.clroot[c])) u.odd[nodd++] = u.clroot[c];
        if (!nodd) { converged = 1; break; }
        int32_t progress_mem = nmem, progress_cl = ncl;
        for (int32_t o = 0; o < nodd; o++) {
            int32_t root = u.odd[o];
            if (uf_neutral(&u, root)) continue;
            /* members[dsu.find(root)]: the grouping from this step's start. */
            int32_t r = uf_find(u.dpar, root);
            if (u.clst[r] != u.hdr[1]) return -2;
            int32_t nfront = uf_members(&u, u.clidx[r]);
            for (int32_t a = 0; a < nfront; a++) {
                int32_t node = u.front[a];
                for (int32_t s = indptr[node]; s < indptr[node + 1]; s++) {
                    int32_t nb = indices[s];
                    if (u.mark[nb] != stamp) {
                        uf_add(&u, stamp, nb, 0, boundary);
                        u.mem[nmem++] = nb;
                    }
                    uf_union(&u, node, nb);
                }
            }
        }
        int32_t roots = 0;
        for (int32_t i = 0; i < nmem; i++) roots += u.dpar[u.mem[i]] == u.mem[i];
        if (nmem == progress_mem && roots == progress_cl) { converged = 1; break; }
    }
    if (!converged) return -1;

    int32_t ncl = uf_group(&u, nmem, cap), nedges = 0, parity = 0;
    for (int32_t c = 0; c < ncl; c++) {
        int32_t R = u.clroot[c], any = 0;
        for (int32_t k = u.clstart[c]; k < u.clstart[c + 1]; k++)
            any |= u.flags[u.cllist[k]] & 4;
        if (!any) continue;
        /* uf_group left every member's dpar at its root. */
        int32_t root = (u.mark[boundary] == stamp && u.dpar[boundary] == R)
                     ? boundary : (uf_members(&u, c), u.front[0]);
        /* _spanning_tree: BFS inside the cluster, order doubling as queue. */
        int32_t head = 0, tail = 0;
        u.order[tail++] = root;
        u.vis[root] = stamp;
        u.bpar[root] = root;
        while (head < tail) {
            int32_t node = u.order[head++];
            for (int32_t s = indptr[node]; s < indptr[node + 1]; s++) {
                int32_t nb = indices[s];
                if (u.mark[nb] == stamp && u.dpar[nb] == R && u.vis[nb] != stamp) {
                    u.vis[nb] = stamp;
                    u.bpar[nb] = node;
                    u.bflip[nb] = flips[s];
                    u.order[tail++] = nb;
                }
            }
        }
        for (int32_t a = 0; a < tail; a++) u.syn[u.order[a]] = (u.flags[u.order[a]] & 4) != 0;
        for (int32_t a = tail - 1; a >= 0; a--) {
            int32_t node = u.order[a];
            if (node == root || !u.syn[node]) continue;
            int32_t p = u.bpar[node];
            out_edges[2 * nedges] = node;
            out_edges[2 * nedges + 1] = p;
            nedges++;
            parity ^= u.bflip[node];
            u.syn[p] ^= 1;
            u.syn[node] = 0;
        }
    }
    *out_parity = parity;
    return nedges;
}

/* ------------------------------------------------------------------------
 * The one compiled decode entry: decode the fired-node rows
 * sel[start..nrows) in one call.  Row k's fired node ids, ascending, are
 * nodes[row_ptr[sel[k]] .. row_ptr[sel[k] + 1]).  method 0 runs
 * decode_syndrome against dist / pred: with path_rows NULL these are the
 * all-pairs matrices (row index = the fired id), otherwise they hold the
 * fired detectors' own shortest-path rows, detector i at row path_rows[i]
 * (0..count-1, one row decoded per call).  method 1 runs uf_decode with
 * max_steps over a uf_cap work buffer.  Row k's edges land at
 * out_edges[2 * edge_ptr[k] ..], edge_ptr[k + 1] closes them, parity[k] is
 * their logical parity and status[k] is 0 (decoded) or 1 (deferred, no
 * edges).  A row is deferred when it fires more than max_fired detectors
 * (or more than num_nodes, which only repeated ids can), holds a node id
 * outside [0, num_nodes), or its helper hands it back: the DP's dead end,
 * a non-finite blossom cost, growth that does not converge, a stale
 * frontier root.  Row k is decoded only when its worst case (method 0:
 * count * (num_nodes - 1) retraced edges, method 1: num_nodes peeled
 * edges) fits below edge_cap; otherwise the entry returns k and the caller
 * grows out_edges and resumes there.  Returns nrows when done.
 * ---------------------------------------------------------------------- */
int64_t decode_rows(int32_t method, int64_t start, int64_t nrows,
                    const int64_t* sel, const int64_t* row_ptr,
                    const int64_t* nodes, int64_t max_fired,
                    const double* dist, const int32_t* pred,
                    const int64_t* path_rows,
                    int32_t num_nodes, int32_t boundary,
                    const int32_t* indptr, const int32_t* indices,
                    const uint8_t* flips, int32_t max_steps, int32_t uf_cap,
                    void* work, int32_t* pair_idx, int64_t* edge_ptr,
                    int32_t* out_edges, int64_t edge_cap,
                    int32_t* parity, uint8_t* status) {
    for (int64_t k = start; k < nrows; k++) {
        const int64_t* fired = nodes + row_ptr[sel[k]];
        int64_t count = row_ptr[sel[k] + 1] - row_ptr[sel[k]];
        int64_t at = edge_ptr[k];
        edge_ptr[k + 1] = at;
        parity[k] = 0;
        status[k] = 1;
        if (count <= 0 || count > max_fired || count > num_nodes) continue;
        int in_range = 1;
        for (int64_t a = 0; a < count; a++)
            in_range &= fired[a] >= 0 && fired[a] < num_nodes;
        if (!in_range) continue;
        int64_t worst = method == 0 ? count * (int64_t)(num_nodes - 1) : num_nodes;
        if (at + worst > edge_cap) return k;
        int32_t got = method == 0
            ? decode_syndrome((int32_t)count, fired, path_rows ? path_rows : fired,
                              dist, pred, num_nodes, boundary, indptr, indices,
                              flips, work, pair_idx, out_edges + 2 * at, parity + k)
            : uf_decode((int32_t)count, fired, boundary, indptr, indices, flips,
                        max_steps, uf_cap, work, out_edges + 2 * at, parity + k);
        if (got < 0) {
            parity[k] = 0;
            continue;
        }
        edge_ptr[k + 1] = at + got;
        status[k] = 0;
    }
    return nrows;
}
"""

#: First guess of :func:`decode_rows`' output, in edges per fired
#: detector, on top of one worst-case row; the call grows it when a batch
#: needs more.
_EDGES_PER_FIRED = 8

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)

_lib: ctypes.CDLL | None = None

#: Whether the load-time self-check found the compiled int-set emulation
#: laying sets out exactly as this interpreter does; when it does not (a
#: future CPython changing its set layout), only the union-find kernel is
#: disabled and union-find decodes through its Python path.
_uf_layout_ok = False

#: Fixed add sequences the self-check replays through the emulation and
#: ``list(set(...))``: first-table collisions, strided keys that collide
#: again after each resize, a scattered spread across several resizes, and
#: repeated keys.
_SET_SELF_CHECK: tuple[tuple[int, ...], ...] = (
    (5, 13, 21, 29, 37, 45),
    tuple(range(0, 4096, 32)),
    tuple((7919 * i) % 3001 for i in range(400)),
    (3, 3, 11, 3, 19, 11, 27, 35, 43, 51, 59),
)


def _build() -> ctypes.CDLL | None:
    """Compile (or load the cached build of) the kernel library."""
    lib = build(_SOURCE, "deckernels")
    if lib is None:
        return None
    ptr = ctypes.c_void_p
    lib.hash_rows.argtypes = [ptr, ctypes.c_int64, ctypes.c_int64, ptr]
    lib.hash_rows.restype = None
    lib.match_work_bytes.argtypes = [ctypes.c_int32]
    lib.match_work_bytes.restype = ctypes.c_int64
    lib.intset_order.argtypes = [ptr, ctypes.c_int32, ptr, ptr]
    lib.intset_order.restype = ctypes.c_int32
    lib.uf_work_bytes.argtypes = [ctypes.c_int32]
    lib.uf_work_bytes.restype = ctypes.c_int64
    i32, i64 = ctypes.c_int32, ctypes.c_int64
    lib.decode_rows.argtypes = [
        i32, i64, i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, i32, i32, ptr, ptr, ptr,
        i32, i32, ptr, ptr, ptr, ptr, i64, ptr, ptr,
    ]
    lib.decode_rows.restype = ctypes.c_int64
    global _uf_layout_ok
    _uf_layout_ok = all(
        _intset_order(lib, keys) == list(set(keys)) for keys in _SET_SELF_CHECK
    )
    return lib


def available() -> bool:
    """Whether the compiled decoder kernels can be used in this environment."""
    global _lib
    flag = os.environ.get("REPRO_DECODER_CKERNELS")
    if flag is None:
        flag = os.environ.get("REPRO_SIM_CKERNELS", "1")
    if flag == "0":
        return False
    if _lib is None:
        _lib = _build()
    return _lib is not None


def uf_available() -> bool:
    """Whether :func:`decode_rows` may run union-find: the kernels are
    available and the load-time self-check passed (see ``_uf_layout_ok``)."""
    return available() and _uf_layout_ok


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _intset_order(lib: ctypes.CDLL, keys: Sequence[int]) -> list[int]:
    values = np.ascontiguousarray(keys, dtype=np.int32)
    count = int(values.size)
    if count and int(values.min()) < 0:
        raise ValueError("the int-set emulation covers non-negative keys only")
    work = np.empty(9 * count + 8, dtype=np.int32)
    out = np.empty(max(count, 1), dtype=np.int32)
    emitted = lib.intset_order(_ptr(values), count, _ptr(work), _ptr(out))
    return out[:emitted].tolist()


class _Scratch(threading.local):
    """Per-thread reusable kernel work buffers, grown on demand.

    Each thread (the realtime service decodes from worker threads) keeps
    one set of work buffers with their pointers extracted once, regrown
    only when a larger syndrome (or graph) arrives, so a one-row
    :func:`decode_rows` call allocates only its outputs.
    """

    def __init__(self) -> None:
        self.count = 0
        self.uf_capacity = 0

    def reserve(self, count: int) -> None:
        """Size the pair, path-row and matching work buffers for ``count``."""
        if count <= self.count:
            return
        assert _lib is not None
        self.count = count
        self.pairs = np.empty(2 * count, dtype=np.int32)
        # Row i of a syndrome's own shortest-path arrays belongs to detector i.
        self.rows = np.arange(count, dtype=np.int64)
        work_bytes = int(_lib.match_work_bytes(count))
        self.work = np.empty((work_bytes + 7) // 8, dtype=np.float64)
        self.pairs_ptr, self.rows_ptr = _ptr(self.pairs), _ptr(self.rows)
        self.work_ptr = _ptr(self.work)

    def reserve_uf(self, num_nodes: int) -> None:
        """Size the union-find work buffer for graphs of ``num_nodes``.

        The buffer starts zeroed (its per-node stamps must), and the kernel
        lays it out by ``uf_capacity``, so one buffer serves every graph up
        to that size.
        """
        if num_nodes > self.uf_capacity:
            assert _lib is not None
            work_bytes = int(_lib.uf_work_bytes(num_nodes))
            self.uf_work = np.zeros((work_bytes + 7) // 8, dtype=np.uint64)
            self.uf_work_ptr = _ptr(self.uf_work)
            self.uf_capacity = num_nodes


_scratch = _Scratch()


class GraphContext:
    """One detector graph pinned for the compiled decoders.

    ``indptr``/``indices`` are ``graph.neighbors`` flattened in list order
    and ``flips`` holds the logical-flip bit of each CSR slot's (collapsed)
    edge (:attr:`~repro.decoders.detector_graph.DetectorGraph.csr`):
    O(nodes + edges), so every graph size is covered.  :func:`decode_rows`
    walks it for union-find and reads each retraced matching edge's flip
    from it.  ``all_pairs`` optionally pins a graph's all-pairs
    ``(distances, predecessors)`` matrices, from which :func:`decode_rows`
    reads fired detectors' rows in place; without them the caller passes
    each syndrome's own shortest-path rows.  It may
    be a zero-argument callable returning the matrices (or ``None``), run
    on the first read of :attr:`all_pairs`, so union-find, which never
    reads them, never builds them (nor imports scipy).  Built once per
    graph (:attr:`~repro.decoders.detector_graph.DetectorGraph.context`)
    and kept alive by it, so the pointers can never dangle.
    """

    __slots__ = (
        "indptr", "indices", "flips", "num_nodes", "args",
        "_pairs", "_pair_args", "_load_pairs", "_lock",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        flips: np.ndarray,
        boundary: int,
        all_pairs: (
            tuple[np.ndarray, np.ndarray]
            | Callable[[], tuple[np.ndarray, np.ndarray] | None]
            | None
        ) = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.flips = np.ascontiguousarray(flips, dtype=np.uint8)
        self.num_nodes = int(self.indptr.shape[0]) - 1
        self.args = (
            self.num_nodes,
            int(boundary),
            _ptr(self.indptr),
            _ptr(self.indices),
            _ptr(self.flips),
        )
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._pair_args: tuple[ctypes.c_void_p, ctypes.c_void_p] | None = None
        self._load_pairs: Callable[[], tuple[np.ndarray, np.ndarray] | None] | None = (
            all_pairs if callable(all_pairs) else (lambda: all_pairs)
        )
        self._lock = threading.Lock()

    @property
    def all_pairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The pinned ``(distances, predecessors)``, or ``None``."""
        if self._load_pairs is not None:
            with self._lock:  # pin once, so pointers in use never change
                load = self._load_pairs
                if load is not None:
                    pairs = load()
                    if pairs is not None:
                        distances = np.ascontiguousarray(pairs[0], dtype=np.float64)
                        predecessors = np.ascontiguousarray(pairs[1], dtype=np.int32)
                        self._pair_args = (_ptr(distances), _ptr(predecessors))
                        self._pairs = (distances, predecessors)
                    self._load_pairs = None
        return self._pairs

    @property
    def pair_args(self) -> tuple[ctypes.c_void_p, ctypes.c_void_p] | None:
        """Pointers to :attr:`all_pairs`, or ``None``."""
        return None if self.all_pairs is None else self._pair_args


def hash_rows(packed: np.ndarray) -> np.ndarray:
    """FNV-1a 64-bit hash of each row of a ``(rows, nbytes)`` uint8 matrix.

    The C kernel and the NumPy fallback produce identical values (the
    fallback runs the same xor/multiply recurrence columnwise in wrapping
    uint64 arithmetic), so the dedup grouping is environment-independent.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError("hash_rows expects a (rows, nbytes) matrix")
    rows, nbytes = packed.shape
    out = np.empty(rows, dtype=np.uint64)
    if available():
        assert _lib is not None
        _lib.hash_rows(
            _ptr(packed), ctypes.c_int64(rows), ctypes.c_int64(nbytes), _ptr(out)
        )
        return out
    out[...] = _FNV_OFFSET
    for column in range(nbytes):
        out ^= packed[:, column].astype(np.uint64)
        out *= _FNV_PRIME
    return out


def decode_rows(
    ctx: GraphContext,
    nodes: np.ndarray,
    row_ptr: np.ndarray,
    rows: np.ndarray,
    *,
    max_fired: int | None = None,
    max_steps: int | None = None,
    paths: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[tuple[tuple[tuple[int, int], ...], int] | None], np.ndarray]:
    """Decode syndromes in one C call against ``ctx``: the one compiled
    decode entry, for both decoders and every graph size.

    Row ``r`` fires the ascending node ids ``nodes[row_ptr[r]:row_ptr[r + 1]]``
    and ``rows`` selects the non-empty rows to decode.  With ``max_steps``
    each row runs the union-find port.  Without it each row of at most
    ``max_fired`` detectors runs the exact matching, reading each fired
    detector's distance and predecessor rows from the all-pairs matrices
    ``ctx`` pins, or from ``paths``: the ``shortest_paths_from`` matrices
    of the one row ``rows`` then selects, one row per fired detector.
    Returns ``(entries, served)``: ``entries[i]`` is row ``rows[i]``'s
    ``(edges, parity)``, equal to the interpreted path's edge for edge, or
    ``None`` where ``served[i]`` is false and the row is deferred (larger
    than ``max_fired``, the DP's infinite dead end, a non-finite blossom
    cost, union-find growth that does not converge).  A node id outside
    ``[0, ctx.num_nodes)`` raises ``ValueError``.  Only call when
    :func:`available` is true (for union-find, :func:`uf_available`).
    """
    assert _lib is not None
    nodes = np.ascontiguousarray(nodes, dtype=np.int64)
    row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    count = int(rows.size)
    num_nodes = ctx.num_nodes
    offsets_ok = row_ptr.size and row_ptr[0] >= 0 and row_ptr[-1] <= nodes.size
    if not offsets_ok or (np.diff(row_ptr) < 0).any():
        raise ValueError("row_ptr must hold non-decreasing offsets into nodes")
    if count and (int(rows.min()) < 0 or int(rows.max()) >= row_ptr.size - 1):
        raise ValueError(f"rows must lie in [0, {row_ptr.size - 1})")
    if nodes.size and (int(nodes.min()) < 0 or int(nodes.max()) >= num_nodes):
        raise ValueError(f"node ids must lie in [0, {num_nodes})")
    sizes = row_ptr[rows + 1] - row_ptr[rows]
    scratch = _scratch
    pairs_ptr: ctypes.c_void_p | None = None
    dist_ptr: ctypes.c_void_p | None = None
    pred_ptr: ctypes.c_void_p | None = None
    path_rows_ptr: ctypes.c_void_p | None = None
    if max_steps is not None:
        method, limit, worst = 1, 2**62, num_nodes
        steps = max(0, min(operator.index(max_steps), 2**31 - 1))
        scratch.reserve_uf(num_nodes)
        work_ptr = scratch.uf_work_ptr
    else:
        if max_fired is None:
            raise ValueError("matching needs max_fired")
        method, limit, steps = 0, int(max_fired), 0
        largest = int(sizes[sizes <= limit].max(initial=1))
        worst = largest * (num_nodes - 1)
        scratch.reserve(largest)
        work_ptr, pairs_ptr = scratch.work_ptr, scratch.pairs_ptr
        if paths is not None:
            distances = np.ascontiguousarray(paths[0], dtype=np.float64)
            predecessors = np.ascontiguousarray(paths[1], dtype=np.int32)
            if count != 1 or distances.shape != (int(sizes[0]), num_nodes) or (
                predecessors.shape != distances.shape
            ):
                raise ValueError("paths serve one row, one path row per fired detector")
            dist_ptr, pred_ptr = _ptr(distances), _ptr(predecessors)
            path_rows_ptr = scratch.rows_ptr
        elif ctx.pair_args is not None:
            dist_ptr, pred_ptr = ctx.pair_args
        else:
            raise ValueError("a context without all-pairs matrices needs paths")
    edge_ptr = np.zeros(count + 1, dtype=np.int64)
    parity = np.zeros(count, dtype=np.int32)
    status = np.ones(count, dtype=np.uint8)
    capacity = worst + _EDGES_PER_FIRED * int(sizes.sum())
    edges = np.empty(2 * capacity, dtype=np.int32)
    start = 0
    while start < count:
        start = int(
            _lib.decode_rows(
                method, start, count, _ptr(rows), _ptr(row_ptr), _ptr(nodes), limit,
                dist_ptr, pred_ptr, path_rows_ptr, *ctx.args, steps,
                scratch.uf_capacity, work_ptr, pairs_ptr, _ptr(edge_ptr), _ptr(edges),
                capacity, _ptr(parity), _ptr(status),
            )
        )
        if start < count:
            done = int(edge_ptr[start])
            capacity = max(2 * capacity, done + worst)
            grown = np.empty(2 * capacity, dtype=np.int32)
            grown[: 2 * done] = edges[: 2 * done]
            edges = grown
    served = status == 0
    flat = edges[: 2 * int(edge_ptr[count])].tolist()
    pairs = list(zip(flat[0::2], flat[1::2]))
    bounds = edge_ptr.tolist()
    parities = parity.tolist()
    entries = [
        (tuple(pairs[bounds[i] : bounds[i + 1]]), parities[i]) if ok else None
        for i, ok in enumerate(served.tolist())
    ]
    return entries, served


def intset_order(keys: Sequence[int]) -> list[int]:
    """``list(set(keys))`` as the compiled int-set emulation lays it out.

    The exposed half of the union-find kernel's order model, for tests and
    the load-time self-check; keys must be non-negative.  Only call when
    :func:`available` is true.
    """
    assert _lib is not None
    return _intset_order(_lib, keys)
