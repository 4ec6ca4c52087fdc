"""Directed minimum (k, n-k)-cut: pick L with |L| = k minimizing the weight
of arcs entering L from outside.

The exact solver splits V into three fixed index-contiguous parts V1, V2, V3
of near-equal size. For every split k = k1+k2+k3 it searches a complete
tripartite auxiliary graph with one node per size-k_i subset T of V_i. A node
carries delta(T), the weight of arcs from V_i - T into T; an edge between
T (in part a) and U (in part b) stores

    2 * [ arcs(V_a - T -> U) + arcs(V_b - U -> T) ] + delta(T) + delta(U)

so that every triangle's stored weight is exactly twice the cut value of
L = T1 u T2 u T3 (each delta appears in two edges at half weight; doubling
keeps everything integral). The minimum-weight triangle therefore locates the
optimal L for that split.

A stored edge weight depends only on (T, U), never on k. cut_profile builds,
once per graph, one matrix per part pair over all subsets of both parts from
sums over mask bits (_PairMatrices), and hands each split's three blocks to
min_weight_triangle. One order of each part's subset masks (_mask_order)
lays out the matrices; it and all else that depends on the parts alone,
such as the vertex tuples that name L and every split of every k, is kept
(_Layout). Entries take guards.int_dtype(2 * total arc weight), which
bounds every entry, partial sum and triangle sum.
Graphs of one vertex count share the parts and splits, so an exact search
over several of them (_cut_profiles) stacks their matrices, at the width of
the largest bound, on a last axis and searches each split of all of them at
once. Batches are keyed by Python-int-ness, not width: the cells a batch
examines depend on its members.

The search is pruned without changing any result (_Bounds). Once per call
it bounds, for every k searched, every row j1 of part 0 and every k2, each
triangle through j1 from below:

    lb[k][j1, k2] = min_j2 (e01[j1, j2] + min_j3 e12[j2, j3]) + min_j3 e02[j1, j3]

over the size-k2 and size-k3 subsets, where k3 = k - k1 - k2 follows from
the row's size k1, and each split by the least lb of its rows,
sb[k][k1, k2]. One pass over the 0-1 matrix bounds every k at once. One
stable sort orders the splits of all ks by k, then ascending sb; each k
stops at the first whose sb exceeds the best weight found, and a visited
split hands the kernel only the rows with lb <= best. The <= keeps every
tied triangle, so the smallest-vertex tie-break is unchanged. A batch
keeps a row where any member's lb is at most that member's best. Counters'
triangles count the cells the search examined: kept rows * r2 * r3 over
the splits visited, at most C(n, k) per k.

The rounded search runs the same triangle search after rounding each nonzero
stored edge weight up to a power of (1+eps/3), which keeps the number of
distinct weights logarithmic while inflating any triangle by less than a
(1+eps) factor; the returned value is always the true, unrounded cut weight
(see _Rounding). The powers are far wider than int64, so cut_profile keys
every pair-matrix entry once per call, in the matrix's memory order, to the
index of its exponent against the integer thresholds floor((1+eps/3)^e):
through a weight -> index table (one np.repeat, then take) when the
matrices hold at least _TABLE_MIN_CELLS integer cells and the largest
weight is at most _TABLE_CELLS per cell, by np.searchsorted otherwise. The
kernel compares sums of two keys by their ranks. Their order does not
depend on the largest exponent, so the rank table of a base a/b = 1+eps/3
is kept across calls and read through its leading rows and columns, with
the thresholds and the powers that make the keys (_Base); a grid of more
than _RANK_SPAN keys ranks only the exponents in use, call by call.
The search then runs the same body on int64 key indices and pair-sum
ranks, and only the r1 * r2 cells of the best completions add the keys
themselves: as float64 sums, and exactly only in the cells within float
error of the least. _Bounds takes the ascending key values and bounds in
them: keys grow with their index, so the least index gives the least key.
The keys are compared as float64 sums, scaled as in _pair_ranks, against
the best key sum widened by a relative 2^-48 and an absolute 2^-1060,
which exceeds every rounding and underflow error of the sums: a row may be
kept in vain, but never dropped.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import accumulate, pairwise

import numpy as np

from . import guards
from .graph import Digraph, cut_into
from .report import Counters

_PAIRS = ((0, 1), (0, 2), (1, 2))
_CHUNK_CELLS = 1 << 13     # pair sums per search step, or one j1 row's
_BOUND_CELLS = 1 << 16     # 0-1 terms held at once by the bounds
_MAX_POWERS = 2048         # past this many powers of 1+eps/3, no rounding
_PAIR_TEMPS = 1.05         # largest pair matrices live in temporaries (RSS fit)
_CALL_BYTES = 1 << 14      # a search's arrays and lists of any size (tracemalloc fit)
_RANK_BYTES = 66           # peak bytes of _pair_ranks per key squared (RSS fit)
_BASES = 4                 # bases whose powers and pair-sum ranks a process keeps
_RANK_SPAN = 256           # most keys of a kept rank table (66 * 256^2 = 4.3 MB)
_TABLE_CELLS = 4           # most weight -> index table entries per matrix cell
_TABLE_MIN_CELLS = 1 << 12  # below: searchsorted beats the table's set-up
_SLACK = 2.0 ** -48        # relative float error a key bound may hide
_UNDERFLOW = 2.0 ** -1060  # absolute error of three underflowed scaled keys


@dataclass(frozen=True)
class CutSolution:
    vertices: tuple[int, ...]   # sorted members of L
    k: int
    value: int                  # re-evaluated weight of arcs into L


def tripartition(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Fixed equitable split of 0..n-1 in index order."""
    s1 = math.ceil(n / 3)
    s2 = math.ceil((n - s1) / 2)
    return (tuple(range(s1)), tuple(range(s1, s1 + s2)),
            tuple(range(s1 + s2, n)))


@cache
def _mask_order(size: int):
    """(order, bits, rows): the subset masks of a part of size vertices in
    (size, lex) order, that is by popcount, then by bit-reversed mask
    descending; bits[r, i] = bit i of order[r]; the rows of each size."""
    bits = np.arange(1 << size)[:, None] >> np.arange(size) & 1
    order = np.lexsort((-(bits << np.arange(size)[::-1]).sum(1), bits.sum(1)))
    starts = accumulate((math.comb(size, k) for k in range(size + 1)), initial=0)
    return order, bits[order], [slice(lo, hi) for lo, hi in pairwise(starts)]


@cache
class _Layout:
    """What a cut search reads that depends on the part sizes alone: each
    part's _mask_order and row vertex tuples (sets), the pair-matrix build's
    tables, and every split (k1, k2, k3) of every k (shares), by k, then k1
    and k2, those of k from first[k]."""

    def __init__(self, sizes):
        parts, s0 = tripartition(n := sum(sizes)), sizes[0]
        self.order, self.bits, self.rows = zip(*map(_mask_order, sizes))
        self.sets = [[tuple(v for v, bit in zip(p, row) if bit) for row in bits.tolist()]
                     for p, bits in zip(parts, self.bits)]
        # rows of parts 0, 1, 2 in turn: step[i, a], vertex i of part a or the
        # arcless n; pick, their sums; own, their parts; inside, their members
        self.starts = list(accumulate(sizes[:2], initial=0))
        self.step = np.array([[p[i] if i < len(p) else n for p in parts] for i in range(s0)],
                             dtype=np.intp).reshape(s0, 3)
        self.pick = np.concatenate([o + (a << s0) for a, o in enumerate(self.order)])
        self.own = np.repeat(np.arange(3), [len(b) for b in self.bits])
        self.inside = np.zeros((len(self.pick), n + 1), dtype=bool)
        for a, (p, bits) in enumerate(zip(parts, self.bits)):
            self.inside[np.ix_(self.own == a, p)] = bits
        shares = np.indices([s + 1 for s in sizes]).reshape(3, -1).T   # lex order
        self.shares = shares[np.argsort(shares.sum(axis=1), kind="stable")]
        self.first = [0] + np.bincount(self.shares.sum(axis=1), minlength=n + 1).cumsum().tolist()

    @cache
    def plan(self, ks: tuple) -> tuple:
        """(k1s, pick12, pick02, pick, seg, shares, rows, ends) for ks.
        _Bounds sums in layers, the ks or (when more) the k3 = 0..s2: k1s[j1]
        is row j1's size; pick12[l, k1, j2] and pick02[l, j1, k2] place (j2,
        k3) in c12 and (j1, k3) in c02 for layer l, with k3 = ks[i] - k1 - k2
        clipped to 0..s2 only for no split of ks[i] (never read, and shared by
        all of its (k1, k2)); pick places each k's bounds among the layers'.
        The splits of ks in turn: their k's place in ks, (k1, k2, k3) and
        row ranges, and where each k's end."""
        s0, s1, s2 = (len(bits[0]) for bits in self.bits)
        k1s, k2s = (bits.sum(axis=1) for bits in self.bits[:2])
        k3 = np.clip(np.array(ks)[:, None, None] - np.add.outer(range(s0 + 1), range(s1 + 1)),
                     0, s2)   # [i, k1, k2]
        pick = None
        if len(ks) > s2 + 1:
            pick = ((k3.take(k1s, axis=1) << s0) + np.arange(1 << s0)[:, None]) * (s1 + 1)
            pick += np.arange(s1 + 1)
            k3 = np.broadcast_to(np.arange(s2 + 1)[:, None, None], (s2 + 1,) + k3.shape[1:])
        pick12 = np.arange(1 << s1) * (s2 + 1) + k3.take(k2s, axis=2)
        pick02 = np.arange(1 << s0)[:, None] * (s2 + 1) + k3.take(k1s, axis=1)
        ends = list(accumulate(self.first[k + 1] - self.first[k] for k in ks))
        at = np.r_[tuple(slice(self.first[k], self.first[k + 1]) for k in ks)]
        seg = np.repeat(np.arange(len(ks)), np.diff(ends, prepend=0))
        shares = self.shares[at]
        rows = [[r[size] for r, size in zip(self.rows, share)] for share in shares.tolist()]
        return k1s, pick12, pick02, pick, seg, shares, rows, ends


def _pair_bytes(parts, bound: int, count: int) -> int:
    """Bytes of one graph's pair matrices, whose entries stay below bound,
    one more largest matrix in temporaries (RSS fit), the headers and lists
    of a search (_CALL_BYTES) and, at 8 bytes a cell at least, _Bounds's
    peak for count ks: per k, lb, as many minima and sb; per layer
    (_Layout.plan), the 1-2 terms and a k3's minima; c02 and c12 (keyed:
    their indices too); and the m01 rows bounded at a time, with keys."""
    s0, s1, s2 = sizes = [len(p) for p in parts]
    layers = min(count, s2 + 1)
    piece = min(layers << s0 + s1, max(_BOUND_CELLS, layers << s1))   # rows of m01 at a time
    least = 2 * ((1 << s0) + (1 << s1)) * (s2 + 1)                   # c02 and c12
    per_k = 2 * (s1 + 1 << s0) + (s0 + 1) * (s1 + 1)
    per_layer = (s0 + 1 << s1) + (s1 + 1 << s0 if layers < count else 0)
    bounds = count * per_k + layers * per_layer + least + 2 * piece
    entry = guards.entry_bytes(guards.int_dtype(bound), bound)
    cells = [1 << sizes[a] + sizes[b] for a, b in _PAIRS]
    return int((sum(cells) + _PAIR_TEMPS * max(cells)) * entry + bounds * max(entry, 8)
               + _CALL_BYTES)


class _PairMatrices:
    """Stored edge weights between all subsets of two parts, for every pair,
    of the graphs of a batch with one vertex count, stacked on a last axis
    over them: mats[a, b][..., i] is graph i's matrix. A lone graph's have
    no such axis.

    Each part's subsets are listed in (size, lex) order (_mask_order), so
    the size-k ones of part i form the row range rows[i][k] of its matrices,
    and bits[i][r] holds the mask bits of row r. The subset sums of all
    three parts are doubled over their bits at once, then each matrix over
    the bits of one part: 0-1 over part 0's, row-major, and 0-2 and 1-2
    together over part 2's, column-major.
    """

    def __init__(self, graphs, parts, count: int = 1):
        bound = 2 * max(g.total_arc_weight for g in graphs)
        dtype = guards.int_dtype(bound)
        # guard the bytes first, with the search's bounds for count ks
        self.nbytes = len(graphs) * _pair_bytes(parts, bound, count)
        guards.check(self.nbytes, "cut pair matrix bytes")
        self.layout = lay = _Layout(tuple(map(len, parts)))
        self.parts, self.rows, self.bits = parts, lay.rows, lay.bits
        n, (s0, s1, s2), (r0, r1, _) = graphs[0].n, map(len, parts), map(len, lay.bits)
        batch = (len(graphs),) if len(graphs) > 1 else ()
        w = np.zeros((n + 1, n + 1) + batch, dtype=dtype)   # [u, v]: u -> v; n: no arcs
        for g, wg in zip(graphs, guards.batch_views(w, len(graphs))):
            g.fill_weights(wg)
        # per vertex v: arcs v <-> y for every y, then arcs V_b -> v, b = 0, 1, 2
        each = np.empty((n + 1, n + 4) + batch, dtype=dtype)
        np.add(w, w.swapaxes(0, 1), out=each[:, :n + 1])
        each[:, n + 1:] = np.add.reduceat(w, lay.starts, axis=0, dtype=dtype).swapaxes(0, 1)
        steps = each[lay.step]   # [i, a]: vertex i of part a
        sums = np.zeros((3, 1 << s0, n + 4) + batch, dtype=dtype)
        for i in range(s0):   # doubling: the masks whose top bit is i, every part
            np.add(sums[:, :1 << i], steps[i][:, None], out=sums[:, 1 << i:2 << i])
        # the sums over T, in the rows of parts 0, 1, 2 in turn: both[T, y],
        # arcs T <-> y (twice arcs T -> T over y in T), and into[T, b]
        sums = sums.reshape((3 << s0, n + 4) + batch)[lay.pick]
        both, into = sums[:, :n + 1], sums[:, n + 1:]
        delta = into[np.arange(len(into)), lay.own] - np.einsum(
            "ij...,ij->i...", both, lay.inside) // 2   # arcs V_a - T -> T
        terms = 2 * into + delta[:, None]   # [T, b] = 2 * arcs(V_b -> T) + delta(T)
        del w, each, steps, into, delta
        # T's term - 2 * arcs T <-> U + U's, doubled over the bits of U
        # under the rows T, then U put in row order: 0-2 and 1-2 first (one
        # doubling, two arrays, column-major), the larger 0-1 last
        m = self._doubled(terms[:r0 + r1, 2], 2 * both[:r0 + r1, s0 + s1:n])
        m02, m12 = m[:, :r0][lay.order[2]], m[:, r0:][lay.order[2]]
        del m
        m02 += terms[r0 + r1:, 0, None]
        m12 += terms[r0 + r1:, 1, None]
        cols = 2 * both[r0:r0 + r1, :s0]
        del sums, both
        m01 = self._doubled(terms[r0:r0 + r1, 0], cols)[lay.order[0]]
        m01 += terms[:r0, 1, None]
        self.mats = {(0, 1): m01, (0, 2): m02.swapaxes(0, 1), (1, 2): m12.swapaxes(0, 1)}

    @staticmethod
    def _doubled(term, cols) -> np.ndarray:
        """m[T, U] = term[U] - sum of cols[U, i] over the bits i of mask T,
        by doubling, with T in mask order."""
        m = np.empty((1 << cols.shape[1],) + term.shape, dtype=term.dtype)
        m[0] = term
        for i in range(cols.shape[1]):
            np.subtract(m[:1 << i], cols[:, i], out=m[1 << i:2 << i])
        return m

    def blocks(self, rows, mats=None) -> tuple[np.ndarray, ...]:
        """The blocks 0-1, 0-2, 1-2 of mats (default: self.mats) at rows."""
        (r0, r1, r2), m = rows, mats or self.mats
        return m[0, 1][r0, r1], m[0, 2][r0, r2], m[1, 2][r1, r2]

    def members(self, rows, js) -> tuple[int, ...]:
        """L for the triangle js of the split with row ranges rows: the
        vertices of its three rows."""
        return sum((s[r.start + j] for s, r, j in zip(self.layout.sets, rows, js)), ())


def min_weight_triangle(blocks, keys=None):
    """Minimum-weight triangle; blocks = (e01, e02, e12) are the 2-D edge
    weights between groups 0-1, 0-2 and 1-2.

    Returns ((j1, j2, j3), weight); the lexicographically least triple wins
    ties, and weights must be non-negative. With keys = (values, ranks,
    approx), blocks hold indices into values, a triangle weighs the sum of
    its three values, ranks[i, j] orders the sums values[i] + values[j]
    (ties equal; ranks may have more rows and columns than values), and
    approx is values as scaled floats (_scaled).

    For each (j1, j2) the search takes the first j3 minimizing e02 + e12 (or
    its rank), over pieces of j1 rows within _CHUNK_CELLS sums (_best_pairs),
    then adds e01 over the r1 * r2 cells only. Keys are added in floats, and
    exactly only in the cells within float error of the least float sum.
    """
    e01, e02, e12 = blocks
    best = _best_pairs(blocks, keys)
    r1, r2 = e01.shape
    if keys is None:
        j1, j2 = divmod(int(best.argmin()), r2)
        return (j1, j2, int((e02[j1] + e12[j2]).argmin())), int(best[j1, j2])
    values, _, approx = keys   # best holds the j3 of each (j1, j2)
    j = np.arange(max(r1, r2))
    at = (e01.ravel(), e02[j[:r1, None], best].ravel(), e12[j[:r2], best].ravel())
    floats = approx[at[0]] + approx[at[1]] + approx[at[2]]
    cell = int(floats.argmin())
    near = floats <= floats[cell] * (1 + _SLACK) + _UNDERFLOW
    if np.count_nonzero(near) > 1:   # the first least exact sum among them
        near = np.flatnonzero(near)
        sums = values[at[0][near]] + values[at[1][near]] + values[at[2][near]]
        cell = int(near[sums.argmin()])
    j1, j2 = divmod(cell, r2)
    return (j1, j2, int(best[j1, j2])), (int(values[at[0][cell]]) + int(values[at[1][cell]])
                                         + int(values[at[2][cell]]))


def _triangles(blocks) -> list:
    """min_weight_triangle, unrounded, for the graphs of a batch: their
    blocks stacked on a last axis over them. Every step runs for all of them
    at once."""
    e01, e02, e12 = blocks
    r1, r2, count = e01.shape
    flat_w = _best_pairs(blocks, None).reshape(r1 * r2, count)
    at = flat_w.argmin(axis=0)
    every = np.arange(count)
    j1, j2 = np.divmod(at, r2)
    j3 = (e02[j1, :, every] + e12[j2, :, every]).argmin(axis=1)
    return [((a, b, c), w) for a, b, c, w in
            zip(j1.tolist(), j2.tolist(), j3.tolist(), flat_w[at, every].tolist())]


def _best_pairs(blocks, keys) -> np.ndarray:
    """For each (j1, j2), the weight of the best triangle, or with keys its
    j3; blocks may be stacked on a last axis over a batch. The sums go in
    pieces of j1 rows, as many as _CHUNK_CELLS holds and at least one."""
    e01, e02, e12 = blocks
    r1, r2 = e01.shape[0], e01.shape[1]
    if not r1 * r2 * e12.shape[1]:
        raise ValueError("a block is empty: no triangle to search")
    row = e02.size // r1 * r2   # the sums of one j1 row, across a batch
    rows = range(0, r1, max(1, _CHUNK_CELLS // row))
    if keys is None:
        parts = [(e02[lo:lo + rows.step, None] + e12).min(axis=2) for lo in rows]
    else:
        width, ranks = keys[1].shape[1], keys[1].ravel()
        parts = [ranks.take(e02[lo:lo + rows.step, None] * width + e12).argmin(axis=2)
                 for lo in rows]
    pairs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return e01 + pairs if keys is None else pairs


def _scaled(keys: list[int]) -> tuple[int, np.ndarray]:
    """(scale, approx): a power of two, and keys / scale as correctly
    rounded float64s, none of whose sums of three overflows."""
    scale = 1 << max(0, keys[-1].bit_length() - 1000)
    if scale == 1:   # float(key), correctly rounded as key / 1 is
        return scale, np.array(keys, dtype=np.float64)
    return scale, np.array([key / scale for key in keys])


def _pair_ranks(keys: list[int]) -> np.ndarray:
    """ranks[i, j]: the dense rank of keys[i] + keys[j] among all such sums.

    keys are ascending, distinct, non-negative ints of any size. The sums
    are sorted by float64 value (scaled so none overflows), then again in
    exact ints inside each run of near-equal floats, a run being a stretch
    whose neighbours differ by less than the float error bound. Two sums the
    floats put in the wrong order differ by at most a few ulps plus the
    underflow, so they always fall into the same run.
    """
    approx = _scaled(keys)[1]
    i, j = np.triu_indices(len(keys))
    sums = approx[i] + approx[j]
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    fresh = np.empty(len(sums), dtype=bool)   # the dense rank grows here
    fresh[0] = True
    fresh[1:] = sums[1:] - sums[:-1] > sums[1:] * _SLACK + _UNDERFLOW
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], len(sums))
    runs = ends - starts > 1   # a run of one is in order
    for lo, hi in zip(starts[runs].tolist(), ends[runs].tolist()):
        run = order[lo:hi]
        exact = [keys[a] + keys[b] for a, b in zip(i[run].tolist(), j[run].tolist())]
        by_sum = sorted(range(hi - lo), key=exact.__getitem__)
        order[lo:hi] = run[by_sum]
        fresh[lo + 1:hi] = [exact[p] != exact[q] for q, p in pairwise(by_sum)]
    ranks = np.empty((len(keys), len(keys)), dtype=guards.int_dtype(len(sums)))
    ranks[i[order], j[order]] = ranks[j[order], i[order]] = np.cumsum(fresh) - 1
    return ranks


class _Rounding:
    """Every stored weight of one graph's pair matrices rounded up to a
    power of (1+eps/3), once per cut_profile call.

    A weight w > 0 rounds to the least e with floor(a^e / b^e) >= w, where
    1+eps/3 = a/b, and gets the key a^e * b^(emax - e): the power scaled by
    b^emax, which changes no comparison of key sums, so one table serves
    every k. A k is rounded on this grid when its largest stored weight
    smax has 1/eps <= smax <= floor((1+eps/3)^_MAX_POWERS), and searched on
    its unrounded weights otherwise: below 1/eps rounding would flip no
    comparison, and past the grid the exact cut meets every 1+eps factor.

    An eps whose denominator exceeds 2^64 is first replaced by the largest
    nonzero multiple of 2^-64 not above it, so the powers have short
    factors; a smaller eps keeps every cut within 1+eps. The pair-sum ranks
    come from the table kept for the base (_Base.rank_table), read for the first
    k on the grid once the byte guard admits it beside the pair matrices,
    the key index and the weight -> index table (nbytes).
    """

    def __init__(self, matrices: _PairMatrices, eps: Fraction):
        self.matrices = matrices
        if eps.denominator > 1 << 64:   # kept when the multiple is 0
            eps = Fraction((eps.numerator << 64) // eps.denominator, 1 << 64) or eps
        base = 1 + eps / 3
        self.a, self.b = base.numerator, base.denominator
        self.low = math.ceil(1 / eps)     # the least smax with eps * smax >= 1
        self.smax = smax = max(int(m.max()) for m in matrices.mats.values())
        # limits[e + 1] = floor(base^e), limits[0] = 0 for weight 0, read
        # from the thresholds kept for the base. None is needed when no
        # stored weight reaches low, or when base^_MAX_POWERS < low (eps
        # below about 0.0072): top / 2**64 bounds base^(2^i) from above,
        # base squared up to 11 times with 64 fraction bits rounded up.
        goal = self.low << 64
        top = -(-self.a << 64) // self.b
        for _ in range(_MAX_POWERS.bit_length() - 1):
            if top >= goal:
                break
            top = -(-top * top >> 64)
        self.base = _Base(self.a, self.b)
        self.limits = self.base.limits(smax) if self.low <= smax and top >= goal else [0]
        # the largest exponent a stored weight rounds to; past _RANK_SPAN
        # keys (wide), the keys are only the exponents in use, call by call
        self.emax = min(bisect_left(self.limits, smax), len(self.limits) - 1) - 1
        self.wide = self.emax + 2 > _RANK_SPAN

    def on_grid(self, smax: int) -> bool:
        """Whether a k whose largest stored weight is smax is rounded on the
        grid; otherwise its weights are searched unrounded."""
        # Distinct triangle sums differ by >= 1; rounding inflates a sum by
        # less than eps/3 * sum <= eps * smax, so below 1 no comparison flips.
        return self.low <= smax <= self.limits[-1]

    @cached_property
    def table(self) -> int:
        """Entries of the weight -> index table that keys the matrices: one
        per weight up to smax, or up to one past the last limit, above
        which every weight takes the last index. 0 keys them by
        searchsorted instead: Python-int weights, fewer than
        _TABLE_MIN_CELLS matrix cells, or more than _TABLE_CELLS table
        entries per cell."""
        mats = self.matrices.mats
        size = min(self.smax, self.limits[-1] + 1) + 1
        cells = sum(m.size for m in mats.values())
        if (mats[0, 1].dtype == object or cells < _TABLE_MIN_CELLS
                or size > _TABLE_CELLS * cells):
            return 0
        return size

    @cached_property
    def nbytes(self) -> int:
        """The pair matrices' bytes, plus an intp key index of each of their
        entries, one matrix's worth of keying temporaries and the intp
        weight -> index table."""
        cells = [m.size for m in self.matrices.mats.values()]
        return self.matrices.nbytes + 8 * (sum(cells) + max(cells) + self.table)

    @cached_property
    def grid(self) -> tuple[dict, np.ndarray]:
        """(index, values): index[a, b] maps each entry of the pair matrix
        (a, b) to its key in the ascending values, row-major. values holds
        the keys of the exponents -1..emax, index i that of exponent i - 1,
        or on a wide grid (more than _RANK_SPAN of them) only the exponents
        in use. Each matrix is keyed in its memory order, and the index
        matrices, table and keying temporaries are guarded before they are
        built (nbytes)."""
        guards.check(self.nbytes, "cut pair matrix and key index bytes")
        limits, mats = self.limits, self.matrices.mats
        last = len(limits) - 1   # also the index of weights past the last limit
        if self.table:   # weight w at the least i with limits[i] >= w
            top = self.table - 1
            ends = [min(t, top) for t in limits[:-1]] + [top]
            lookup = np.repeat(np.arange(len(limits)), np.diff(ends, prepend=-1))

            def key(m):
                return lookup.take(m, mode="clip")
        else:   # past the next-to-last limit, the last index
            if mats[0, 1].dtype == object:
                limits = np.array(limits[:-1], dtype=object)
            else:   # every stored weight is below 2**62
                limits = np.array([min(t, 2 ** 62) for t in limits[:-1]], dtype=np.int64)

            def key(m):
                return np.searchsorted(limits, m)
        index = {pair: key(m) if m.flags.c_contiguous else key(m.T).T   # m.T: m
                 for pair, m in mats.items()}                           # column-major
        exps = range(-1, self.emax + 1)   # -1 for weight 0
        if self.wide:
            used = np.zeros(last + 1, dtype=bool)
            for idx in index.values():
                used[idx] = True
            exps = (np.flatnonzero(used) - 1).tolist()
            compact = np.cumsum(used) - 1
            for pair, idx in index.items():   # row-major, as the kernel reads them
                index[pair] = compact.take(idx)
        keys = self.base.keys(exps, self.emax)
        return index, np.array(keys, dtype=guards.int_dtype(3 * keys[-1]))

    @cached_property
    def ranks(self) -> np.ndarray:
        """Pair-sum ranks of the grid's keys: the leading rows and columns
        of the table kept for the base (_Base.rank_table), or on a wide grid a
        table of the keys in use, built for this call."""
        keys = self.grid[1]
        held = None if self.wide else self.base.ranks
        if held is not None and len(held) < len(keys):
            held = None   # to be rebuilt larger
        guards.check(self.nbytes + (_RANK_BYTES * len(keys) ** 2 if held is None
                                    else held.nbytes),
                     "cut pair matrix, key index and rank table bytes")
        if self.wide:
            return _pair_ranks(keys.tolist())
        return self.base.rank_table(len(keys))

    @cached_property
    def k_max(self) -> list:
        """[k]: the largest stored weight of the splits of k, from the
        largest weight between the size-ka and size-kb subsets of each
        part pair (a, b)."""
        at = [[r.start for r in rows] for rows in self.matrices.rows]
        m01, m02, m12 = (np.maximum.reduceat(np.maximum.reduceat(m, at[a]), at[b], 1)
                         for (a, b), m in self.matrices.mats.items())
        split = np.maximum(np.maximum(m01[:, :, None], m02[:, None]), m12)
        k1, k2, k3 = self.matrices.layout.shares.T   # by k
        return np.maximum.reduceat(split[k1, k2, k3], self.matrices.layout.first[:-1]).tolist()


@lru_cache(maxsize=_BASES)
class _Base:
    """The thresholds floor(a^e / b^e) of one base a/b = 1+eps/3 as far as a
    call has needed them, the powers (a^e, b^e) of the first _RANK_SPAN of
    them, which make the keys of every grid but a wide one, and the
    pair-sum ranks of those keys, kept for the _BASES bases used last."""

    def __init__(self, a: int, b: int):
        self.a, self.b, self.ranks = a, b, None
        self.floors, self.powers, self.last = [1], [(1, 1)], (1, 1)

    def limits(self, smax: int) -> list:
        """0, then floor(base^e) for e = 0, 1, ... up to the first that
        reaches smax, or to e = _MAX_POWERS."""
        floors = self.floors
        while floors[-1] < smax and len(floors) <= _MAX_POWERS:
            pa, pb = self.last = self.last[0] * self.a, self.last[1] * self.b
            floors.append(pa // pb)
            if len(self.powers) < _RANK_SPAN:
                self.powers.append(self.last)
        return [0] + floors[:min(bisect_left(floors, smax), _MAX_POWERS) + 1]

    def keys(self, exps, emax: int) -> list:
        """The key a^e * b^(emax - e) of each exponent e of exps, 0 for -1."""
        if emax >= len(self.powers):   # a wide grid's
            return [self.a ** e * self.b ** (emax - e) if e >= 0 else 0 for e in exps]
        return [self.powers[e][0] * self.powers[emax - e][1] if e >= 0 else 0 for e in exps]

    def rank_table(self, size: int) -> np.ndarray:
        """Pair-sum ranks of at least size keys: as every key scales by the
        same power of b, their order serves every smaller emax; a larger
        emax rebuilds them."""
        if self.ranks is None or len(self.ranks) < size:
            self.ranks = None   # freed before the larger one is built
            self.ranks = _pair_ranks(self.keys(range(-1, size - 1), size - 2))
        return self.ranks


class _Bounds:
    """Lower bounds on the triangle weights of the splits of ks over one
    matrix set (mats, as _PairMatrices.mats), with a last axis over the
    members of a batch, a lone graph's of length 1:

    - lb[i, j1, k2]: on every triangle through row j1 of part 0 with the
      size-k2 subsets of part 1 and the size-k3 subsets of part 2, where
      k3 = ks[i] - k1 - k2 and k1 is the size of j1;
    - sb[i, k1, k2]: the least lb of the size-k1 rows, on the whole split.

    One pass over the 0-1 matrix bounds every k: each piece of rows is
    summed with the 1-2 terms of every layer at once, a layer being a k or,
    over a wide range of ks, a k3 (_Layout.plan), and each k's bound takes the
    minima of its layer.

    With values, the grid's ascending keys, mats hold indices into them,
    and the bounds are float sums of the keys divided by a power of two,
    scale (_scaled); limit widens a best weight to match.
    """

    def __init__(self, mats, rows, ks, values=None):
        self.scale, self.approx = (None, None) if values is None else _scaled(values.tolist())
        approx = self.approx
        at = [[r.start for r in part] for part in rows]
        c02, c12 = (np.minimum.reduceat(mats[p], at[2], axis=1)
                    for p in ((0, 2), (1, 2)))   # the least entry per k3
        m01 = mats[0, 1]
        if approx is not None:   # the least index holds the least key
            c02, c12 = approx[c02], approx[c12]
        k1s, pick12, pick02, pick, *_ = _Layout(tuple(len(a) - 1 for a in at)).plan(tuple(ks))
        g12 = c12.reshape((-1,) + c12.shape[2:])[pick12]   # [l, k1, j2]: c12[j2, k3]
        lb = c02.reshape((-1,) + c02.shape[2:])[pick02]    # [l, j1, k2]: c02[j1, k3]
        count = len(pick12)
        step = max(1, _BOUND_CELLS // (count * m01[0].size))   # rows of m01 at a time
        # those rows' terms for every layer, and with values the rows' own
        # keys; one buffer, as fresh arrays per piece peaked up to 1.8x
        # higher at n = 20-26 and were no faster (0.96-1.04x at n = 9-26)
        temp = np.empty((count + (approx is not None)) * min(step, len(m01)) * m01[0].size,
                        dtype=c12.dtype)
        for lo in range(0, len(m01), step):
            rows01 = m01[lo:lo + step]
            size = count * rows01.size
            sums = g12.take(k1s[lo:lo + step], axis=1, mode="clip",
                            out=temp[:size].reshape((count,) + rows01.shape))
            if approx is not None:
                rows01 = approx.take(rows01, mode="clip",
                                     out=temp[size:size + rows01.size].reshape(rows01.shape))
            sums += rows01
            lb[:, lo:lo + step] += np.minimum.reduceat(sums, at[1], axis=2)
        if pick is not None:   # each k's bounds from the layers of its k3
            lb = lb.reshape((-1,) + lb.shape[3:])[pick]
        self.lb = lb.reshape(lb.shape[:3] + (-1,))
        self.sb = np.minimum.reduceat(self.lb, at[0], axis=1)

    def limit(self, weight):
        """The largest bound a row or split may have and still hold a
        triangle of weight at most weight; exact, or for keys widened past
        every float error of the bounds."""
        if self.scale is None:
            return weight
        return weight / self.scale * (1 + _SLACK) + _UNDERFLOW


def cut_profile(g: Digraph, ks, eps=None,
                counters: Counters | None = None) -> dict[int, CutSolution]:
    """Minimum (k, n-k)-cut for every k in ks, from pair matrices built once.

    eps=None gives the exact cut; a positive eps the (1+eps)-approximate
    rounded search. Within one k, the lower weight wins, then the
    lexicographically smaller vertex set. The matrices are dropped on return.
    """
    return _cut_profiles([g], ks, eps, [counters])[0]


def _cut_profiles(graphs, ks, eps, counters) -> list[dict[int, CutSolution]]:
    """cut_profile for graphs with one vertex count, one Counters or None
    each. The exact search runs on the stacked pair matrices of graphs of
    one batch key (the module doc), as many at a time as the byte guard
    admits, which each graph's matrices alone must meet. A rounded search keys each
    graph's weights in a table of its own, so each graph is a batch of one.

    Each Counters' triangles grows by the cells its search examined.
    """
    n = graphs[0].n
    ks = list(ks)
    for k in ks:
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside 0..{n}")
    guards.check_universe(n)
    if eps is not None:
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
    parts = tripartition(n)
    bounds = [2 * g.total_arc_weight for g in graphs]
    for bound in bounds:
        guards.check(_pair_bytes(parts, bound, len(ks)), "cut pair matrix bytes")

    def room(batch) -> int:
        if eps is not None:
            return 1
        return guards.fits(_pair_bytes(parts, max(bounds[i] for i in batch), len(ks)))

    profiles = [None] * len(graphs)
    for batch in guards.batches([guards.int_dtype(b) is object for b in bounds], room):
        found, cells = _search([graphs[i] for i in batch], parts, ks, eps)
        for i, profile in zip(batch, found):
            profiles[i] = profile
            if counters[i] is not None:
                counters[i].triangles += cells
    return profiles


def _search(graphs, parts, ks, eps) -> tuple[list[dict[int, CutSolution]], int]:
    """The cut search of one batch, pruned by _Bounds: each split of each k
    in ascending bound (one stable sort for a group of ks) until one exceeds
    every member's best weight, and in a split only the rows that may still
    win. The ks searched unrounded and those on the rounding grid are each
    bounded and searched by one body, over the pair matrices or over the
    grid's key indices and values, one group at a time. Returns the
    profiles, keyed in ks order, and the cells examined, the same for every
    member. A lone graph's splits go through min_weight_triangle, which a
    traced run records as a span; a batch's (never rounded) through
    _triangles."""
    matrices = _PairMatrices(graphs, parts, len(ks))
    rounding = None if eps is None else _Rounding(matrices, eps)
    on_grid = [False] * len(ks)
    if rounding is not None and rounding.low == 1 and rounding.limits[-1] >= rounding.smax > 0:
        # 1/eps <= 1 and every weight under the last limit: each k = 1..n-1
        # is on the grid untested, as an L of size k cut by a positive arc
        # has a triangle of weight >= 2, so k_max[k] >= 1 (k = 0, n: 0)
        on_grid = [0 < k < graphs[0].n for k in ks]
    elif rounding is not None and rounding.limits[-1] > 0:
        on_grid = [rounding.on_grid(rounding.k_max[k]) for k in ks]
    lone = len(graphs) == 1
    found = {}   # [k][member]: (weight, L)
    cells = 0
    for grid in (False, True):
        group = [k for k, on in zip(ks, on_grid) if on == grid]
        if not group:
            continue
        mats, values = rounding.grid if grid else (matrices.mats, None)
        bounds = _Bounds(mats, matrices.rows, group, values)
        keys = None if values is None else (values, rounding.ranks, bounds.approx)
        *_, seg, shares, split_rows, ends = matrices.layout.plan(tuple(group))
        least = bounds.sb.min(axis=-1)[seg, shares[:, 0], shares[:, 1]]   # the least member's
        order = np.lexsort((least, seg)).tolist()   # by k, then ascending bound
        least, k2s = least.tolist(), shares[:, 1].tolist()
        for lb, k, lo, hi in zip(bounds.lb, group, [0] + ends, ends):
            lb = lb[..., 0] if lone else lb
            best, top = [(math.inf,)] * len(graphs), None
            for s in order[lo:hi]:
                if top is not None and least[s] > top:
                    break
                rows = split_rows[s]
                e01, e02, e12 = matrices.blocks(rows, mats)
                keep = None
                if top is not None:   # the rows that may win; copied if any is not
                    hit = lb[rows[0], k2s[s]] <= limits
                    keep = (hit if lone else hit.any(axis=1)).nonzero()[0]
                    if not keep.size:
                        continue
                    if keep.size < len(e01):
                        e01, e02 = e01[keep], e02[keep]
                cells += len(e01) * e12.shape[0] * e12.shape[1]
                triangles = ([min_weight_triangle((e01, e02, e12), keys)] if lone
                             else _triangles((e01, e02, e12)))
                for m, ((j1, j2, j3), weight) in enumerate(triangles):
                    if eps is None and weight % 2:
                        raise AssertionError("stored triangle weight must be even")
                    if weight <= best[m][0]:   # L is built for candidates only
                        js = j1 if keep is None else int(keep[j1]), j2, j3
                        best[m] = min(best[m], (weight, matrices.members(rows, js)))
                        top = None
                if top is None:   # each member's largest bound that may still win
                    limits = [bounds.limit(w) for w, _ in best]
                    top, limits = max(limits), limits[0] if lone else np.array(limits)
            found[k] = best
        del bounds, lb   # one group's bounds at a time
    profiles = [{} for _ in graphs]
    for k in ks:
        for g, profile, (weight, l) in zip(graphs, profiles, found[k]):
            value = cut_into(g, l)
            if eps is None and 2 * value != weight:
                raise AssertionError(f"dkmc value {weight // 2}, cut_into {value}")
            profile[k] = CutSolution(l, k, value)
    return profiles, cells


def dkmc_exact(g: Digraph, k: int, counters: Counters | None = None) -> CutSolution:
    """Exact directed minimum (k, n-k)-cut via the triangle construction."""
    return cut_profile(g, [k], None, counters)[k]


def dkmc_weighted_approx(g: Digraph, k: int, eps,
                         counters: Counters | None = None) -> CutSolution:
    """(1+eps)-approximate DKMC via weight rounding; value is unrounded."""
    return cut_profile(g, [k], eps, counters)[k]

