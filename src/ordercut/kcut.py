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
lays out the matrices and names the members of L. Entries take
guards.int_dtype(2 * total arc weight), which bounds every entry, partial
sum and triangle sum.
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
sb[k][k1, k2]. One pass over the 0-1 matrix bounds every k at once.
Each k visits its splits in ascending sb and stops at the first whose sb
exceeds the best weight found; a visited split hands the kernel only the
rows with lb <= best. The <= keeps every tied triangle, so the
smallest-vertex tie-break is unchanged. A batch keeps a row where any
member's lb is at most that member's best. Counters'
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
is kept across calls and read through its leading rows and columns
(_rank_table); a grid of more than _RANK_SPAN keys ranks only the
exponents in use, call by call.
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
from functools import cache, cached_property
from itertools import accumulate, combinations, pairwise

import numpy as np

from . import guards
from .graph import Digraph, cut_into
from .report import Counters

_PAIRS = ((0, 1), (0, 2), (1, 2))
_CHUNK_CELLS = 1 << 13     # pair sums per search step, or one j1 row's
_BOUND_CELLS = 1 << 16     # 0-1 terms held at once by the bounds
_MAX_POWERS = 2048         # past this many powers of 1+eps/3, no rounding
_PAIR_TEMPS = 1.05         # largest pair matrices live in temporaries (RSS fit)
_RANK_BYTES = 66           # peak bytes of _pair_ranks per key squared (RSS fit)
_RANK_TABLES = 4           # bases whose pair-sum ranks a process keeps
_RANK_SPAN = 256           # most keys of a kept rank table (66 * 256^2 = 4.3 MB)
_TABLE_CELLS = 4           # most weight -> index table entries per matrix cell
_TABLE_MIN_CELLS = 1 << 12  # below: searchsorted beats the table's set-up
_SLACK = 2.0 ** -48        # relative float error a key bound may hide
_UNDERFLOW = 2.0 ** -1060  # absolute error of three underflowed scaled keys

_rank_tables: dict = {}    # (a, b): _rank_table's tables, least recently used first


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


def _bound_cells(sizes, count: int) -> int:
    """Entries _Bounds holds at its peak for count ks over parts of sizes
    (s0, s1, s2), exact or keyed: per k, lb, at most as many minima added
    to it, sb and the gathered 1-2 terms; the least 0-2 and 1-2 entries per
    k3 (keyed: their key indices too); and the terms of the rows of m01
    bounded at a time for every k, with those rows' keys."""
    s0, s1, s2 = sizes
    piece = min(count << s0 + s1, max(_BOUND_CELLS, count << s1))   # rows of m01 at a time
    least = 2 * ((1 << s0) + (1 << s1)) * (s2 + 1)                  # c02 and c12
    per_k = 2 * (s1 + 1 << s0) + (s0 + 1) * (s1 + 1) + (s0 + 1 << s1)
    return count * per_k + least + 2 * piece


def _pair_bytes(parts, bound: int, count: int) -> int:
    """Bytes of one graph's pair matrices, whose entries stay below bound,
    plus one more largest matrix, which lives in temporaries (RSS fit), and
    the search's row and split bounds (_Bounds) for count ks, at 8 bytes a
    cell at least (keyed bounds are float64, row indices intp)."""
    entry = guards.entry_bytes(guards.int_dtype(bound), bound)
    sizes = [len(p) for p in parts]
    cells = [1 << sizes[a] + sizes[b] for a, b in _PAIRS]
    bounds = _bound_cells(sizes, count)
    return int((sum(cells) + _PAIR_TEMPS * max(cells)) * entry + bounds * max(entry, 8))


class _PairMatrices:
    """Stored edge weights between all subsets of two parts, for every pair,
    of the graphs of a batch with one vertex count, stacked on a last axis
    over them: mats[a, b][..., i] is graph i's matrix. A lone graph's have
    no such axis.

    Each part's subsets are listed in (size, lex) order (_mask_order), so
    the size-k ones of part i form the row range rows[i][k] of its matrices,
    and bits[i][r] holds the mask bits of row r, from which members reads L.
    Each term sums over the bits of subset masks, by doubling, and is put in
    row order once.
    """

    def __init__(self, graphs, parts, count: int = 1):
        bound = 2 * max(g.total_arc_weight for g in graphs)
        dtype = guards.int_dtype(bound)
        # guard the bytes first, with the search's bounds for count ks
        self.nbytes = len(graphs) * _pair_bytes(parts, bound, count)
        guards.check(self.nbytes, guards.TABLE_BYTE_GUARD, "cut pair matrix bytes")
        self.parts = parts
        n = graphs[0].n
        batch = (len(graphs),) if len(graphs) > 1 else ()
        w = np.zeros((n, 2, n) + batch, dtype=dtype)   # [u, 0, v]: u -> v, [v, 1, u]
        for g, wg in zip(graphs, guards.batch_views(w, len(graphs))):
            g.fill_weights(wg[:, 0], wg[:, 1].T)
        at = [np.array(p, dtype=np.intp) for p in parts]
        order, self.bits, self.rows = zip(*(_mask_order(len(p)) for p in parts))
        bits = [b.reshape(b.shape + (1,) * len(batch)) for b in self.bits]
        arcs = []   # [T, 0, y]: arcs T -> y, [T, 1, y]: y -> T, T in row order
        for p, o in zip(parts, order):
            sums = np.zeros((1 << len(p), 2, n) + batch, dtype=dtype)
            for i, v in enumerate(p):   # doubling: the masks whose top bit is i
                np.add(sums[:1 << i], w[v], out=sums[1 << i:2 << i])
            arcs.append(sums[o])
        terms = []   # [a][b][T] = 2 * arcs(V_b -> T) + delta(T) for T of part a
        for a, t in enumerate(arcs):
            into = [t[:, 1, s].sum(axis=1, dtype=dtype) for s in at]
            delta = into[a] - (t[:, 0, at[a]] * bits[a]).sum(axis=1, dtype=dtype)   # - T -> T
            terms.append([2 * x + delta for x in into])
        both = {(a, b): 2 * arcs[a][:, :, at[b]].sum(axis=1, dtype=dtype) for a, b in _PAIRS}
        del arcs, sums, t   # both[a, b][T, y] = 2 * arcs T <-> y; sums freed
        self.mats = {}
        for (a, b), cols in both.items():   # T's term - 2 * arcs T <-> U + U's
            m = np.empty((1 << len(parts[b]), len(cols)) + batch, dtype=dtype)   # [U, T]
            m[0] = terms[a][b]
            for j in range(len(parts[b])):   # doubling over the bits of U
                np.subtract(m[:1 << j], cols[:, j], out=m[1 << j:2 << j])
            # [T, U], column-major: faster min over j3; but 0-1 row-major,
            # as _Bounds reduces it over U and the search takes its rows
            m = m[order[b]].swapaxes(0, 1)
            if b == 1:
                m = np.ascontiguousarray(m)
            m += terms[b][a]
            self.mats[a, b] = m

    def blocks(self, rows, mats=None) -> tuple[np.ndarray, ...]:
        """The blocks 0-1, 0-2, 1-2 of mats (default: self.mats) at rows."""
        (r0, r1, r2), m = rows, mats or self.mats
        return m[0, 1][r0, r1], m[0, 2][r0, r2], m[1, 2][r1, r2]

    def members(self, rows, js) -> tuple[int, ...]:
        """L for the triangle js of the split with row ranges rows: the
        vertices whose bits are set in the masks of its three rows."""
        return tuple(v for part, bits, r, j in zip(self.parts, self.bits, rows, js)
                     for v, bit in zip(part, bits[r.start + j].tolist()) if bit)


def min_weight_triangle(blocks, keys=None):
    """Minimum-weight triangle; blocks = (e01, e02, e12) are the 2-D edge
    weights between groups 0-1, 0-2 and 1-2.

    Returns ((j1, j2, j3), weight); the lexicographically least triple wins
    ties, and weights must be non-negative. With keys = (values, ranks) or
    (values, ranks, approx), blocks hold indices into values, a triangle
    weighs the sum of its three values, ranks[i, j] orders the sums
    values[i] + values[j] (ties equal; ranks may have more rows and columns
    than values), and approx is values as scaled floats (_scaled).

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
    values = keys[0]   # best holds the j3 of each (j1, j2)
    approx = keys[2] if len(keys) > 2 else _scaled(values.tolist())[1]
    at = (e01.ravel(), e02[np.arange(r1)[:, None], best].ravel(),
          e12[np.arange(r2), best].ravel())
    floats = approx[at[0]] + approx[at[1]] + approx[at[2]]
    cell = int(floats.argmin())
    near = floats <= floats[cell] * (1 + _SLACK) + _UNDERFLOW
    if np.count_nonzero(near) > 1:   # the first least exact sum among them
        near = np.flatnonzero(near)
        sums = values[at[0][near]] + values[at[1][near]] + values[at[2][near]]
        cell = int(near[sums.argmin()])
    j1, j2 = divmod(cell, r2)
    return (j1, j2, int(best[j1, j2])), sum(int(values[a[cell]]) for a in at)


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


def _splits(parts, k: int):
    for k1 in range(min(k, len(parts[0])) + 1):
        for k2 in range(min(k - k1, len(parts[1])) + 1):
            if k - k1 - k2 <= len(parts[2]):
                yield (k1, k2, k - k1 - k2)


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
    fresh[1:] = sums[1:] - sums[:-1] > sums[1:] * 2.0 ** -48 + 2.0 ** -1060
    starts = np.flatnonzero(fresh)
    ends = np.append(starts[1:], len(sums))
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        if hi - lo < 2:
            continue
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
    come from the table kept for the base (_rank_table), read for the first
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
        # limits[e + 1] = floor(base^e), limits[0] = 0 for weight 0. No power
        # is built when no stored weight reaches low, or when base^_MAX_POWERS
        # < low (eps below about 0.0072): top / 2**64 bounds base^(2^i) from
        # above, base squared up to 11 times with 64 fraction bits rounded up.
        goal = self.low << 64
        top = -(-self.a << 64) // self.b
        for _ in range(_MAX_POWERS.bit_length() - 1):
            if top >= goal:
                break
            top = -(-top * top >> 64)
        self.limits = [0]
        if self.low <= smax and top >= goal:
            self.limits.append(1)
            pa = pb = 1
            while self.limits[-1] < smax and len(self.limits) - 1 <= _MAX_POWERS:
                pa, pb = pa * self.a, pb * self.b
                self.limits.append(pa // pb)
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
        guards.check(self.nbytes, guards.TABLE_BYTE_GUARD,
                     "cut pair matrix and key index bytes")
        limits, mats = self.limits, self.matrices.mats
        last = len(limits) - 1   # also the index of weights past the last limit
        if self.table:   # weight w at the least i with limits[i] >= w
            top = self.table - 1
            ends = [min(t, top) for t in limits[:-1]] + [top]
            lookup = np.repeat(np.arange(len(limits)), np.diff(ends, prepend=-1))

            def key(m):
                return lookup.take(m, mode="clip")
        else:
            if mats[0, 1].dtype == object:
                limits = np.array(limits, dtype=object)
            else:   # every stored weight is below 2**62
                limits = np.array([min(t, 2 ** 62) for t in limits], dtype=np.int64)

            def key(m):
                idx = np.searchsorted(limits, m)
                return np.minimum(idx, last, out=idx)
        index = {pair: key(m) if m.flags.c_contiguous else key(m.T).T   # m.T: m
                 for pair, m in mats.items()}                           # column-major
        emax = self.emax
        if not self.wide:
            return index, _keys(self.a, self.b, emax)
        used = np.zeros(last + 1, dtype=bool)
        for idx in index.values():
            used[idx] = True
        exps = (np.flatnonzero(used) - 1).tolist()   # -1 for weight 0
        compact = np.cumsum(used) - 1
        for pair, idx in index.items():   # row-major, as the kernel reads them
            index[pair] = compact.take(idx)
        keys = [self.a ** e * self.b ** (emax - e) if e >= 0 else 0 for e in exps]
        return index, np.array(keys, dtype=guards.int_dtype(3 * keys[-1]))

    @cached_property
    def ranks(self) -> np.ndarray:
        """Pair-sum ranks of the grid's keys: the leading rows and columns
        of the table kept for the base (_rank_table), or on a wide grid a
        table of the keys in use, built for this call."""
        keys = self.grid[1]
        held = None if self.wide else _rank_tables.get((self.a, self.b))
        if held is not None and len(held) < len(keys):
            held = None   # to be rebuilt larger
        guards.check(self.nbytes + (_RANK_BYTES * len(keys) ** 2 if held is None
                                    else held.nbytes),
                     guards.TABLE_BYTE_GUARD,
                     "cut pair matrix, key index and rank table bytes")
        if self.wide:
            return _pair_ranks(keys.tolist())
        return _rank_table(self.a, self.b, len(keys))

    @cached_property
    def k_max(self) -> list:
        """[k]: the largest stored weight of the splits of k, from the
        largest weight between the size-ka and size-kb subsets of each
        part pair (a, b)."""
        at = [[r.start for r in rows] for rows in self.matrices.rows]
        m01, m02, m12 = (np.maximum.reduceat(np.maximum.reduceat(m, at[a]), at[b], 1)
                         for (a, b), m in self.matrices.mats.items())
        split = np.maximum(np.maximum(m01[:, :, None], m02[:, None]), m12)
        order, starts = _by_k(split.shape)
        return np.maximum.reduceat(split.ravel().take(order), starts).tolist()


def _keys(a: int, b: int, emax: int) -> np.ndarray:
    """The keys of the exponents -1..emax of the base a/b: 0, then
    a^e * b^(emax - e), at a width that holds any sum of three."""
    keys = [0]
    for e in range(emax + 1):
        keys.append(keys[-1] // b * a if e else b ** emax)
    return np.array(keys, dtype=guards.int_dtype(3 * keys[-1]))


def _rank_table(a: int, b: int, size: int) -> np.ndarray:
    """Pair-sum ranks of at least size keys of the base a/b (_keys), kept
    across calls for the _RANK_TABLES bases used last. The order of two
    keys' sums does not depend on emax, as every key scales by the same
    power of b, so a table built for one emax serves every smaller one
    through its leading rows and columns; a larger emax rebuilds it."""
    table = _rank_tables.pop((a, b), None)
    if table is None or len(table) < size:
        table = None   # freed before the larger one is built
        table = _pair_ranks(_keys(a, b, size - 2).tolist())
    _rank_tables[a, b] = table
    if len(_rank_tables) > _RANK_TABLES:
        del _rank_tables[next(iter(_rank_tables))]   # the least recently used
    return table


@cache
def _by_k(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the cells (k1, k2, k3) of an array of shape,
    flattened and ordered by k = k1 + k2 + k3, and where each k starts."""
    k = np.indices(shape).sum(axis=0).ravel()
    order = np.argsort(k, kind="stable")
    return order, np.searchsorted(k[order], np.arange(sum(shape) - 2))


@cache
def _k_index(sizes, ks: tuple) -> tuple:
    """(k1s, pick12, pick02) for the bounds of ks over parts of sizes
    (s0, s1, s2): k1s[j1], the size of row j1 of part 0; pick12[i, k1, j2],
    the place of (j2, k3) in c12 flattened, and pick02[i, j1, k2], that of
    (j1, k3) in c02, where k3 = ks[i] - k1 - k2 is clipped to 0..s2. A k3
    is clipped only for a (k1, k2) that is no split of ks[i], whose bounds
    are never read, and all of a (k1, k2) share one k3, so no minimum mixes
    a clipped k3 with a true one."""
    s0, s1, s2 = sizes
    k1s, k2s = (_mask_order(s)[1].sum(axis=1) for s in (s0, s1))
    ks = np.array(ks)[:, None, None]
    k3 = np.clip(ks - np.arange(s0 + 1)[:, None] - k2s, 0, s2)
    pick12 = np.arange(1 << s1) * (s2 + 1) + k3
    k3 = np.clip(ks - k1s[:, None] - np.arange(s1 + 1), 0, s2)
    pick02 = np.arange(1 << s0)[:, None] * (s2 + 1) + k3
    return k1s, pick12, pick02


class _Bounds:
    """Lower bounds on the triangle weights of the splits of ks over one
    matrix set (mats, as _PairMatrices.mats), with a last axis over the
    members of a batch, a lone graph's of length 1:

    - lb[i, j1, k2]: on every triangle through row j1 of part 0 with the
      size-k2 subsets of part 1 and the size-k3 subsets of part 2, where
      k3 = ks[i] - k1 - k2 and k1 is the size of j1;
    - sb[i, k1, k2]: the least lb of the size-k1 rows, on the whole split.

    One pass over the 0-1 matrix bounds every k: the row's size k1 and k2
    fix each k's k3 (_k_index), and each piece of rows is summed with the
    1-2 terms of every k at once.

    With values, the grid's ascending keys, mats hold indices into them,
    and the bounds are float sums of the keys divided by a power of two,
    scale (_scaled); limits widens a best weight to match.
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
        k1s, pick12, pick02 = _k_index(tuple(len(a) - 1 for a in at), tuple(ks))
        g12 = c12.reshape((-1,) + c12.shape[2:])[pick12]   # [i, k1, j2]: c12[j2, k3]
        lb = c02.reshape((-1,) + c02.shape[2:])[pick02]    # [i, j1, k2]: c02[j1, k3]
        count = len(pick12)
        step = max(1, _BOUND_CELLS // (count * m01[0].size))   # rows of m01 at a time
        # those rows' terms for every k, and with values the rows' own keys;
        # one buffer, as fresh arrays per piece peaked up to 1.8x higher at
        # n = 20-26 and were no faster (0.96-1.04x at n = 9-26, 2 CPUs)
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
        self.lb = lb.reshape(lb.shape[:3] + (-1,))
        self.sb = np.minimum.reduceat(self.lb, at[0], axis=1)

    def limits(self, weights) -> list:
        """The largest bound a row or split may have, member by member, and
        still hold a triangle of weight at most weights; exact, or for keys
        widened past every float error of the bounds."""
        if self.scale is None:
            return weights
        return [w / self.scale * (1 + _SLACK) + _UNDERFLOW for w in weights]


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
    guards.check(n, guards.EXACT_DP_GUARD, "dkmc vertex count")
    if eps is not None:
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
    parts = tripartition(n)
    bounds = [2 * g.total_arc_weight for g in graphs]
    for bound in bounds:
        guards.check(_pair_bytes(parts, bound, len(ks)), guards.TABLE_BYTE_GUARD,
                     "cut pair matrix bytes")

    def room(batch) -> int:
        if eps is not None:
            return 1
        return guards.TABLE_BYTE_GUARD // _pair_bytes(
            parts, max(bounds[i] for i in batch), len(ks))

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
    in ascending bound until one exceeds every member's best weight, and in
    a split only the rows that may still win. The ks searched unrounded and
    those on the rounding grid are each bounded and searched by one body,
    over the pair matrices or over the grid's key indices and values, one
    group at a time. Returns the profiles, keyed in ks order, and the cells
    examined, the same for every member. A lone graph's splits go through
    min_weight_triangle, which a traced run records as a span; a batch's
    (never rounded) through _triangles."""
    matrices = _PairMatrices(graphs, parts, len(ks))
    rounding = None if eps is None else _Rounding(matrices, eps)
    on_grid = [rounding is not None and rounding.on_grid(rounding.k_max[k]) for k in ks]
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
        for k, lb, sb in zip(group, bounds.lb, bounds.sb):
            splits = list(_splits(parts, k))
            split_bounds = sb[tuple(zip(*splits))[:2]].tolist()   # [split][member]
            best = [(math.inf,)] * len(graphs)
            for s in sorted(range(len(splits)), key=lambda s: min(split_bounds[s])):
                rows = [r[size] for r, size in zip(matrices.rows, splits[s])]
                keep = np.arange(rows[0].stop - rows[0].start)
                if best[0][0] < math.inf:   # every member has a weight to beat
                    limits = bounds.limits([w for w, _ in best])
                    if min(split_bounds[s]) > max(limits):
                        break
                    keep = np.flatnonzero((lb[rows[0], splits[s][1]] <= limits).any(axis=1))
                    if not keep.size:
                        continue
                e01, e02, e12 = matrices.blocks(rows, mats)
                blocks = e01[keep], e02[keep], e12
                cells += keep.size * e12.shape[0] * e12.shape[1]
                triangles = ([min_weight_triangle(blocks, keys)] if lone
                             else _triangles(blocks))
                for i, ((j1, j2, j3), weight) in enumerate(triangles):
                    if eps is None and weight % 2:
                        raise AssertionError("stored triangle weight must be even")
                    if weight <= best[i][0]:   # L is built for candidates only
                        js = int(keep[j1]), j2, j3
                        best[i] = min(best[i], (weight, matrices.members(rows, js)))
            found[k] = best
        del bounds, lb, sb   # one group's bounds at a time
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


def dkmc_oracle(g: Digraph, k: int) -> CutSolution:
    """Exact minimum by trying every size-k subset (independent of the
    triangle construction). Guarded by C(n, k)."""
    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    guards.check(math.comb(n, k), guards.DKMC_ORACLE_GUARD,
                 "dkmc_oracle subset count")
    in_pairs = g.in_pairs
    best = None
    best_l = None
    for combo in combinations(range(n), k):
        inside = set(combo)
        value = sum(w for v in combo for u, w in in_pairs[v] if u not in inside)
        if best is None or value < best:
            best, best_l = value, combo
    return CutSolution(best_l, k, best)
