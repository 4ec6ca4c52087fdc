"""Directed minimum (k, n-k)-cut: pick L with |L| = k minimizing the weight
of arcs entering L from outside.

The exact solver splits V into three fixed index-contiguous parts V1, V2, V3
of near-equal size. For every split k = k1+k2+k3 it builds a complete
tripartite auxiliary graph with one node per size-k_i subset T of V_i. A node
carries delta(T), the weight of arcs from V_i - T into T; an edge between
T (in part a) and U (in part b) stores

    2 * [ arcs(V_a - T -> U) + arcs(V_b - U -> T) ] + delta(T) + delta(U)

so that every triangle's stored weight is exactly twice the cut value of
L = T1 u T2 u T3 (each delta appears in two edges at half weight; doubling
keeps everything integral). The minimum-weight triangle therefore locates the
optimal L for that split.

A stored edge weight depends only on (T, U), never on k. cut_profile
therefore builds, once per graph, one matrix per part pair over every subset
of each part (two integer matrix products plus rank-1 terms), and each split's
auxiliary graph is a block of those matrices. Entries are int64 while
2 * total arc weight < 2**62, which bounds every entry and triangle sum, and
exact Python ints (dtype=object) beyond that.

The rounded search runs the same triangle search after rounding each nonzero
stored edge weight up to a power of (1+eps/3), which keeps the number of
distinct weights logarithmic while inflating any triangle by less than a
(1+eps) factor. The returned value is always the true, unrounded cut weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, pairwise
from typing import Iterator

import numpy as np

from . import guards
from .graph import Digraph, cut_into
from .report import Counters

_PAIRS = ((0, 1), (0, 2), (1, 2))
_CHUNK_CELLS = 1 << 13     # triangle sums held at once by the search


@dataclass(frozen=True)
class CutSolution:
    vertices: tuple[int, ...]   # sorted members of L
    k: int
    value: int                  # re-evaluated weight of arcs into L


@dataclass
class AuxGraph:
    """Complete tripartite auxiliary graph for one (k1, k2, k3) split.

    blocks holds the doubled edge weights between groups 0-1, 0-2 and 1-2
    as 2-D arrays; e01, e02 and e12 list their rows, indexable [j1][j2].
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    sizes: tuple[int, int, int]
    nodes: tuple[list[tuple[int, ...]], ...]   # subsets per group, lex order
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]

    e01 = property(lambda self: list(self.blocks[0]))
    e02 = property(lambda self: list(self.blocks[1]))
    e12 = property(lambda self: list(self.blocks[2]))


def tripartition(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Fixed equitable split of 0..n-1 in index order."""
    s1 = math.ceil(n / 3)
    s2 = math.ceil((n - s1) / 2)
    return (tuple(range(s1)), tuple(range(s1, s1 + s2)),
            tuple(range(s1 + s2, n)))


def _dtype(bound: int):
    """int64 when every value and every partial sum stays below bound."""
    return np.int64 if bound < 2 ** 62 else object


class _PairMatrices:
    """Stored edge weights between all subsets of two parts, for every pair.

    Each part's subsets are listed in (size, lex) order, so the size-k ones
    of part i form the row range rows[i][k] of its matrices.
    """

    def __init__(self, g: Digraph, parts):
        dtype = _dtype(2 * g.total_arc_weight)
        w = np.zeros((g.n, g.n), dtype=dtype)
        for u, v, wt in g.arc_items:
            w[u, v] = wt
        idx = [np.array(p, dtype=np.intp) for p in parts]
        into = [w[i].sum(axis=0) for i in idx]   # into[j][x]: from part j to x
        self.subsets = []
        self.rows = []
        chi = []
        for part in parts:
            subs = [t for k in range(len(part) + 1) for t in combinations(part, k)]
            self.subsets.append(subs)
            starts = accumulate((math.comb(len(part), k)
                                 for k in range(len(part) + 1)), initial=0)
            self.rows.append([slice(lo, hi) for lo, hi in pairwise(starts)])
            chi.append(np.array([[v in t for v in part] for t in subs],
                                dtype=np.int64).astype(dtype))

        def from_part(i: int, j: int) -> np.ndarray:
            """Weight of arcs from part j into each subset of part i."""
            return chi[i] @ into[j][idx[i]]

        deltas = [from_part(i, i)
                  - ((chi[i] @ w[np.ix_(idx[i], idx[i])]) * chi[i]).sum(axis=1)
                  for i in range(3)]
        self.mats = {}
        for a, b in _PAIRS:
            both = w[np.ix_(idx[a], idx[b])] + w[np.ix_(idx[b], idx[a])].T
            cross = chi[a] @ both @ chi[b].T     # arcs T -> U plus U -> T
            self.mats[a, b] = (2 * (from_part(a, b)[:, None]
                                    + from_part(b, a)[None, :] - cross)
                               + deltas[a][:, None] + deltas[b][None, :])


def build_aux(g: Digraph, parts, sizes: tuple[int, int, int],
              matrices: _PairMatrices | None = None) -> AuxGraph:
    """Auxiliary graph for one split; sizes[i] may be 0 or |parts[i]|.

    The blocks are views into matrices, built here when not given.
    """
    if matrices is None:
        matrices = _PairMatrices(g, parts)
    rows = [matrices.rows[i][k] for i, k in enumerate(sizes)]
    nodes = tuple(matrices.subsets[i][r] for i, r in enumerate(rows))
    blocks = tuple(matrices.mats[a, b][rows[a], rows[b]] for a, b in _PAIRS)
    return AuxGraph(tuple(parts), tuple(sizes), nodes, blocks)


def min_weight_triangle(aux: AuxGraph, counters: Counters | None = None,
                        e01=None, e02=None, e12=None):
    """Minimum-weight triangle (one node per group), searched a block of
    j1 rows at a time.

    Returns ((j1, j2, j3), weight); the lexicographically least triple wins
    ties. Optional matrices override the stored ones (used by the rounded
    search); weights must be non-negative.

    counters.triangles grows by the number of triangles a lex-order scan
    examines when it skips every (j1, j2) whose e01 weight already reaches
    the best sum found so far: |N3| for each pair whose e01 weight is below
    the minimum of the earlier pairs' best completions.
    """
    e01, e02, e12 = (np.asarray(stored if m is None else m)
                     for stored, m in zip(aux.blocks, (e01, e02, e12)))
    r1, r2 = e01.shape
    r3 = e12.shape[1]
    if not r1 * r2 * r3:
        raise ValueError("auxiliary graph has an empty group")
    best_j3 = np.empty((r1, r2), dtype=e01.dtype)   # min over j3 per (j1, j2)
    step = max(1, _CHUNK_CELLS // (r2 * r3))
    for lo in range(0, r1, step):
        sums = e01[lo:lo + step, :, None] + e12
        sums += e02[lo:lo + step, None, :]
        sums.min(axis=2, out=best_j3[lo:lo + step])
    flat = best_j3.ravel()
    j1, j2 = divmod(int(flat.argmin()), r2)
    j3 = int((e02[j1] + e12[j2]).argmin())
    if counters is not None:
        running = np.minimum.accumulate(flat[:-1])
        counters.triangles += r3 * (1 + int(np.count_nonzero(
            e01.ravel()[1:] < running)))
    return (j1, j2, j3), int(flat[j1 * r2 + j2])


def _splits(parts, k: int):
    for k1 in range(min(k, len(parts[0])) + 1):
        for k2 in range(min(k - k1, len(parts[1])) + 1):
            k3 = k - k1 - k2
            if 0 <= k3 <= len(parts[2]):
                yield (k1, k2, k3)


def _rounded_keys(weights: list[int], eps: Fraction) -> list[int]:
    """Each stored weight's rounded-up power of (1+eps/3), as an exact int.

    weights are sorted, distinct and non-negative. Keys only need
    consistent ordering and addition. Three regimes: tiny eps where rounding
    provably cannot reorder distinct triangle sums (identity), an exact
    big-integer grid for moderate exponent ranges, and high-precision floats
    beyond that.
    """
    smax = weights[-1]
    # Distinct triangle sums differ by >= 1; rounding inflates a sum by less
    # than eps/3 * sum <= eps * smax, so below 1 no comparison can flip.
    if eps * smax < 1:
        return weights
    base = 1 + eps / 3
    a, b = base.numerator, base.denominator
    pa, pb = [1], [1]
    while pa[-1] < smax * pb[-1] and len(pa) <= 2048:
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    if pa[-1] >= smax * pb[-1]:
        emax = len(pa) - 1
        keys = []
        e = 0
        for w in weights:
            while pa[e] < w * pb[e]:     # least e with base^e >= w
                e += 1
            keys.append(pa[e] * pb[emax - e] if w else 0)   # scaled by b^emax
        return keys
    import mpmath
    with mpmath.workdps(60):
        # Scaled-integer keys so later sums stay exact regardless of mpmath
        # context. An exponent off by one in a degenerate near-tie still
        # keeps the factor, since (1+eps/3)^2 <= 1+eps here (eps < 3).
        logbase = mpmath.log(mpmath.mpf(a) / b)
        scale = mpmath.mpf(2) ** 80
        keys = []
        for w in weights:
            if w <= 0:
                keys.append(0)
            else:
                e = int(mpmath.ceil(mpmath.log(w) / logbase))
                keys.append(int(mpmath.floor(mpmath.exp(max(e, 0) * logbase) * scale)))
        return keys


def _rounded_blocks(cells: list[AuxGraph], eps: Fraction) -> Iterator[list[np.ndarray]]:
    """Every split's blocks with weights replaced by their rounding keys; the
    key set is the union of the stored weights over all the splits."""
    stored = np.sort(np.concatenate(
        [blk.ravel() for aux in cells for blk in aux.blocks]))
    # np.unique would do, but it imports numpy.ma (about 1 MB) on first use
    weights = stored[np.append(True, stored[1:] != stored[:-1])]
    keys = _rounded_keys(weights.tolist(), eps)
    keyed = np.array(keys, dtype=_dtype(3 * keys[-1]))
    return ([keyed[np.searchsorted(weights, blk)] for blk in aux.blocks]
            for aux in cells)


def cut_profile(g: Digraph, ks, eps=None,
                counters: Counters | None = None) -> dict[int, CutSolution]:
    """Minimum (k, n-k)-cut for every k in ks, from pair matrices built once.

    eps=None gives the exact cut; a positive eps the (1+eps)-approximate
    rounded search. Within one k, the lower weight wins, then the
    lexicographically smaller vertex set. The matrices are dropped on return.
    """
    n = g.n
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
    matrices = _PairMatrices(g, parts)
    out = {}
    for k in ks:
        cells = [build_aux(g, parts, sizes, matrices) for sizes in _splits(parts, k)]
        keyed = ([aux.blocks for aux in cells] if eps is None
                 else _rounded_blocks(cells, eps))
        best = None
        for aux, blocks in zip(cells, keyed):
            (j1, j2, j3), weight = min_weight_triangle(aux, counters, *blocks)
            if eps is None and weight % 2:
                raise AssertionError("stored triangle weight must be even")
            cand = (weight, aux.nodes[0][j1] + aux.nodes[1][j2] + aux.nodes[2][j3])
            if best is None or cand < best:
                best = cand
        weight, l = best
        value = cut_into(g, l)
        if eps is None and 2 * value != weight:
            raise AssertionError(
                f"dkmc value {weight // 2} but cut re-evaluates to {value}")
        out[k] = CutSolution(l, k, value)
    return out


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
