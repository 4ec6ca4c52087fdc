"""Brute-force optimum by trying every ordering.

Deliberately dumb: all n! orderings are scored straight from the objective
definitions, then the winner is re-checked against the scalar evaluators.
Used to certify the exact solvers and every approximation ratio at desk scale.

Every objective adds up (fas, ola) or takes the maximum of (cutwidth, dpw) one
cost per placed vertex, and that cost depends only on the vertex v and the set
S placed before it:

    fas:             weight of arcs into v from outside S + v
    ola, cutwidth:   weight of arcs into S + v from outside it (the cut there)
    dpw:             members of S + v with an in-neighbour outside it

so a per-graph table cost[S*n + v] scores every ordering: one product of the
2^n x n matrix of vertices outside each mask with the n x n arc weights (arc
counts for dpw), and row sums for the cut and dpw. The leaves are grouped by
prefix set: level j = 1..n-1 holds, per j-set S, the scores of every ordering
of S, read whole from the rows of S - v (v in S ascending) and combined with
cost[(S - v)*n + v]. The last vertex costs nothing, so level n - 1 holds all
n! orderings. The same loop, adding digits, ranks the leaves; the witness is
the least rank among the ties, the lexicographically least optimal sequence.
The cache holds each level's row and cost indices and the n! ranks in
guards.int_dtype(n!): 1.5 MB at n = 9, 160 MB at n = 11. Costs and scores
take guards.int_dtype(guards.value_bound(g, objective)) (the guards doc).

Before anything is built, the bytes held at the peak are checked by
guards.check: per leaf, the scores of the level built and of the
level it reads, the kept rank and a tie-mask byte; then the cost table. Object
scores hold a Python int for fas and ola, a pointer for cutwidth and dpw.
That admits n = 11 but for fas and ola Python-int scores, and refuses n = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import guards
from .graph import EVALUATORS, Digraph, Ordering

_COMBINE = {"fas": np.add, "ola": np.add, "cutwidth": np.maximum, "dpw": np.maximum}


@dataclass(frozen=True)
class OracleResult:
    objective: str
    opt: int
    ordering: Ordering          # lexicographically least optimal sequence
    count: int                  # number of optimal orderings


@lru_cache(maxsize=16)
def _position_matrix(n: int) -> tuple[tuple, np.ndarray]:
    """Per level j = 1..n-1, (C(n, j), j) arrays of the row of S - v at level
    j - 1 and of (S - v)*n + v, for each j-set S (in mask order) and member v
    (ascending); and every leaf's lexicographic rank."""
    masks = np.arange(1 << n, dtype=np.int64)
    bit = 1 << np.arange(n, dtype=np.int64)
    inside = (masks[:, None] & bit) != 0
    size = inside.sum(axis=1)
    row = np.zeros(1 << n, dtype=np.intp)       # each set's row in its level
    levels = []
    for j in range(1, n):
        sets = masks[size == j]
        row[sets] = np.arange(len(sets))
        v = np.nonzero(inside[sets])[1].reshape(len(sets), j)
        parent = sets[:, None] ^ bit[v]
        levels.append((row[parent], parent * n + v))
    # v's digit after S: the vertices below v missing from S, times (n-|S|-1)!
    fact = np.array([math.factorial(max(n - 1 - k, 0)) for k in range(n + 1)])
    digit = (np.arange(n) - inside.cumsum(axis=1) + inside) * fact[size, None]
    dtype = guards.int_dtype(math.factorial(n))
    ranks = _leaves(levels, digit.astype(dtype).ravel(), np.add, dtype)
    return tuple(levels), ranks


def _leaves(levels, cost: np.ndarray, combine, dtype) -> np.ndarray:
    """Every ordering's score, in the leaf layout of _position_matrix."""
    values = np.zeros(1, dtype=dtype)
    for rows, at in levels:
        values = values.reshape(len(values), -1).take(rows, axis=0)
        combine(values, cost.take(at)[:, :, None], out=values)
    return values.ravel()


def _cost_table(g: Digraph, objective: str, dtype) -> np.ndarray:
    """cost[S*n + v] of placing v right after the set S."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    bit = 1 << np.arange(n, dtype=np.int64)
    # out_of[mask, u]: u is not in mask (S for fas, S + v for the rest)
    out_of = (masks[:, None] & bit) == 0
    w = np.zeros((n, n), dtype=dtype)       # arc weights; arc counts for dpw
    g.fill_weights(w, unit=objective == "dpw")
    # into[mask, x]: weight (dpw: number) of arcs into x from outside mask
    into = out_of.astype(dtype) @ w
    if objective == "fas":
        return into.ravel()
    if objective == "dpw":                  # members fed from outside
        per_t = ((into > 0) & ~out_of).sum(axis=1, dtype=dtype)
    else:                                   # the cut into the mask
        per_t = (into * ~out_of).sum(axis=1, dtype=dtype)
    # cost[S, v] = per_t[S + v]; v in S never occurs in a prefix
    return per_t[masks[:, None] | bit].ravel()


def _unrank(index: int, n: int) -> list[int]:
    """The index-th permutation of range(n) in lexicographic order."""
    rest = list(range(n))
    seq = []
    for k in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        seq.append(rest.pop(digit))
    return seq


def perm_opt(g: Digraph, objective: str) -> OracleResult:
    """Exact optimum over all n! orderings, guarded on the bytes it holds."""
    if objective not in EVALUATORS:
        raise ValueError(f"unknown objective {objective!r}")
    n, bound, combine = g.n, guards.value_bound(g, objective), _COMBINE[objective]
    dtype, leaves = guards.int_dtype(bound), math.factorial(n)
    cost = guards.entry_bytes(dtype, bound)
    score = cost if combine is np.add else guards.entry_bytes(dtype)
    rank = guards.entry_bytes(guards.int_dtype(leaves), leaves)   # the kept rank
    guards.check(leaves * (2 * score + rank + 1) + (n << n) * cost,
                 "oracle leaf bytes")
    levels, ranks = _position_matrix(n)
    values = _leaves(levels, _cost_table(g, objective, dtype), combine, dtype)
    opt = int(values.min())
    tied = values == opt
    count = int(np.count_nonzero(tied))
    ordering = Ordering.from_sequence(_unrank(int(ranks[tied].min()), n))
    actual = EVALUATORS[objective](g, ordering)
    if actual != opt:
        raise AssertionError(
            f"oracle mismatch: vectorized {opt}, evaluator {actual}")
    return OracleResult(objective, opt, ordering, count)
