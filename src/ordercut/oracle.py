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
counts for dpw), and row sums for the cut and dpw. The orderings are the
leaves of the lexicographic permutation tree; level k holds the prefixes of
length k + 1 in lexicographic order, and each prefix's score is its parent's
combined with its last vertex's cost, gathered with take at the level's cached
int32 indices S*n + v. The last vertex costs nothing, so n - 1 levels reach
all n! leaves, still in lexicographic order: the first minimum is the
lexicographically least optimal sequence, recovered by unranking its index in
the factorial number system. Scores take guards.int_dtype(2 * n * total arc
weight): the narrowest of int16/int32/int64 holding it, and Python ints
(object) from 2**62 up.
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
def _position_matrix(n: int) -> tuple[np.ndarray, ...]:
    """Per level k = 0..n-2 of the permutation tree, S*n + v for every prefix
    of length k + 1 in lexicographic order: v is its last vertex and S the
    mask of the ones before it."""
    levels = []
    masks = np.zeros(1, dtype=np.int64)
    bit = 1 << np.arange(n, dtype=np.int64)
    for _ in range(n - 1):
        # children of every prefix: the vertices it lacks, ascending
        parent, v = np.nonzero((masks[:, None] & bit) == 0)
        levels.append((masks[parent] * n + v).astype(np.int32))
        masks = masks[parent] | bit[v]
    return tuple(levels)


def _cost_table(g: Digraph, objective: str, dtype) -> np.ndarray:
    """cost[S*n + v] of placing v right after the set S."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    bit = 1 << np.arange(n, dtype=np.int64)
    # out_of[mask, u]: u is not in mask (S for fas, S + v for the rest)
    out_of = (masks[:, None] & bit) == 0
    w = np.zeros((n, n), dtype=dtype)       # arc weights; arc counts for dpw
    for u, v, wt in g.arc_items:
        w[u, v] = 1 if objective == "dpw" else wt
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
    """Exact optimum over all n! orderings. Guarded at n <= 9."""
    if objective not in EVALUATORS:
        raise ValueError(f"unknown objective {objective!r}")
    n = g.n
    guards.check(n, guards.ORACLE_GUARD, "oracle vertex count")
    dtype = guards.int_dtype(2 * n * g.total_arc_weight)
    cost = _cost_table(g, objective, dtype)
    combine = _COMBINE[objective]
    values = np.zeros(1, dtype=dtype)
    for k, level in enumerate(_position_matrix(n)):
        values = combine(np.repeat(values, n - k), cost.take(level))
    idx = int(np.argmin(values))            # first minimum = lex-least sequence
    opt = int(values[idx])
    count = int(np.count_nonzero(values == opt))
    ordering = Ordering.from_sequence(_unrank(idx, n))
    actual = EVALUATORS[objective](g, ordering)
    if actual != opt:
        raise AssertionError(
            f"oracle mismatch: vectorized {opt}, evaluator {actual}")
    return OracleResult(objective, opt, ordering, count)
