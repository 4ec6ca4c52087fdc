"""Directed graphs, vertex orderings and the ordering cost evaluators.

Vertices are 0-indexed internally; the file format and all CLI output are
1-indexed. Undirected graphs are stored as symmetric digraphs (each edge kept
as the pair of opposite arcs sharing one weight) plus a mode flag; with that
convention the directed definitions of backward weight, cuts and stretch count
each undirected edge exactly once, so the evaluators below serve both modes.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


class Digraph:
    """Immutable weighted digraph.

    Args:
        n: number of vertices (>= 0).
        arcs: iterable of (u, v) pairs, 0-indexed. For an undirected graph
            give each edge once, in either orientation.
        weights: optional dict mapping (u, v) -> non-negative int weight
            (not a bool). Missing arcs default to weight 1.
        undirected: store the symmetric closure and treat pairs as edges.
        weighted: mark the instance as carrying explicit weights (controls
            serialization). Defaults to True iff weights is not None.
    """

    __slots__ = (
        "n", "undirected", "weighted", "in_pairs", "arc_items", "m",
        "_total_arc_weight",
    )

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]],
                 weights: dict[tuple[int, int], int] | None = None,
                 undirected: bool = False, weighted: bool | None = None):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        out: list[dict[int, int]] = [dict() for _ in range(n)]
        weighted = weights is not None if weighted is None else weighted
        weights = weights or {}
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex index out of range in arc ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            w = weights.get((u, v), weights.get((v, u), 1) if undirected else 1)
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise GraphError(f"negative or non-integer weight on arc ({u}, {v})")
            if v in out[u] or (undirected and u in out[v]):
                raise GraphError(f"duplicate arc ({u}, {v})")
            out[u][v] = w
            if undirected:
                out[v][u] = w
        self._set_arcs(n, undirected, weighted, tuple(
            (u, v, w) for u in range(n) for v, w in sorted(out[u].items())))

    def _set_arcs(self, n: int, undirected: bool, weighted: bool,
                  arc_items: tuple[tuple[int, int, int], ...]) -> "Digraph":
        """Fill every field from valid arc items sorted by (u, v), each
        undirected edge given in both directions."""
        self.n, self.undirected, self.weighted = n, undirected, weighted
        inn: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in arc_items:
            inn[v].append((u, w))
        self.in_pairs = tuple(map(tuple, inn))
        self.arc_items = arc_items
        # m follows the file header: arcs for dg, edges for ug.
        self.m = len(arc_items) // 2 if undirected else len(arc_items)
        self._total_arc_weight = sum(w for _, _, w in arc_items)
        return self

    def edge_items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, w) with u < v once per undirected edge."""
        for u, v, w in self.arc_items:
            if u < v:
                yield u, v, w

    def fill_weights(self, w, unit: bool = False) -> None:
        """Set w[u, v] to the weight of each arc u -> v, or to 1 when unit,
        in w, an n x n array or view, by one fancy-index store. The weights
        take w's dtype before the store: a Python int past 2**63 must not
        turn them float64."""
        if self.arc_items:
            u, v, wt = zip(*self.arc_items)
            w[np.array(u), np.array(v)] = 1 if unit else np.array(wt, dtype=w.dtype)

    @property
    def total_arc_weight(self) -> int:
        return self._total_arc_weight

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n == other.n and self.undirected == other.undirected
                and self.weighted == other.weighted
                and self.arc_items == other.arc_items)

    def __hash__(self) -> int:
        return hash((self.n, self.undirected, self.weighted, self.arc_items))

    def __repr__(self) -> str:
        kind = "ug" if self.undirected else "dg"
        return f"Digraph({kind}, n={self.n}, m={self.m})"


class Ordering:
    """A bijection vertices -> positions 1..n.

    pos[v] is the 1-indexed position of vertex v; seq is the inverse view,
    the vertices listed by position.
    """

    __slots__ = ("pos", "seq")

    def __init__(self, positions: Iterable[int]):
        pos = tuple(positions)
        n = len(pos)
        if sorted(pos) != list(range(1, n + 1)):
            raise ValueError("positions must be a permutation of 1..n")
        self.pos = pos
        seq = [0] * n
        for v, p in enumerate(pos):
            seq[p - 1] = v
        self.seq = tuple(seq)

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> "Ordering":
        seq = tuple(seq)
        pos = [0] * len(seq)
        for i, v in enumerate(seq):
            if not (0 <= v < len(seq)) or pos[v]:
                raise ValueError("sequence must list each vertex exactly once")
            pos[v] = i + 1
        ordering = cls.__new__(cls)   # checked above: __init__ would check again
        ordering.pos, ordering.seq = tuple(pos), seq
        return ordering

    def __len__(self) -> int:
        return len(self.pos)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ordering):
            return NotImplemented
        return self.pos == other.pos

    def __hash__(self) -> int:
        return hash(self.pos)

    def __repr__(self) -> str:
        return f"Ordering(seq={list(self.seq)})"


def backward_weight(g: Digraph, ordering: Ordering) -> int:
    """Total weight of arcs (u, v) with pos[u] > pos[v]."""
    pos = ordering.pos
    return sum(w for u, v, w in g.arc_items if pos[u] > pos[v])


def _peak(diff: list[int]) -> int:
    """Largest running sum of diff[1:-1], or 0 when none is positive."""
    return max(accumulate(diff[1:-1], initial=0))


def cutwidth_of(g: Digraph, ordering: Ordering) -> int:
    """max over i in 1..n-1 of the weight of the cut at i (0 when n <= 1)."""
    pos = ordering.pos
    diff = [0] * (g.n + 1)
    for u, v, w in g.arc_items:
        if pos[u] > pos[v]:
            diff[pos[v]] += w
            diff[pos[u]] -= w
    return _peak(diff)


def ola_of(g: Digraph, ordering: Ordering) -> int:
    """Sum over i of the cut weight at i; equals sum of w * stretch over
    backward arcs (over edges, for undirected instances)."""
    pos = ordering.pos
    return sum(w * (pos[u] - pos[v]) for u, v, w in g.arc_items if pos[u] > pos[v])


def dpw_of(g: Digraph, ordering: Ordering) -> int:
    """max over i in 1..n-1 of |{v placed at or before i with an in-neighbor
    placed after i}|. Weights are ignored."""
    n = g.n
    pos = ordering.pos
    diff = [0] * (n + 1)
    for v in range(n):
        latest = max((pos[u] for u, _ in g.in_pairs[v]), default=0)
        if latest > pos[v]:
            diff[pos[v]] += 1
            diff[latest] -= 1
    return _peak(diff)


EVALUATORS = {
    "fas": backward_weight,
    "cutwidth": cutwidth_of,
    "ola": ola_of,
    "dpw": dpw_of,
}

OBJECTIVES = tuple(EVALUATORS)


def cut_into(g: Digraph, part: Iterable[int]) -> int:
    """Weight of arcs from outside `part` into `part`."""
    inside = set(part)
    return sum(w for v in inside for u, w in g.in_pairs[v] if u not in inside)


def induced(g: Digraph, vertices: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Induced subgraph on `vertices`, relabeled 0..k-1 in sorted order.

    Returns (subgraph, mapping old -> new). The mapping is invertible.
    """
    keep = sorted(set(vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError("induced vertex set outside graph")
    relabel = {old: new for new, old in enumerate(keep)}
    # relabelling in sorted order keeps the parent's arc items sorted
    return Digraph.__new__(Digraph)._set_arcs(
        len(keep), g.undirected, g.weighted,
        tuple((relabel[u], relabel[v], w) for u, v, w in g.arc_items
              if u in relabel and v in relabel)), relabel


def gen_random(n: int, p: float, weight_range: tuple[int, int] = (1, 1),
               seed: int = 0, undirected: bool = False) -> Digraph:
    """Seeded Erdos-Renyi style generator.

    Each ordered pair (u, v), u != v, is included independently with
    probability p (unordered pairs when undirected); weights are drawn
    uniformly from weight_range. Deterministic for a fixed seed.
    """
    if not 0 <= p <= 1:
        raise ValueError("arc probability must be in [0, 1]")
    lo, hi = weight_range
    if lo < 0 or hi < lo:
        raise ValueError("bad weight range")
    rng = random.Random(seed)
    arcs = []
    weights = {}
    if undirected:
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    else:
        pairs = ((u, v) for u in range(n) for v in range(n) if u != v)
    for u, v in pairs:
        if rng.random() < p:
            arcs.append((u, v))
            weights[(u, v)] = rng.randint(lo, hi)
    return Digraph(n, arcs, weights, undirected=undirected,
                   weighted=weight_range != (1, 1))
