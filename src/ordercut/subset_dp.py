"""Subset dynamic programs over vertex bitmasks.

Each solver fills a table indexed by vertex subsets S, where the entry is the
best cost of placing S as the first |S| positions of an ordering:

    fas:       f(S) = min_{v in S} f(S-v) + w(arcs from v into S-v)
    ola:       f(S) = crossing(S) + min_v f(S-v)
    cutwidth:  f(S) = max(crossing(S), min_v f(S-v))
    dpw:       f(S) = max(boundary(S), min_v f(S-v))

crossing(S) is the weight of arcs from V-S into S and boundary(S) the number
of vertices in S with an in-neighbor outside S, both with respect to the whole
graph. The fas table is self-contained per subset, so fas_table(g, c) yields
the optimal feedback arc weight of every induced subgraph G[S] with |S| <= c.

Tables are flat arrays of values and last vertices (int8, -1 for the empty
set), indexed by mask when full and, when capped, by position in layers of
ascending masks, built from one another without enumerating 2^n; capped
tables are built for fas and dpw only. A layer is filled a block of masks at
a time: f(S-v) for every v at once (a sentinel above every candidate for v
not in S), plus the fas term, then the first minimum along v, so ties keep
the smallest vertex index, then the crossing or boundary term of S.

A full ola/cutwidth/dpw table holds the term of every mask in its value array
before any entry is filled, as sentinel + term, built in contiguous passes:
crossing by doubling on the top bit of S, boundary as the subset sums of +1
at each {v} and -1 at each {v} plus its in-neighbors. A capped dpw table
counts boundary(S) per block instead.

Values are the narrowest of int16/int32/int64 holding 3 * bound + 1, where
bound is the largest possible entry: the sentinel 2 * bound + 1 plus a fas
cost. Once twice the bound reaches 2**62 they are Python ints (object).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import guards
from .graph import Digraph
from .report import Counters, SolveReport, finish

_CHUNK_ROWS = 1 << 12     # masks per vectorized step
_CHUNK_ARRAYS = 8         # at most this many mask-by-vertex arrays live per step


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """Filled DP table: the arrays vals (values) and last (last vertices),
    laid out as in the module doc; value_of and order_of read them by
    bitmask or vertex subset."""

    n: int
    size_cap: int
    vals: np.ndarray
    last: np.ndarray
    layers: tuple[np.ndarray, ...] | None   # capped tables only
    entries: int

    def _position(self, mask: int) -> int:
        """Array position of a mask; ValueError for a mask outside the table."""
        if self.layers is None:
            if 0 <= mask < 1 << self.n:
                return mask
        elif mask >= 0 and (size := mask.bit_count()) <= self.size_cap:
            layer = self.layers[size]
            i = int(np.searchsorted(layer, mask))
            if i < len(layer) and layer[i] == mask:
                return _layer_start(self.n, size) + i
        raise ValueError(f"mask {mask} not in table (beyond size cap?)")

    def value_of(self, subset) -> int:
        """The value of a bitmask or vertex subset."""
        return int(self.vals[self._position(_mask(subset))])

    def order_of(self, subset) -> tuple[int, ...]:
        """Vertices of the subset in table-optimal placement order."""
        mask = _mask(subset)
        rev = []
        while mask:
            v = int(self.last[self._position(mask)])
            rev.append(v)
            mask ^= 1 << v
        return tuple(reversed(rev))

    def layer(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """A capped table's size-`size` masks, ascending, and their values."""
        masks = self.layers[size]
        start = _layer_start(self.n, size)
        return masks, self.vals[start:start + len(masks)]


def _mask(subset) -> int:
    """A bitmask as it is, or the mask of a vertex subset."""
    return subset if isinstance(subset, int) else sum(1 << v for v in subset)


def _layer_start(n: int, size: int) -> int:
    return sum(math.comb(n, s) for s in range(size))


def _next_layer(layer: np.ndarray, size: int, n: int) -> np.ndarray:
    """The size-(size+1) masks, ascending, from the ascending size-`size` ones:
    those with top bit t are the size-`size` masks below 2^t plus bit t."""
    out = np.empty(math.comb(n, size + 1), dtype=np.int64)
    at = 0
    for t in range(size, n):
        below = math.comb(t, size)
        np.bitwise_or(layer[:below], 1 << t, out=out[at:at + below])
        at += below
    return out


def _value_dtype(bound: int):
    """The narrowest of int16/int32/int64 holding 3 * bound + 1 (the sentinel
    2 * bound + 1 plus a fas cost); Python ints where guards.int_dtype needs them."""
    if guards.int_dtype(2 * bound) is object:
        return object
    top = 3 * bound + 1
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


def _check_size(n: int, cap: int, bound: int) -> int:
    """Guard the bytes the table and its build allocate; returns the entries.
    A full table's terms are built in its value array, so they add nothing."""
    guards.check_universe(n)
    if not 0 <= cap <= n:
        raise ValueError(f"size cap {cap} outside 0..{n}")
    entries = _layer_start(n, cap + 1)
    widest = math.comb(n, min(cap, n // 2))
    value = guards.entry_bytes(_value_dtype(bound), bound)
    masks = 8 * (entries if cap < n else 2 * widest)   # kept or live layers
    block = 8 * _CHUNK_ARRAYS * min(widest, _CHUNK_ROWS) * n
    guards.check(entries * (value + 1) + masks + block, guards.TABLE_BYTE_GUARD,
                 "subset table bytes")
    return entries


def _row_sums(a: np.ndarray) -> list[np.ndarray]:
    """For rows a[11*i : 11*i + 11]: table i[b] is the sum of those rows at the
    bits of b. Sums over S then take one gather per group, exact in any dtype."""
    tables = []
    for lo in range(0, len(a), 11):
        rows = a[lo:lo + 11]
        table = np.zeros((1 << len(rows), a.shape[1]), dtype=a.dtype)
        for j, row in enumerate(rows):
            np.add(table[:1 << j], row, out=table[1 << j:2 << j])
        tables.append(table)
    return tables


def _closed_masks(g: Digraph) -> list[int]:
    """{v} and its in-neighbors, as a mask, for each vertex v."""
    return [sum(1 << u for u, _ in g.in_pairs[v]) | 1 << v for v in range(g.n)]


def _crossing_terms(w: np.ndarray) -> np.ndarray:
    """crossing(S) for every mask S, doubling on the top bit t of S = T + {t}:
    crossing(S) = crossing(T) + w_in[t] - (sum over u in T of w[u,t] + w[t,u])."""
    n = len(w)
    w_in = w.sum(axis=0)
    pair = w + w.T
    term = np.zeros(1 << n, dtype=w.dtype)
    for t in range(n):
        top = term[1 << t:2 << t]
        top[0] = w_in[t]
        for u in range(t):
            np.subtract(top[:1 << u], pair[u, t], out=top[1 << u:2 << u])
        top += term[:1 << t]
    return term


def _boundary_terms(g: Digraph, dtype) -> np.ndarray:
    """boundary(S) = |S| - #{v : closed mask of v within S} for every mask S:
    the subset sums (zeta transform) of +1 at each {v}, -1 at each closed mask.
    The sums over the low bits are placed whole, as superset patterns: the
    passes over them would stride through the table in short runs."""
    n = g.n
    low = min(n, 6)
    below = np.arange(1 << low)
    supersets = (below[:, None] & below) == below[:, None]
    term = np.zeros((1 << n - low, 1 << low), dtype=dtype)
    for v, closed in enumerate(_closed_masks(g)):
        term[1 << v >> low] += supersets[1 << v & (1 << low) - 1]
        term[closed >> low] -= supersets[closed & (1 << low) - 1]
    term = term.reshape(-1)
    for b in range(low, n):
        view = term.reshape(-1, 2, 1 << b)
        view[:, 1] += view[:, 0]
    return term


def _prefix_table(g: Digraph, cap: int, objective: str) -> SubsetTable:
    n = g.n
    full = cap == n
    unit = objective == "dpw"    # dpw counts arcs and ignores weights
    if not full and objective not in ("fas", "dpw"):
        raise ValueError(f"capped tables are built for fas and dpw, not {objective}")
    total = len(g.arc_items) if unit else g.total_arc_weight
    bound = {"fas": total, "ola": n * total, "cutwidth": total, "dpw": n}[objective]
    dtype = _value_dtype(bound)
    entries = _check_size(n, cap, bound)
    big = 2 * bound + 1          # above every candidate
    if not unit:
        w = np.zeros((n, n), dtype=dtype)
        for u, v, wt in g.arc_items:
            w[u, v] = wt
    if objective == "fas" or not full:
        vals = np.full(1 << n if full else entries, big, dtype=dtype)
    else:
        # an entry not yet filled holds big + its term, crossing(S) or
        # boundary(S): still above every candidate, and read back when filled
        vals = _boundary_terms(g, dtype) if unit else _crossing_terms(w)
        vals += big
    last = np.empty(len(vals), dtype=np.int8)
    vals[0], last[0] = 0, -1
    # one buffer per block-wide array, reused: a fresh one each block costs
    # page faults on a par with the work
    width = min(math.comb(n, min(cap, n // 2)), _CHUNK_ROWS)   # widest block
    prev_buf = np.empty((n, width), dtype=np.int64)
    cand_buf = np.empty((n, width), dtype=dtype)
    if objective == "fas":       # weight from each v into S
        sum_tables = _row_sums(w.T)
        sums_buf = np.empty((width, n), dtype=dtype)
    elif not full:               # capped dpw: boundary(S) per block
        closed = np.array(_closed_masks(g), dtype=np.int64)[:, None]
    bit = (1 << np.arange(n))[:, None]
    notbit = ~bit
    rank = np.arange(n, 0, -1, dtype=np.int8)[:, None]   # n - v
    layers = [np.zeros(1, dtype=np.int64)]
    start = 0
    for size in range(1, cap + 1):
        prev_layer = layers[-1]
        layer = _next_layer(prev_layer, size - 1, n)
        prev_start, start = start, start + len(prev_layer)
        for lo in range(0, len(layer), _CHUNK_ROWS):
            masks = layer[lo:lo + _CHUNK_ROWS]
            # column j is mask j; row v is S-v, or S itself for v outside S,
            # whose entry is not filled yet, so at least big
            cols = len(masks)
            prev = np.bitwise_and(notbit, masks, out=prev_buf[:, :cols])
            if not full:     # as positions: S-v in the previous layer, or S
                inside = (bit & masks) != 0
                pos = np.repeat(start + lo + np.arange(cols)[None], n, axis=0)
                pos[inside] = prev_start + np.searchsorted(prev_layer, prev[inside])
                prev = pos
            cand = vals.take(prev, out=cand_buf[:, :cols], mode="clip")
            if objective == "fas":
                sums = sum_tables[0].take(masks & 2047, axis=0,
                                          out=sums_buf[:cols], mode="clip")
                for i in range(1, len(sum_tables)):
                    sums += sum_tables[i].take(masks >> 11 * i & 2047, axis=0)
                cand += sums.T
            best = cand.min(axis=0)
            pick = n - ((cand == best) * rank).max(axis=0)   # the first minimum
            if objective != "fas":
                if full:
                    extra = vals[masks] - big
                else:    # members whose closed mask is not within S
                    extra = size - ((closed & masks) == closed).sum(axis=0)
                best = (extra + best if objective == "ola"
                        else np.maximum(extra, best))
            at = masks if full else slice(start + lo, start + lo + cols)
            vals[at] = best
            last[at] = pick
        layers = [layer] if full else layers + [layer]
    return SubsetTable(n, cap, vals, last,
                       None if full else tuple(layers), entries)


def fas_table(g: Digraph, size_cap: int | None = None) -> SubsetTable:
    """Minimum feedback arc weight of G[S] for every |S| <= size_cap."""
    return _prefix_table(g, g.n if size_cap is None else size_cap, "fas")


def dpw_prefix_table(g: Digraph, size_cap: int) -> SubsetTable:
    """Best achievable max-boundary over orderings of each |S| <= size_cap,
    with boundaries taken in the whole graph."""
    return _prefix_table(g, size_cap, "dpw")


def _exact(g: Digraph, objective: str) -> SolveReport:
    t0 = time.perf_counter()
    n = g.n
    guards.check(n, guards.EXACT_DP_GUARD, f"{objective}_exact vertex count")
    if objective == "fas":
        table = fas_table(g)
    else:
        table = _prefix_table(g, n, objective)
    full = (1 << n) - 1
    value = table.value_of(full)
    return finish(g, objective, table.order_of(full), value,
                  Counters(table_entries=table.entries, calls=1), t0, claim=value)


def fas_exact(g: Digraph) -> SolveReport:
    """Minimum-weight feedback arc set via the subset DP."""
    return _exact(g, "fas")


def ola_exact(g: Digraph) -> SolveReport:
    """Optimal linear arrangement via the subset DP."""
    return _exact(g, "ola")


def cutwidth_exact(g: Digraph) -> SolveReport:
    """Directed cutwidth via the subset DP."""
    return _exact(g, "cutwidth")


def dpw_exact(g: Digraph) -> SolveReport:
    """Directed pathwidth via the subset DP (weights ignored)."""
    return _exact(g, "dpw")
