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
ascending masks, built from one another without enumerating 2^n. A layer is
filled a block of rows at a time: f(S-v) for every v at once (a sentinel for
v not in S), plus the objective's term, then argmin along v, which keeps the
first minimum: ties keep the smallest vertex index. Values are int64 while
twice the largest possible entry is below 2**62, else Python ints (object).
"""

from __future__ import annotations

import math
import operator
import sys
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import guards
from .graph import Digraph
from .kcut import _dtype
from .report import Counters, SolveReport, finish

_CHUNK_ROWS = 1 << 12     # masks per vectorized step
_CHUNK_ARRAYS = 8         # at most this many mask-by-vertex arrays live per step


class _Column(Mapping):
    """Read-only mask -> int view of one table array."""

    def __init__(self, table: "SubsetTable", array: np.ndarray):
        self._table, self._array = table, array

    def __getitem__(self, mask) -> int:
        return int(self._array[self._table._position(mask)])

    def __iter__(self) -> Iterator[int]:
        layers = self._table.layers
        if layers is None:
            return iter(range(1 << self._table.n))
        return chain.from_iterable(layer.tolist() for layer in layers)

    def __len__(self) -> int:
        return self._table.entries


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """Filled DP table. values/last_vertex are read-only views mapping
    bitmask -> int over the arrays vals/last (layout in the module doc)."""

    objective: str
    n: int
    size_cap: int
    vals: np.ndarray
    last: np.ndarray
    layers: tuple[np.ndarray, ...] | None   # capped tables only
    entries: int

    values = property(lambda self: _Column(self, self.vals))
    last_vertex = property(lambda self: _Column(self, self.last))

    def _position(self, mask) -> int:
        mask = operator.index(mask)
        if self.layers is None:
            if 0 <= mask < 1 << self.n:
                return mask
        elif mask >= 0 and (size := mask.bit_count()) <= self.size_cap:
            layer = self.layers[size]
            i = int(np.searchsorted(layer, mask))
            if i < len(layer) and layer[i] == mask:
                return _layer_start(self.n, size) + i
        raise KeyError(mask)

    def _mask(self, subset) -> int:
        if isinstance(subset, int):
            return subset
        return sum(1 << v for v in subset)

    def value_of(self, subset) -> int:
        try:
            return self.values[self._mask(subset)]
        except KeyError:
            raise ValueError("subset not in table (beyond size cap?)") from None

    def last_of(self, subset) -> int | None:
        v = self.last_vertex[self._mask(subset)]
        return None if v < 0 else v

    def order_of(self, subset) -> tuple[int, ...]:
        """Vertices of the subset in table-optimal placement order."""
        mask = self._mask(subset)
        rev = []
        while mask:
            v = self.last_vertex[mask]
            rev.append(v)
            mask ^= 1 << v
        return tuple(reversed(rev))

    def layer(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """A capped table's size-`size` masks, ascending, and their values."""
        masks = self.layers[size]
        start = _layer_start(self.n, size)
        return masks, self.vals[start:start + len(masks)]


def _layer_start(n: int, size: int) -> int:
    return sum(math.comb(n, s) for s in range(size))


def _next_layer(layer: np.ndarray, size: int, n: int) -> np.ndarray:
    """The size-(size+1) masks, ascending, from the ascending size-`size` ones:
    those with top bit t are the size-`size` masks below 2^t plus bit t."""
    return np.concatenate([layer[:math.comb(t, size)] | (1 << t)
                           for t in range(size, n)])


def _check_size(n: int, cap: int, bound: int) -> int:
    """Guard the bytes the table and its build allocate; returns the entries."""
    guards.check_universe(n)
    if not 0 <= cap <= n:
        raise ValueError(f"size cap {cap} outside 0..{n}")
    entries = _layer_start(n, cap + 1)
    widest = math.comb(n, min(cap, n // 2))
    # an object value adds a Python int about as large as bound
    value = 8 if _dtype(2 * bound) is np.int64 else 8 + sys.getsizeof(bound)
    masks = 8 * (entries if cap < n else 3 * widest)   # kept or live layers
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


def _prefix_table(g: Digraph, cap: int, objective: str) -> SubsetTable:
    n = g.n
    unit = objective == "dpw"    # dpw counts arcs and ignores weights
    total = len(g.arc_items) if unit else g.total_arc_weight
    bound = {"fas": total, "ola": n * total, "cutwidth": total, "dpw": n}[objective]
    dtype = _dtype(2 * bound)
    entries = _check_size(n, cap, bound)
    full = cap == n
    big = 2 * bound + 1          # above every candidate
    vals = np.full(1 << n if full else entries, big, dtype=dtype)
    last = np.empty(len(vals), dtype=np.int8)
    vals[0], last[0] = 0, -1
    w = np.zeros((n, n), dtype=dtype)
    for u, v, wt in g.arc_items:
        w[u, v] = 1 if unit else wt
    w_in = w.sum(axis=0)
    # fas: weight from each v into S; else: weight into each v from S
    sum_tables = _row_sums(w.T if objective == "fas" else w)
    bit = 1 << np.arange(n)
    notbit = ~bit
    layers = [np.zeros(1, dtype=np.int64)]
    start = 0
    for size in range(1, cap + 1):
        prev_layer = layers[-1]
        layer = _next_layer(prev_layer, size - 1, n)
        prev_start, start = start, start + len(prev_layer)
        for lo in range(0, len(layer), _CHUNK_ROWS):
            masks = layer[lo:lo + _CHUNK_ROWS]
            rows = np.arange(len(masks))
            inside = (masks[:, None] & bit) != 0
            # S-v, or S itself for v outside S: its entry is still big
            prev = masks[:, None] & notbit
            if not full:     # as positions: S-v in the previous layer, or S
                pos = np.repeat(start + lo + rows[:, None], n, axis=1)
                pos[inside] = prev_start + np.searchsorted(prev_layer, prev[inside])
                prev = pos
            cand = vals[prev]
            sums = sum_tables[0].take(masks & 2047, axis=0)
            for i in range(1, len(sum_tables)):
                sums += sum_tables[i].take(masks >> 11 * i & 2047, axis=0)
            if objective == "fas":
                cand += sums
            pick = cand.argmin(axis=1)
            best = cand[rows, pick]
            if unit:     # members with an in-neighbor outside S
                best = np.maximum(((sums < w_in) & inside).sum(axis=1), best)
            elif objective != "fas":
                crossing = inside @ w_in - np.einsum("ij,ij->i", sums, inside)
                best = (crossing + best if objective == "ola"
                        else np.maximum(crossing, best))
            at = masks if full else slice(start + lo, start + lo + len(masks))
            vals[at] = best
            last[at] = pick
        layers = [layer] if full else layers + [layer]
    return SubsetTable(objective, n, cap, vals, last,
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
    value = table.values[full]
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
