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

Tables are flat arrays of values only, indexed by mask when full and, when
capped, by position in layers of ascending masks, built from one another
without enumerating 2^n; capped tables are built for fas and dpw only. A
layer is filled a block of masks at a time: f(S-v) for every v at once (a
sentinel above every candidate for v not in S), plus the fas term, then the
minimum along v, then the crossing or boundary term of S.

No last vertex is stored. Every f(S-v) is final before S is filled and the
candidates of v not in S never win, so the last vertex of S is derived from
the finished values when asked for: the first v in S, ascending, minimising
f(S-v) (plus the fas term), the candidate the fill's minimum took, so ties
keep the smallest vertex index.

A full ola/cutwidth/dpw table holds the term of every mask in its value array
before any entry is filled, as sentinel + term, built in contiguous passes:
crossing by doubling on the top bit of S, boundary as the subset sums of +1
at each {v} and -1 at each {v} plus its in-neighbors. A capped dpw table
counts boundary(S) per block instead.

Values are the narrowest of int16/int32/int64 holding 3 * bound + 1, where
bound is the largest possible entry: the sentinel 2 * bound + 1 plus a fas
cost. Once twice the bound reaches 2**62 they are Python ints (object).

The tables of graphs with one vertex count share their layers and block
positions, so _prefix_tables fills those whose values share a dtype in one
block loop, their arrays stacked on a last axis over the graphs, each table
a strided view of them. A batch keeps within the byte guard and its blocks
within _CHUNK_ROWS masks, and is split where it would not; a lone graph's
arrays have no such axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache
from itertools import pairwise

import numpy as np

from . import guards
from .graph import Digraph
from .report import Counters, SolveReport, finish

_CHUNK_ROWS = 1 << 12     # masks per vectorized step
_CHUNK_ARRAYS = 8         # at most this many mask-by-vertex arrays live per step


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """Filled DP table: the value array vals, laid out as in the module doc,
    and for fas the weight matrix w (w[u, v] the weight of arc u -> v);
    value_of, last_of and order_of read them by bitmask or vertex subset."""

    n: int
    size_cap: int
    vals: np.ndarray
    w: np.ndarray | None                    # fas tables only
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

    def last_of(self, subset) -> int:
        """The last vertex of a table-optimal placement of a nonempty subset
        S: the first v in S, ascending, minimising f(S-v), plus for fas the
        weight of arcs from v into S-v."""
        mask = _mask(subset)
        if not mask:
            raise ValueError("the empty set has no last vertex")
        self._position(mask)
        return self._last(mask, self._into(mask))

    def order_of(self, subset) -> tuple[int, ...]:
        """Vertices of the subset in table-optimal placement order: its
        last_of, preceded by the order of the rest."""
        mask = _mask(subset)
        self._position(mask)
        into = self._into(mask)
        cols = None if self.w is None else self.w.T.tolist()
        rev = []
        while mask:
            v = self._last(mask, into)
            rev.append(v)
            mask ^= 1 << v
            if cols is not None:
                into = [a - b for a, b in zip(into, cols[v])]
        return tuple(reversed(rev))

    def _into(self, mask: int) -> list[int] | None:
        """For fas, the weight of arcs from each vertex into the mask."""
        if self.w is None:
            return None
        return self.w[:, [v for v in range(self.n) if mask >> v & 1]].sum(
            axis=1).tolist()

    def _last(self, mask: int, into: list[int] | None) -> int:
        """last_of a nonempty mask in the table, given _into(mask)."""
        full = self.layers is None
        item = self.vals.item
        best = last = None
        for v in range(self.n):
            if mask >> v & 1:
                prev = mask ^ 1 << v
                cand = item(prev if full else self._position(prev))
                if into is not None:
                    cand += into[v]
                if last is None or cand < best:
                    best, last = cand, v
        return last

    def layer(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """A capped table's size-`size` masks, ascending, and their values."""
        masks = self.layers[size]
        start = _layer_start(self.n, size)
        return masks, self.vals[start:start + len(masks)]


def _mask(subset) -> int:
    """A bitmask as it is, or the mask of a vertex subset; ValueError for a
    subset that names a vertex twice."""
    if isinstance(subset, int):
        return subset
    mask = 0
    for v in subset:
        if mask >> v & 1:
            raise ValueError(f"vertex {v} named twice in a subset")
        mask |= 1 << v
    return mask


@cache
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
    return guards.narrow_dtype(3 * bound + 1, 2 * bound)


def _table_bytes(n: int, cap: int, bound: int) -> tuple[int, int]:
    """The bytes a table and its build allocate: those each table of a batch
    adds, and the layer masks the batch shares. A full table's terms are
    built in its value array, so they add nothing. A block's arrays hold a
    fresh Python int per entry when values are objects. fas's row sums are
    not counted: at most 2^13 * n entries, fewer than a full table's block
    holds."""
    entries = _layer_start(n, cap + 1)
    widest = math.comb(n, min(cap, n // 2))
    value = guards.entry_bytes(_value_dtype(bound), bound)
    masks = 8 * (entries if cap < n else 2 * widest)   # kept or live layers
    block = max(8, value) * _CHUNK_ARRAYS * min(widest, _CHUNK_ROWS) * n
    return entries * value + block, masks


def _check_size(n: int, cap: int, bound: int) -> int:
    """Guard the bytes of one table and its build; returns the entries."""
    guards.check_universe(n)
    if not 0 <= cap <= n:
        raise ValueError(f"size cap {cap} outside 0..{n}")
    guards.check(sum(_table_bytes(n, cap, bound)), guards.TABLE_BYTE_GUARD,
                 "subset table bytes")
    return _layer_start(n, cap + 1)


def _row_sums(a: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """The rows of a in the fewest groups of at most 12, of near-equal size,
    as (first, low, table): the group's first row, the mask of its width,
    and table[b], the sum of its rows at the bits of b. Sums over S then take
    one gather per group, table[S >> first & low], exact in any dtype."""
    count = max(1, -(-len(a) // 12))
    edges = [-(-len(a) * i // count) for i in range(count + 1)]   # larger first
    groups = []
    for lo, hi in pairwise(edges):
        table = np.zeros((1 << hi - lo,) + a.shape[1:], dtype=a.dtype)
        for j, row in enumerate(a[lo:hi]):
            np.add(table[:1 << j], row, out=table[1 << j:2 << j])
        groups.append((lo, (1 << hi - lo) - 1, table))
    return groups


def _closed_masks(g: Digraph) -> list[int]:
    """{v} and its in-neighbors, as a mask, for each vertex v."""
    return [sum(1 << u for u, _ in g.in_pairs[v]) | 1 << v for v in range(g.n)]


def _crossing_terms(w: np.ndarray, term: np.ndarray) -> None:
    """crossing(S) for every mask S, into term, doubling on the top bit t of
    S = T + {t}:
    crossing(S) = crossing(T) + w_in[t] - (sum over u in T of w[u,t] + w[t,u])."""
    n = len(w)
    w_in = w.sum(axis=0)
    pair = w + w.T
    term[0] = 0
    for t in range(n):
        top = term[1 << t:2 << t]
        top[0] = w_in[t]
        for u in range(t):
            np.subtract(top[:1 << u], pair[u, t], out=top[1 << u:2 << u])
        top += term[:1 << t]


def _boundary_terms(g: Digraph, term: np.ndarray) -> None:
    """boundary(S) = |S| - #{v : closed mask of v within S} for every mask S,
    into term: the subset sums (zeta transform) of +1 at each {v},
    -1 at each closed mask. The sums over the low bits are placed whole, as
    superset patterns: the passes over them would stride through the table
    in short runs."""
    n = g.n
    low = min(n, 6)
    below = np.arange(1 << low)
    supersets = (below[:, None] & below) == below[:, None]
    term[:] = 0
    grid = term.reshape(1 << n - low, 1 << low)   # views, also of a column
    for v, closed in enumerate(_closed_masks(g)):
        grid[1 << v >> low] += supersets[1 << v & (1 << low) - 1]
        grid[closed >> low] -= supersets[closed & (1 << low) - 1]
    for b in range(low, n):
        view = term.reshape(-1, 2, 1 << b)
        view[:, 1] += view[:, 0]


def _bound(g: Digraph, objective: str) -> int:
    """The largest possible entry of g's table (the module doc)."""
    if objective == "dpw":       # dpw counts arcs and ignores weights
        return g.n
    return g.total_arc_weight * (g.n if objective == "ola" else 1)


def _prefix_tables(graphs, cap: int, objective: str) -> list[SubsetTable]:
    """The tables of graphs with one vertex count, each as _prefix_table
    builds it. Graphs whose values share a dtype are filled as one batch, as
    many at a time as keep the batch's blocks within _CHUNK_ROWS masks and
    its bytes within the byte guard, which each table alone must meet."""
    n = graphs[0].n
    if cap != n and objective not in ("fas", "dpw"):
        raise ValueError(f"capped tables are built for fas and dpw, not {objective}")
    bounds = [_bound(g, objective) for g in graphs]
    for bound in bounds:
        _check_size(n, cap, bound)
    width = min(math.comb(n, min(cap, n // 2)), _CHUNK_ROWS)   # widest block

    def room(batch) -> int:
        each, shared = _table_bytes(n, cap, max(bounds[i] for i in batch))
        return min(_CHUNK_ROWS // width,
                   (guards.TABLE_BYTE_GUARD - shared) // each)

    tables = [None] * len(graphs)
    for batch in guards.batches([_value_dtype(b) for b in bounds], room):
        filled = _fill([graphs[i] for i in batch], cap, objective,
                       max(bounds[i] for i in batch))
        for i, table in zip(batch, filled):
            tables[i] = table
    return tables


def _fill(graphs, cap: int, objective: str, bound: int) -> list[SubsetTable]:
    """One block loop over the tables of a batch. Masks, layers and block
    positions are shared. Every per-graph array has a last axis over the
    graphs, so each gather reads a mask's entries of all of them at once; a
    lone graph's arrays have none and are built as for one table."""
    n = graphs[0].n
    full = cap == n
    unit = objective == "dpw"
    dtype = _value_dtype(bound)
    entries = _layer_start(n, cap + 1)
    big = 2 * bound + 1          # above every candidate of every graph
    batch = (len(graphs),) if len(graphs) > 1 else ()

    def each(a) -> list:
        return guards.batch_views(a, len(graphs))

    if not unit:
        w = np.zeros((n, n) + batch, dtype=dtype)
        for g, wg in zip(graphs, each(w)):
            for u, v, wt in g.arc_items:
                wg[u, v] = wt
    if objective == "fas" or not full:
        vals = np.full((1 << n if full else entries,) + batch, big, dtype=dtype)
    else:
        # an entry not yet filled holds big + its term, crossing(S) or
        # boundary(S): still above every candidate, and read back when filled
        vals = np.empty((1 << n,) + batch, dtype=dtype)
        for g, vg, wg in zip(graphs, each(vals), graphs if unit else each(w)):
            if unit:
                _boundary_terms(g, vg)
            else:
                _crossing_terms(wg, vg)
        vals += big
    vals[0] = 0
    # one buffer per block-wide array, reused: a fresh one each block costs
    # page faults on a par with the work
    width = min(math.comb(n, min(cap, n // 2)), _CHUNK_ROWS)   # widest block
    prev_buf = np.empty((n, width), dtype=np.int64)
    cand_buf = np.empty((n, width) + batch, dtype=dtype)
    if objective == "fas":       # weight from each v into S
        (_, low, low_table), *high_tables = _row_sums(w.swapaxes(0, 1))
        sums_buf = np.empty((width, n) + batch, dtype=dtype)
    elif not full:               # capped dpw: boundary(S) per block
        closed = np.array([_closed_masks(g) for g in graphs], dtype=np.int64).T
        closed = closed.reshape((n, 1) + batch)
    bit = (1 << np.arange(n))[:, None]
    notbit = ~bit
    by_mask = (slice(None),) + (None,) * len(batch)   # masks against a batch
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
            cand = vals.take(prev, axis=0, out=cand_buf[:, :cols], mode="clip")
            if objective == "fas":
                sums = low_table.take(masks & low, axis=0, out=sums_buf[:cols],
                                      mode="clip")
                for first, width, table in high_tables:
                    sums += table.take(masks >> first & width, axis=0)
                cand += sums.swapaxes(0, 1)
            best = cand.min(axis=0)
            if objective != "fas":
                if full:
                    extra = vals[masks] - big
                else:    # members whose closed mask is not within S
                    extra = size - ((closed & masks[by_mask]) == closed).sum(axis=0)
                best = (extra + best if objective == "ola"
                        else np.maximum(extra, best))
            at = masks if full else slice(start + lo, start + lo + cols)
            vals[at] = best
        layers = [layer] if full else layers + [layer]
    weights = each(w) if objective == "fas" else [None] * len(graphs)
    return [SubsetTable(n, cap, vg, wg, None if full else tuple(layers), entries)
            for vg, wg in zip(each(vals), weights)]


def _prefix_table(g: Digraph, cap: int, objective: str) -> SubsetTable:
    """One graph's table: a batch of one."""
    return _prefix_tables([g], cap, objective)[0]


def fas_table(g: Digraph, size_cap: int | None = None) -> SubsetTable:
    """Minimum feedback arc weight of G[S] for every |S| <= size_cap."""
    return _prefix_table(g, g.n if size_cap is None else size_cap, "fas")


def dpw_prefix_table(g: Digraph, size_cap: int) -> SubsetTable:
    """Best achievable max-boundary over orderings of each |S| <= size_cap,
    with boundaries taken in the whole graph."""
    return _prefix_table(g, size_cap, "dpw")


def _exact(g: Digraph, objective: str) -> SolveReport:
    t0 = time.perf_counter()
    guards.check(g.n, guards.EXACT_DP_GUARD, f"{objective}_exact vertex count")
    table = fas_table(g) if objective == "fas" else _prefix_table(g, g.n, objective)
    return _exact_report(g, objective, table, t0)


def _exacts(graphs, objective: str) -> list[SolveReport]:
    """The exact reports of graphs with one vertex count, from one batch of
    tables."""
    t0 = time.perf_counter()
    n = graphs[0].n
    guards.check(n, guards.EXACT_DP_GUARD, f"{objective}_exact vertex count")
    tables = _prefix_tables(graphs, n, objective)
    return [_exact_report(g, objective, table, t0)
            for g, table in zip(graphs, tables)]


def _exact_report(g: Digraph, objective: str, table: SubsetTable,
                  t0: float) -> SolveReport:
    """g's exact report from its full table, whose value finish() checks."""
    full = (1 << g.n) - 1
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
