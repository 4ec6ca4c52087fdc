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
without enumerating 2^n; capped tables are built for fas and dpw only.

One loop fills every table, a chunk of rows at a time. A row holds the
masks S = H * 2^b + L of one high mask H, L over the low b bits: b up to
_LOW_BITS in a full table, whose rows are contiguous, by a rule of n alone
(_chunks), and b = 0 in a capped one, whose rows are its masks. Rows are
filled by the size of H, and only the members of S are read:
- a high member v: f(S-v) for every L at once is the whole row H-v (a capped
  table's layers give its position in the one below), their least taken
  into a contiguous array, then copied into the chunk once;
- a low member u: one cached pattern per b lists L-u, a size of L at a time,
  laid out so the minimum runs over the members. The chunk is transposed,
  low masks by rows, so these gathers read whole runs of rows too.
fas adds w(v -> S-v) = w(v -> H-v) + w(v -> L) to a high member's candidate,
both parts from sums of rows of the weights. While the low members are
taken, the chunk holds f(S) - w(L -> H), so a low member u adds only
w(u -> L-u), which a table per graph lists in the pattern's order.

No last vertex is stored. Every f(S-v) is final before S is filled, so the
last vertex of S is derived from the finished values when asked for: the
first v in S, ascending, minimising f(S-v) (plus the fas term). That is the
minimum the fill took, with ties kept at the smallest vertex index.

A full ola/cutwidth/dpw table holds the term of every mask in its value array
before its entry is filled, built in contiguous passes: crossing by doubling
on the top bit of S, boundary as the subset sums of +1 at each {v} and -1 at
each {v} plus its in-neighbors. A capped dpw table counts boundary(S) per
chunk instead.

Every candidate lies from -bound to 2 * bound, where bound is
guards.value_bound, the largest possible entry, so values take
guards.int_dtype(2 * bound) (the guards doc).

The tables of graphs with one vertex count share their rows and chunks, so
_prefix_tables fills those whose values share a dtype in one loop, their
arrays stacked on a last axis over the graphs, each table a strided view of
them. A batch keeps within the byte guard and its chunks within one table's
chunk size, and is split where it would not; a lone graph's arrays have no
such axis.
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

_LOW_BITS = 12            # B: a full table's row holds at most 2^B masks
_CHUNK_MASKS = 1 << 16    # masks per chunk of a full table's rows
_CHUNK_ROWS = 1 << 12     # masks per chunk of a capped table, one a row
_SMALL_BYTES = 1 << 15    # a build's small arrays and numpy's buffers
_BINOMIAL = np.array([[math.comb(t, k) for t in range(33)] for k in range(33)])  # k, t


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """Filled DP table: the value array vals, laid out as in the module doc,
    and for fas the weight matrix w (w[u, v] the weight of arc u -> v);
    value_of and order_of read them by bitmask or vertex subset."""

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

    def order_of(self, subset) -> tuple[int, ...]:
        """Vertices of the subset in table-optimal placement order: its last
        vertex (_last), preceded by the order of the rest."""
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
        """The last vertex of a table-optimal placement of a nonempty mask S:
        the first v in S minimising f(S-v), plus for fas into[v] = w(v -> S-v)."""
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


def _next_layer(layer: np.ndarray, members: np.ndarray, size: int,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-(size+1) masks of n bits, ascending, and their members as a
    (size+1, count) int8 array of bit positions, ascending, from the
    ascending size-`size` ones and theirs: those with top bit t are the
    size-`size` masks below 2^t plus bit t, which _positions reads back."""
    if not size:                 # the singletons
        return 1 << np.arange(n), np.arange(n, dtype=np.int8)[None]
    counts = [math.comb(t, size) for t in range(size, n)]
    out = np.empty(sum(counts), dtype=np.int64)
    at = 0
    for t, below in enumerate(counts, size):
        np.bitwise_or(layer[:below], 1 << t, out=out[at:at + below])
        at += below
    bits = np.empty((size + 1, len(out)), dtype=np.int8)
    np.concatenate([members[:, :below] for below in counts], axis=1,
                   out=bits[:size])
    bits[size] = np.repeat(np.arange(size, n, dtype=np.int8), counts)
    return out, bits


def _positions(members: np.ndarray, prev: np.ndarray, lo: int = 0) -> np.ndarray:
    """Where S-v lies in the size-s layer, int32, per member v of the
    size-(s+1) masks S with these members, from lo; prev: the size-s masks'.
    With top bit t, S-t is at i = index - C(t, s+1), S-v at C(t, s) + prev[:, i]."""
    size, t = len(prev), members[-1]
    out = np.empty((size + 1, len(t)), dtype=np.int32)
    out[size] = np.arange(lo, lo + len(t)) - _BINOMIAL[size + 1].take(t)
    prev.take(out[size], axis=1, out=out[:size])
    out[:size] += _BINOMIAL[size].take(t)
    return out


def _chunks(n: int, cap: int) -> tuple[int, int, int, int]:
    """How a table is filled: (b, high, top, rows), the low bits of a row's
    masks, the bits of its high mask, the largest high mask size and the
    rows of a chunk. A full table's row holds the 2^b masks of one high mask:
    b = min(n, _LOW_BITS) in a table smaller than half a chunk, else n - 8
    (half a chunk's bits) up to _LOW_BITS, which widens the chunks at
    n = 15-19; a capped table's holds one mask, b = 0."""
    if cap < n:
        return 0, n, cap, _CHUNK_ROWS
    b = min(n if 2 << n < _CHUNK_MASKS else n - _CHUNK_MASKS.bit_length() // 2,
            _LOW_BITS)
    return b, n - b, n - b, max(1, _CHUNK_MASKS >> b)


def _table_bytes(n: int, cap: int, bound: int, objective: str) -> tuple[int, int]:
    """The bytes a table and its build allocate: those each table of a batch
    adds, and those the batch shares: its layers, members and positions, and
    the high layers and low masks' pattern, which the first build of its
    split caches (1.6 MB at n = 28). When values are objects, an entry
    counts a Python int of its own only in the arrays that compute one: the
    values, sums of weights and fas's candidates; the others hold pointers."""
    entries = _layer_start(n, cap + 1)
    dtype = guards.int_dtype(2 * bound)
    value = guards.entry_bytes(dtype, bound)
    item = guards.entry_bytes(dtype)
    fas = objective == "fas"
    b, high, top, rows = _chunks(n, cap)
    widest = math.comb(high, min(top, high // 2))
    cols = min(rows, widest)
    chunk = cols << b                        # masks of the widest chunk
    cand = value if fas else item            # a candidate: fas adds weights
    low = max((size + 1) * math.comb(b, size) for size in range(b + 1))
    picks = (b << b - 1) + (1 << b) if b else 0   # a row's low candidates
    # a chunk's arrays: candidates of its high members, their least (and fas's
    # addends), the chunk, its terms and copies, two layers' low candidates
    temps = ((top + 1) * chunk * cand + 4 * chunk * value
             + (top * chunk * item if fas else 0)
             + 2 * (low + math.comb(b, b // 2)) * cols * cand
             + (4 * top + n) * cols * 8)
    each = (1 << n if cap == n else entries) * value + temps
    if fas:          # weights, row sums (_row_sums' groups), low sums, terms
        groups = max(1, -(-high // 12))
        each += ((n * n + picks) * item
                 + ((n * groups << -(-high // groups)) + (n << b)) * value)
    elif objective != "dpw":
        each += n * n * item
    # capped: layers, two layers' members, int32 positions; full: high layers
    pos = pairwise([0] + [4 * s * math.comb(n, s) for s in range(top)])
    layers = (8 * entries + (8 + 2 * top) * widest + max(map(sum, pos), default=0)
              if cap < n else ((16 + high) << high) // 2)
    shared = layers + 10 * ((1 << b) + 2 * picks) + _SMALL_BYTES
    return each, shared


def _check_size(n: int, cap: int, bound: int, objective: str) -> int:
    """Guard the bytes of one table and its build; returns the entries."""
    guards.check_universe(n)
    if not 0 <= cap <= n:
        raise ValueError(f"size cap {cap} outside 0..{n}")
    guards.check(sum(_table_bytes(n, cap, bound, objective)), "subset table bytes")
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
    below = np.arange(1 << low, dtype=np.uint8)
    supersets = (below[:, None] & below) == below[:, None]
    term[:] = 0
    grid = term.reshape(1 << n - low, 1 << low)   # views, also of a column
    for v, closed in enumerate(_closed_masks(g)):
        grid[1 << v >> low] += supersets[1 << v & (1 << low) - 1]
        grid[closed >> low] -= supersets[closed & (1 << low) - 1]
    for b in range(low, n):
        view = term.reshape(-1, 2, 1 << b)
        view[:, 1] += view[:, 0]


def _prefix_tables(graphs, cap: int, objective: str) -> list[SubsetTable]:
    """The tables of graphs with one vertex count, capped at size cap.
    Graphs whose values share a dtype are filled as one batch, as
    many at a time as keep the batch's widest chunk within one table's chunk
    size and its bytes within the byte guard, which each table alone must
    meet."""
    n = graphs[0].n
    if cap != n and objective not in ("fas", "dpw"):
        raise ValueError(f"capped tables are built for fas and dpw, not {objective}")
    bounds = [guards.value_bound(g, objective) for g in graphs]
    for bound in bounds:
        _check_size(n, cap, bound, objective)
    b, high, top, rows = _chunks(n, cap)
    width = min(rows, math.comb(high, min(top, high // 2))) << b   # widest chunk

    def room(batch) -> int:
        each, shared = _table_bytes(n, cap, max(bounds[i] for i in batch),
                                    objective)
        return min((rows << b) // width, guards.fits(each, shared))

    tables = [None] * len(graphs)
    for batch in guards.batches([guards.int_dtype(2 * b) for b in bounds], room):
        filled = _fill([graphs[i] for i in batch], cap, objective,
                       max(bounds[i] for i in batch))
        for i, table in zip(batch, filled):
            tables[i] = table
    return tables


def _rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous array as a 1-D array of its rows along the first axis,
    each a void item, unless it holds Python ints: numpy scatters whole rows
    so several times faster than rows of numbers."""
    if a.dtype == object:
        return a
    return a.reshape(len(a), -1).view(np.dtype((np.void, a[:1].nbytes))).reshape(-1)


@cache
def _high_layers(high: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The layers of `high` bits, a size at a time, as _next_layer builds them."""
    layers = [(np.zeros(1, dtype=np.int64), np.zeros((0, 1), dtype=np.int8))]
    for size in range(high):
        layers.append(_next_layer(*layers[-1], size, high))
    return tuple(layers)


@cache
def _low_layers(b: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonempty masks of b bits a size l = 1..b at a time: the size-l
    masks L, ascending, a (l+1, count) array of L-u at each member u, then L
    itself, and at the same places the positions u * 2^b + L of the fas
    terms w(u -> L-u) in an (n, 2^b) table, then 0, where w(0 -> {}) is."""
    layers = []
    for at, bits in _high_layers(b)[1:]:
        u = bits.astype(np.int64)
        layers.append((at, np.concatenate([at - (1 << u), at[None]]),
                       np.concatenate([u << b | at, np.zeros((1, len(at)), np.int64)])))
    return layers


def _fill(graphs, cap: int, objective: str, bound: int) -> list[SubsetTable]:
    """One loop over the tables of a batch. Masks, layers and chunk
    positions are shared. Every per-graph array has a last axis over the
    graphs, so each gather reads a mask's entries of all of them at once; a
    lone graph's arrays have none and are built as for one table."""
    n = graphs[0].n
    full = cap == n
    unit = objective == "dpw"
    dtype = guards.int_dtype(2 * bound)
    entries = _layer_start(n, cap + 1)
    batch = (len(graphs),) if len(graphs) > 1 else ()
    b, high, top, rows_per = _chunks(n, cap)

    def each(a) -> list:
        return guards.batch_views(a, len(graphs))

    if not unit:
        w = np.zeros((n, n) + batch, dtype=dtype)
        for g, wg in zip(graphs, each(w)):
            g.fill_weights(wg)
    vals = np.empty((1 << n if full else entries,) + batch, dtype=dtype)
    if full and objective != "fas":
        # each entry holds its term, crossing(S) or boundary(S), until filled
        for g, vg, wg in zip(graphs, each(vals), graphs if unit else each(w)):
            if unit:
                _boundary_terms(g, vg)
            else:
                _crossing_terms(wg, vg)
    grid = vals.reshape((-1, 1 << b) + batch)   # a row per high mask/position
    low = _low_layers(b)
    low_terms = [None] * b
    if objective == "fas":
        groups = _row_sums(w.swapaxes(0, 1)[b:])   # w(v -> H) per high mask H
    if objective == "fas" and b:
        to_low = np.zeros((n, 1 << b) + batch, dtype=dtype)   # w(v -> L)
        for j in range(b):
            np.add(to_low[:, :1 << j], w[:, j, None],
                   out=to_low[:, 1 << j:2 << j])
        # w(u -> L-u) for each member u of each low mask L, and 0 for L
        flat = to_low.reshape((-1,) + batch)
        low_terms = [flat.take(picks, axis=0)[:, :, None] for _, _, picks in low]
    if unit and not full:        # capped dpw: boundary(S) per chunk
        closed = np.array([_closed_masks(g) for g in graphs], dtype=np.int64).T
        closed = closed.reshape((n, 1) + batch)
        by_row = (slice(None),) + (None,) * len(batch)   # rows against a batch
    (layer, members), pos = _high_layers(0)[0], np.zeros((0, 1), dtype=np.int32)
    layers = [layer]             # kept by capped tables
    start = 0
    for size in range(top + 1):
        if size:
            prev_start, start = start, start + len(layer)
            layer, members = (_high_layers(high)[size] if full else
                              _next_layer(layer, members, size - 1, high))
            layers.append(layer)
            if not full and size < top:   # the top layer's chunks find their own
                pos = _positions(members, pos)
        for lo in range(0, len(layer), rows_per):
            rows = layer[lo:lo + rows_per]
            cols = len(rows)
            if full and objective != "fas":   # terms, prefilled
                term = np.ascontiguousarray(grid.take(rows, axis=0).swapaxes(0, 1))
            elif unit:   # members whose closed mask is not within S
                term = size - ((closed & rows[by_row]) == closed).sum(axis=0)[None]
            # a chunk, low masks by rows: each entry holds the least candidate
            # of its high members until its low members are taken. A chunk of
            # contiguous rows is a view of them
            in_place = cols == 1 or not full
            if in_place:
                i = rows[0] if full else start + lo
                out = grid[i:i + cols].swapaxes(0, 1)
            else:
                out = np.empty((1 << b, cols) + batch, dtype=dtype)
            if size:
                # the high members v of each row H: rows H-v, read whole
                k = members[:, lo:lo + rows_per].astype(np.int64)
                prev = (rows - (1 << k) if full else np.add(  # capped: positions
                    pos[:, lo:lo + rows_per] if size < top else _positions(k, pos, lo),
                    prev_start, dtype=np.int64))
                cand = grid.take(prev, axis=0)
                if objective == "fas":
                    # w(v -> S-v) = w(v -> H-v) + w(v -> L)
                    (first, width, t), *rest = groups
                    into = t.take(rows >> first & width, axis=0)
                    for first, width, t in rest:
                        into += t.take(rows >> first & width, axis=0)
                    into = into.swapaxes(0, 1)
                    cand += into[k + b, np.arange(cols)][:, :, None]
                    if b:
                        cand += to_low.take(k + b, axis=0)
                # contiguous first: numpy reduces into a transposed view slower
                out[:] = np.minimum.reduce(cand).swapaxes(0, 1)
                if objective == "fas" and b:
                    # the chunk holds f(S) - w(L -> H), so a low member u
                    # adds only w(u -> L-u); w(L -> H) is added back below
                    across = np.empty_like(out)
                    across[0] = 0
                    for j in range(b):
                        np.add(across[:1 << j], into[j],
                               out=across[1 << j:2 << j])
                    out -= across
            if not size:                      # the empty set
                out[0] = 0
            elif objective == "ola":
                out[0] += term[0]
            elif objective != "fas":
                np.maximum(out[0], term[0], out=out[0])
            if b:
                # the low members u of each L, a layer of L at a time: L-u is
                # in an earlier layer of the same rows
                best = np.empty((math.comb(b, b // 2), cols) + batch, dtype=dtype)
                out_rows, best_rows = _rows(out), _rows(best)
            for (at, less, _), extra in zip(low, low_terms):
                if not size:     # row 0 has no high candidate at L itself
                    less = less[:-1]
                    extra = None if extra is None else extra[:-1]
                cand = out.take(less, axis=0)
                if objective == "fas":
                    cand += extra
                part = best[:len(at)]
                np.minimum.reduce(cand, out=part)
                if objective == "ola":
                    part += term.take(at, axis=0)
                elif objective != "fas":
                    np.maximum(part, term.take(at, axis=0), out=part)
                out_rows[at] = best_rows[:len(at)]
            if objective == "fas" and b and size:
                out += across
            if not in_place:
                grid[rows] = out.swapaxes(0, 1)
    weights = each(w) if objective == "fas" else [None] * len(graphs)
    return [SubsetTable(n, cap, vg, wg, None if full else tuple(layers), entries)
            for vg, wg in zip(each(vals), weights)]


def fas_table(g: Digraph, size_cap: int | None = None) -> SubsetTable:
    """Minimum feedback arc weight of G[S] for every |S| <= size_cap."""
    return _prefix_tables([g], g.n if size_cap is None else size_cap, "fas")[0]


def dpw_prefix_table(g: Digraph, size_cap: int) -> SubsetTable:
    """Best achievable max-boundary over orderings of each |S| <= size_cap,
    with boundaries taken in the whole graph."""
    return _prefix_tables([g], size_cap, "dpw")[0]


def _exacts(graphs, objective: str) -> list[SolveReport]:
    """The exact reports of graphs with one vertex count, from one batch of
    tables, whose values finish() checks. fas_table builds a lone fas graph's
    batch of one, which a traced run then records as fas_exact's child span."""
    t0 = time.perf_counter()
    n = graphs[0].n
    tables = ([fas_table(graphs[0])] if objective == "fas" and len(graphs) == 1
              else _prefix_tables(graphs, n, objective))
    full = (1 << n) - 1
    return [finish(g, objective, table.order_of(full), table.value_of(full),
                   Counters(table_entries=table.entries, calls=1), t0,
                   claim=table.value_of(full))
            for g, table in zip(graphs, tables)]


def fas_exact(g: Digraph) -> SolveReport:
    """Minimum-weight feedback arc set via the subset DP."""
    return _exacts([g], "fas")[0]


def ola_exact(g: Digraph) -> SolveReport:
    """Optimal linear arrangement via the subset DP."""
    return _exacts([g], "ola")[0]


def cutwidth_exact(g: Digraph) -> SolveReport:
    """Directed cutwidth via the subset DP."""
    return _exacts([g], "cutwidth")[0]


def dpw_exact(g: Digraph) -> SolveReport:
    """Directed pathwidth via the subset DP (weights ignored)."""
    return _exacts([g], "dpw")[0]
