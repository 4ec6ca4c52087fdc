import math
import random
from collections import Counter
from itertools import combinations

import pytest

from ordercut import CutSolution, Digraph, Ordering, balanced, gen_random, kcut, subset_dp

# Hand-built graphs used across the suite (0-indexed).

# Two paths 0->1->2 and 0->3->4->5->2 sharing their endpoints, plus the
# chord 4->1. Under the identity ordering the two chords (5,2) and (4,1)
# are the only backward arcs, both with stretch 3.
PATHS_WITH_CHORD = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 2), (4, 1)]

# A 3-cycle 0->1->2->0 with a detour 0->3->4->5->2; min feedback arc set 1.
TRIANGLE_WITH_DETOUR = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 2)]

# Two 3-cycles, a dense forward bundle between them, and two arcs back.
TWO_TRIANGLES = [
    (0, 1), (1, 2), (2, 0),
    (3, 4), (4, 5), (5, 3),
    (5, 1), (5, 2),
    (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4),
]


@pytest.fixture
def paths_with_chord():
    return Digraph(6, PATHS_WITH_CHORD)


@pytest.fixture
def triangle_with_detour():
    return Digraph(6, TRIANGLE_WITH_DETOUR)


@pytest.fixture
def two_triangles():
    return Digraph(6, TWO_TRIANGLES)


def identity(n):
    """The ordering that puts vertex v at position v + 1."""
    return Ordering(range(1, n + 1))


def reverse(ordering):
    """ordering read from its last position to its first."""
    n = len(ordering)
    return Ordering(n + 1 - p for p in ordering.pos)


def arc_weights(g):
    """{(u, v): w} over g's stored arcs, both directions of an undirected
    edge included."""
    return {(u, v): w for u, v, w in g.arc_items}


def cut_at(g, ordering, i):
    """The arcs crossing position i right-to-left, pos[u] > i >= pos[v], and
    their total weight. For an undirected instance this picks one stored
    direction per crossing edge."""
    if not 1 <= i <= max(g.n - 1, 0):
        raise ValueError(f"cut position {i} outside 1..n-1")
    pos = ordering.pos
    crossing = [(u, v, w) for u, v, w in g.arc_items if pos[u] > i >= pos[v]]
    return tuple((u, v) for u, v, _ in crossing), sum(w for *_, w in crossing)


def dkmc_oracle(g, k):
    """The minimum (k, n-k)-cut by trying every size-k subset, independent of
    the triangle construction; the least subset in combinations order wins
    ties."""
    n = g.n
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    assert math.comb(n, k) <= 1 << 20
    best = None
    for combo in combinations(range(n), k):
        inside = set(combo)
        value = sum(w for v in combo for u, w in g.in_pairs[v] if u not in inside)
        if best is None or value < best.value:
            best = CutSolution(combo, k, value)
    return best


def boost_ladder(levels, delta1=balanced.DEFAULT_DELTA1):
    """The scheme's BoostParams for levels 1..levels."""
    return tuple(balanced._rungs(levels, delta1))


def prefix_table(g, cap, objective):
    """g's subset table capped at size cap: a batch of one."""
    return subset_dp._prefix_tables([g], cap, objective)[0]


def random_corpus(count, n, p, weight_range=(1, 1), undirected=False, seed0=0):
    return [gen_random(n, p, weight_range=weight_range, seed=seed0 + i,
                       undirected=undirected) for i in range(count)]


def with_total(n: int, total: int, seed: int) -> Digraph:
    """A random graph on n vertices whose arc weights sum to total (an
    arcless one for n < 2)."""
    g = gen_random(n, 0.5, seed=seed)
    arcs = [(u, v) for u, v, _ in g.arc_items]
    if not arcs:
        return g
    weights = {a: total // len(arcs) for a in arcs}
    weights[arcs[0]] += total - sum(weights.values())
    return Digraph(n, arcs, weights)


def complete_digraph(n: int, total: int) -> Digraph:
    """Every ordered pair an arc, weights halving from arc to arc and summing
    to total: a table's values and fas sums, and the cuts into sets that
    hold all but vertex 0, all come near it."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    weights = {a: total >> i + 1 for i, a in enumerate(arcs)}
    weights[arcs[0]] += total - sum(weights.values())
    return Digraph(n, arcs, weights)


def mixed(n: int, seed: int = 0) -> list[Digraph]:
    """Unit weights, weights 1..1000 and totals on both sides of 2**61, so
    the batch holds int16 and int64 values and Python ints (two graphs of
    them), interleaved."""
    graphs = ([gen_random(n, 0.4, seed=seed + i) for i in range(3)]
              + [gen_random(n, 0.4, weight_range=(1, 1000), seed=seed + i)
                 for i in range(3)]
              + [with_total(n, 2 ** 61 + d, seed + d) for d in (-1, 0, 1)])
    random.Random(seed).shuffle(graphs)
    return graphs


def seed_table(g, cap, objective):
    """mask -> (value, last vertex) by the original dict DP."""
    n = g.n
    full = (1 << n) - 1
    out_pairs = [[] for _ in range(n)]
    in_mask = [0] * n
    for u, v, w in g.arc_items:
        out_pairs[u].append((v, w))
        in_mask[v] |= 1 << u
    masks = [sum(1 << v for v in c)
             for s in range(1, cap + 1) for c in combinations(range(n), s)]

    def weight(pairs, inside):
        return sum(w for x, w in pairs if inside >> x & 1)

    table = {0: (0, -1)}
    for mask in masks:
        best = bestv = -1
        for v in range(n):
            if not mask >> v & 1:
                continue
            prev = mask ^ 1 << v
            cand = table[prev][0]
            if objective == "fas":
                cand += weight(out_pairs[v], prev)
            if best < 0 or cand < best:
                best, bestv = cand, v
        members = [v for v in range(n) if mask >> v & 1]
        if objective == "dpw":
            term = sum(1 for v in members if in_mask[v] & (full & ~mask))
        elif objective != "fas":
            term = sum(weight(g.in_pairs[v], full & ~mask) for v in members)
        if objective == "ola":
            best += term
        elif objective != "fas":
            best = max(best, term)
        table[mask] = (best, bestv)
    return table


def assert_last_vertices(table, ref):
    """Every nonempty mask of the table has the last vertex of ref,
    seed_table's dict for it, as order_of finds it (SubsetTable._last)."""
    for mask, (_, last) in ref.items():
        if mask:
            assert table._last(mask, table._into(mask)) == last


class KernelCells:
    """The cells the cut kernels were handed: of = {id(graph): cells}, and
    searches, each kcut._search call's cells in order."""

    def __init__(self):
        self.of = Counter()
        self.searches = []

    def clear(self):
        self.of.clear()
        self.searches.clear()


@pytest.fixture
def kernel_cells(monkeypatch):
    """A spy on the cut kernels: each call of min_weight_triangle or
    _triangles counts r1 * r2 * r3 of its blocks for every graph of the
    kcut._search batch it serves."""
    cells = KernelCells()
    batch = []
    search, lone, stacked = kcut._search, kcut.min_weight_triangle, kcut._triangles

    def spy_search(graphs, *args):
        batch[:] = graphs
        cells.searches.append(0)
        return search(graphs, *args)

    def spy(kernel):
        def call(blocks, *args):
            e01, _, e12 = blocks
            count = e01.shape[0] * e12.shape[0] * e12.shape[1]
            cells.searches[-1] += count
            for g in batch:
                cells.of[id(g)] += count
            return kernel(blocks, *args)
        return call

    monkeypatch.setattr(kcut, "_search", spy_search)
    monkeypatch.setattr(kcut, "min_weight_triangle", spy(lone))
    monkeypatch.setattr(kcut, "_triangles", spy(stacked))
    return cells
