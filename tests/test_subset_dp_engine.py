"""The array-backed subset DP engine against references.

seed_table (conftest) is the dict-based DP the engine replaced, kept only as
the reference for every entry's value and last vertex (including the
smallest-vertex tie-break).
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercut import (Digraph, SizeGuardError, dpw_2approx, dpw_prefix_table,
                      fas_table, gen_random, perm_opt)
from ordercut import guards, subset_dp
from conftest import assert_last_vertices, complete_digraph, prefix_table, seed_table

OBJECTIVES = ("fas", "ola", "cutwidth", "dpw")
CAPPED = ("fas", "dpw")      # the objectives with capped tables


@st.composite
def graphs(draw, max_n=8, weights=st.integers(0, 1000)):
    n = draw(st.integers(0, max_n))
    undirected = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (u < v or not undirected)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        return Digraph(n, chosen, undirected=undirected)
    return Digraph(n, chosen, {p: draw(weights) for p in chosen},
                   undirected=undirected)


def assert_matches_seed(g, cap, objective, ref=None):
    table = (fas_table(g, cap) if objective == "fas" else
             dpw_prefix_table(g, cap) if objective == "dpw" else
             prefix_table(g, cap, objective))
    ref = seed_table(g, cap, objective) if ref is None else ref
    assert len(table.vals) == table.entries == len(ref)
    # every reference mask has its own position
    assert sorted(table._position(mask) for mask in ref) == list(range(len(ref)))
    for mask, (value, _) in ref.items():
        got = table.value_of(mask)
        assert type(got) is int and got == value
    assert_last_vertices(table, ref)


def assert_full_matches_seed_at_every_b(g, objective):
    """g's full table with rows of 2^b masks for every b = 0..n: from a row
    per mask, all read by high members, to one row of every mask, all read
    by low members."""
    ref = seed_table(g, g.n, objective)
    for b in range(g.n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subset_dp, "_LOW_BITS", b)
            assert_matches_seed(g, g.n, objective, ref)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from(OBJECTIVES), st.data())
def test_every_entry_matches_seed_dp(g, objective, data):
    assert_full_matches_seed_at_every_b(g, objective)
    cap = data.draw(st.integers(0, g.n))
    if objective in CAPPED:
        assert_matches_seed(g, cap, objective)
    elif cap < g.n:
        with pytest.raises(ValueError):
            prefix_table(g, cap, objective)


# 2**62 and more in total, so fas/cutwidth run on Python ints, and mixed
# magnitudes around 2**53 and 2**61
@settings(max_examples=25, deadline=None)
@given(graphs(max_n=6, weights=st.sampled_from(
           [0, 1, 2 ** 53 + 1, 2 ** 61 - 1, 2 ** 62, 10 ** 40])),
       st.sampled_from(OBJECTIVES))
def test_huge_weights_match_seed_dp(g, objective):
    assert_full_matches_seed_at_every_b(g, objective)
    if objective in CAPPED:
        assert_matches_seed(g, g.n // 2, objective)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=7, weights=st.integers(0, 50)))
def test_full_table_values_match_oracle(g):
    full = (1 << g.n) - 1
    for objective in OBJECTIVES:
        table = (fas_table(g) if objective == "fas"
                 else prefix_table(g, g.n, objective))
        assert table.value_of(full) == perm_opt(g, objective).opt


@pytest.mark.parametrize("n,widths", [(0, [0]), (11, [11]), (12, [12]),
                                      (13, [7, 6]), (16, [8, 8]), (17, [9, 8]),
                                      (24, [12, 12]), (25, [9, 8, 8]),
                                      (26, [9, 9, 8])])
def test_fas_row_sums_take_the_fewest_even_groups(n, widths):
    # at most 12 rows a group, as few groups as that allows, near-equal in
    # size; each group's gather sums its rows at the bits of the mask
    rng = np.random.default_rng(n)
    a = rng.integers(0, 1000, size=(n, 3, 2))
    groups = subset_dp._row_sums(a)
    assert [len(table).bit_length() - 1 for _, _, table in groups] == widths
    assert [first for first, _, _ in groups] == [sum(widths[:i])
                                                  for i in range(len(widths))]
    for mask in rng.integers(0, 1 << n, size=50).tolist():
        got = sum(table[mask >> first & low] for first, low, table in groups)
        want = sum((a[v] for v in range(n) if mask >> v & 1), np.zeros((3, 2), int))
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_split_table_matches_seed_dp(objective):
    # n = 15 splits each mask at the production rule: rows of 128 masks
    # under high masks of 8 bits, chunks of several rows
    g = gen_random(15, 0.3, weight_range=(1, 9), seed=15)
    assert subset_dp._chunks(15, 15) == (7, 8, 8, 512)
    assert_matches_seed(g, 15, objective)


def recurrence_values(vals, g, objective):
    """Every mask's value by seed_table's recurrence, read from vals at the
    mask's subsets S-v, over all 2^n masks at once. A full table's values
    are the seed DP's exactly when they equal this, by induction on |S|;
    the seed DP itself takes seconds at n >= 16."""
    n = g.n
    masks = np.arange(1 << n)
    f = np.asarray(vals, dtype=np.int64)
    inside = [(masks >> v & 1).astype(bool) for v in range(n)]
    best = np.full(1 << n, np.iinfo(np.int64).max)
    for v in range(n):
        cand = f[masks ^ 1 << v]
        if objective == "fas":        # + w(v -> S-v)
            for u, x, w in g.arc_items:
                if u == v:
                    cand = cand + w * inside[x]
        np.minimum(best, cand, out=best, where=inside[v])
    best[0] = 0
    term = np.zeros(1 << n, dtype=np.int64)
    if objective == "dpw":            # boundary(S)
        for v in range(n):
            outside = np.zeros(1 << n, dtype=bool)
            for u, _ in g.in_pairs[v]:
                outside |= ~inside[u]
            term += inside[v] & outside
    else:                             # crossing(S)
        for u, v, w in g.arc_items:
            term += w * (inside[v] & ~inside[u])
    if objective == "ola":
        best += term
    elif objective != "fas":
        np.maximum(best, term, out=best)
    return best


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_recurrence_values_are_the_seed_dp(objective):
    g = gen_random(9, 0.4, weight_range=(1, 1000), seed=9)
    ref = seed_table(g, 9, objective)
    vals = np.array([ref[mask][0] for mask in range(1 << 9)])
    assert recurrence_values(vals, g, objective).tolist() == vals.tolist()
    vals[300] += 1                    # one wrong entry shows
    assert recurrence_values(vals, g, objective).tolist() != vals.tolist()


# the sizes whose full tables have rows below min(n, _LOW_BITS) masks
LOWERED = [n for n in range(33) if subset_dp._chunks(n, n)[0] != min(n, 12)]


def test_row_split_keeps_within_its_cap_and_a_chunk():
    for n in range(33):
        b, high, top, rows = subset_dp._chunks(n, n)
        assert b <= min(n, subset_dp._LOW_BITS) and high == top == n - b
        assert rows << b <= subset_dp._CHUNK_MASKS
    assert LOWERED == [15, 16, 17, 18, 19]


@pytest.mark.parametrize("top", [1, 1000])
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n", LOWERED)
def test_lowered_row_split_matches_seed_dp(n, objective, top):
    # alone and as a batch of two sharing a dtype, each table is the seed DP's
    g, h = (gen_random(n, 0.3, weight_range=(1, top), seed=s) for s in (n, n + 1))
    bounds = [guards.value_bound(x, objective) for x in (g, h)]
    assert guards.int_dtype(2 * bounds[0]) == guards.int_dtype(2 * bounds[1])
    alone = prefix_table(g, n, objective)
    batch = subset_dp._fill([g, h], n, objective, max(bounds))
    assert batch[0].vals.tolist() == alone.vals.tolist()
    for x, table in ((g, alone), (h, batch[1])):
        assert (recurrence_values(table.vals, x, objective).tolist()
                == table.vals.tolist())


EMPTY_LAYER = (np.zeros(1, dtype=np.int64), np.zeros((0, 1), dtype=np.int8))


def test_positions_find_each_mask_less_a_member():
    # for every layer of n <= 14 bits, the positions of S-v in the layer
    # below, whole and a chunk at a time, are those searchsorted finds
    for n in range(15):
        layer, members = EMPTY_LAYER
        pos = np.zeros((0, 1), dtype=np.int32)
        for size in range(n):
            below, below_pos = layer, pos
            layer, members = subset_dp._next_layer(layer, members, size, n)
            less = layer - (1 << members.astype(np.int64))
            want = np.searchsorted(below, less)
            assert (below[want] == less).all()
            pos = subset_dp._positions(members, below_pos)
            assert pos.dtype == np.int32 and pos.tolist() == want.tolist()
            for lo in range(0, len(layer), 97):
                chunk = members[:, lo:lo + 97]
                assert (subset_dp._positions(chunk, below_pos, lo).tolist()
                        == want[:, lo:lo + 97].tolist())


def test_high_layers_are_built_once_per_split(monkeypatch):
    # the cached layers are those _next_layer builds a size at a time: the
    # masks of each size, ascending, and their members, ascending
    for high in range(11):
        layer, members = EMPTY_LAYER
        for size, (masks, bits) in enumerate(subset_dp._high_layers(high)):
            if size:
                layer, members = subset_dp._next_layer(layer, members, size - 1, high)
            assert masks.tolist() == layer.tolist() == [
                m for m in range(1 << high) if m.bit_count() == size]
            assert bits.tolist() == members.tolist()
            assert bits.T.tolist() == [[v for v in range(high) if m >> v & 1]
                                       for m in masks.tolist()]
    # a second full table of the same split builds no layer
    built = []
    real = subset_dp._next_layer
    monkeypatch.setattr(subset_dp, "_next_layer",
                        lambda *args: built.append(args[2:]) or real(*args))
    subset_dp._high_layers.cache_clear()
    subset_dp._low_layers.cache_clear()
    b, high, _, _ = subset_dp._chunks(17, 17)
    g, h = (gen_random(17, 0.3, seed=s) for s in (1, 2))
    first = prefix_table(g, 17, "ola")
    assert sorted(built) == sorted([(s, high) for s in range(high)]
                                   + [(s, b) for s in range(b)])
    built.clear()
    prefix_table(h, 17, "ola")
    assert built == [] and subset_dp._high_layers.cache_info().hits >= high
    assert recurrence_values(first.vals, g, "ola").tolist() == first.vals.tolist()


@pytest.mark.parametrize("objective,top", [("fas", 1), ("fas", 1000), ("dpw", 1)])
@pytest.mark.parametrize("n", [16, 17, 18, 19, 20])
def test_capped_tables_match_the_full_table(n, objective, top):
    # every entry of a table capped at 1..6 is the full table's at its mask
    g = gen_random(n, 0.3, weight_range=(1, top), seed=n)
    full = prefix_table(g, n, objective).vals
    for cap in range(1, 7):
        table = prefix_table(g, cap, objective)
        assert len(table.layers) == cap + 1
        for size in range(cap + 1):
            masks, vals = table.layer(size)
            assert vals.tolist() == full[masks].tolist()


@pytest.mark.parametrize("n", [13, 14])
def test_fas_table_in_two_row_groups_matches_seed_dp(n):
    # n = 13 and 14 gather a capped table's fas weights from two groups of
    # rows, a full table's from one group of high rows and its low sums
    g = gen_random(n, 0.4, weight_range=(1, 9), seed=n)
    assert_matches_seed(g, n, "fas")
    assert_matches_seed(g, n // 2, "fas")


@pytest.mark.parametrize("total", [2 ** 61 - 1, 2 ** 61])
def test_int64_dispatch_bound(total):
    arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]
    weights = {a: total // 5 for a in arcs}
    weights[arcs[0]] += total - sum(weights.values())
    g = Digraph(4, arcs, weights)
    table = fas_table(g)
    assert table.vals.dtype == (np.int64 if total < 2 ** 61 else object)
    assert_matches_seed(g, 4, "fas")


# at each switch of the value dtype, the largest bound on the narrower side
DTYPE_SWITCHES = [(16383, np.int16, np.int32),          # 2 * bound < 2**15
                  (1073741823, np.int32, np.int64),     # 2 * bound < 2**31
                  (2 ** 61 - 1, np.int64, object)]      # 2 * bound < 2**62


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("top,narrow,wide", DTYPE_SWITCHES)
def test_dtype_switches_match_seed_dp(objective, top, narrow, wide):
    n = 5
    per = n if objective == "ola" else 1      # bound / total (dpw: n always)
    for total, dtype in ((top // per, narrow), (top // per + 1, wide)):
        g = complete_digraph(n, total)
        assert g.total_arc_weight == total
        table = prefix_table(g, n, objective)
        assert table.vals.dtype == (np.int16 if objective == "dpw" else dtype)
        assert_matches_seed(g, n, objective)
        if objective in CAPPED:
            assert_matches_seed(g, 3, objective)


def crossing_of(g, mask):
    return sum(w for u, v, w in g.arc_items
               if mask >> v & 1 and not mask >> u & 1)


def boundary_of(g, mask):
    return sum(1 for v in range(g.n) if mask >> v & 1
               and any(not mask >> u & 1 for u, _ in g.in_pairs[v]))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=10, weights=st.sampled_from([0, 1, 7, 1000, 2 ** 40, 10 ** 30])))
def test_term_tables_match_plain_python(g):
    n = g.n
    dtype = guards.int_dtype(2 * n * g.total_arc_weight)   # ola's table
    w = np.zeros((n, n), dtype=dtype)
    for u, v, wt in g.arc_items:
        w[u, v] = wt
    crossing = np.empty(1 << n, dtype=dtype)
    boundary = np.empty(1 << n, dtype=np.int16)
    subset_dp._crossing_terms(w, crossing)
    subset_dp._boundary_terms(g, boundary)
    for mask in range(1 << n):
        assert crossing[mask] == crossing_of(g, mask)
        assert boundary[mask] == boundary_of(g, mask)


def first_min_prefix(g, p):
    """dpw_2approx's prefix in plain Python: the first p-set in combinations
    order whose best max-boundary ordering (boundaries in the whole graph) is
    least."""
    best = {0: 0}
    for size in range(1, p + 1):
        for combo in combinations(range(g.n), size):
            mask = sum(1 << v for v in combo)
            best[mask] = max(boundary_of(g, mask),
                             min(best[mask ^ 1 << v] for v in combo))
    return min(combinations(range(g.n), p),
               key=lambda c: best[sum(1 << v for v in c)])


@pytest.mark.parametrize("n,seed", [(16, 1), (18, 2), (20, 1), (20, 3), (22, 1)])
def test_dpw_2approx_prefix_is_first_minimum(n, seed):
    g = gen_random(n, 0.3, seed=seed)
    rep = dpw_2approx(g)
    (_, _, p), = rep.trace
    assert set(rep.ordering.seq[:p]) == set(first_min_prefix(g, p))


@pytest.mark.parametrize("build,cap", [(fas_table, -1), (fas_table, 6),
                                       (dpw_prefix_table, 6)])
def test_size_cap_outside_the_table_raises(build, cap):
    with pytest.raises(ValueError, match="size cap .* outside 0..5"):
        build(gen_random(5, 0.5, seed=1), cap)


def test_out_of_table_masks_raise():
    g = Digraph(5, [(0, 1), (1, 2), (2, 0)])
    full, capped = fas_table(g), fas_table(g, 2)
    # a subset naming a vertex twice is no subset: (2, 2) once read as {3}
    repeat = fas_table(gen_random(6, 0.5, seed=3))
    for table, missing in ((full, 32), (full, -1), (capped, 7), (capped, 64),
                           (capped, (0, 1, 2)), (repeat, (2, 2)),
                           (capped, (1, 1))):
        for read in (table.value_of, table.order_of):
            with pytest.raises(ValueError):
                read(missing)
    assert capped.order_of((0, 2)) == (2, 0) and capped.order_of(0) == ()
    assert full.value_of(7) == 1 and capped.value_of(0) == 0


def test_byte_guard(monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    # a full int64 table at n = 26 fits, a larger one or
    # one of Python ints does not, while narrower values fit one or two
    # vertices more; nothing is allocated to find out
    for objective in OBJECTIVES:
        assert subset_dp._check_size(26, 26, 2 * 10 ** 9, objective) == 1 << 26
        assert subset_dp._check_size(27, 27, 10 ** 6, objective) == 1 << 27
        assert subset_dp._check_size(28, 28, 10, objective) == 1 << 28
        with pytest.raises(SizeGuardError):
            subset_dp._check_size(27, 27, 2 * 10 ** 9, objective)
        with pytest.raises(SizeGuardError):
            subset_dp._check_size(28, 28, 10 ** 6, objective)
        with pytest.raises(SizeGuardError):
            subset_dp._check_size(26, 26, 2 ** 70, objective)
    with pytest.raises(SizeGuardError):
        fas_table(Digraph(29, [(0, 1)]))
    assert fas_table(Digraph(32, [(0, 1)]), 2).entries == 1 + 32 + 496


@pytest.mark.parametrize("objective,n,cap,top", [
    ("fas", 12, 12, 1), ("fas", 16, 16, 1), ("fas", 16, 16, 10 ** 6),
    ("fas", 12, 12, 10 ** 18), ("ola", 12, 12, 1), ("ola", 16, 16, 10 ** 6),
    ("ola", 14, 14, 10 ** 18), ("dpw", 14, 7, 1), ("dpw", 16, 8, 1),
    ("ola", 17, 17, 1), ("cutwidth", 17, 17, 10 ** 6), ("fas", 18, 18, 10 ** 6),
    ("dpw", 18, 18, 1), ("fas", 19, 19, 1000), ("dpw", 20, 4, 1),
    ("fas", 18, 1, 1), ("dpw", 24, 5, 1)])
def test_table_bytes_bound_the_traced_peak(objective, n, cap, top):
    # int16, int32 and Python-int values, one row of every mask and rows of
    # 2^8 to 2^12 masks: the byte model the guard reads is at least the memory a
    # build allocates at its peak, and a table's own share of it at most
    # 2.5 times that peak. The share the batch has in common includes the
    # low-mask pattern, which the first build of its b caches; a second
    # build measures the table alone
    g = gen_random(n, 0.3, weight_range=(1, top), seed=1)
    each, shared = subset_dp._table_bytes(n, cap, guards.value_bound(g, objective),
                                          objective)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            prefix_table(g, cap, objective)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= each + shared
    assert each <= 2.5 * peaks[1]


# dpw_2approx keeps the first optimal prefix in combinations order (tuple
# lex order), not the smallest mask. At n = 10 the prefix has 2 vertices.
TWO_CYCLES = Digraph(10, [(0, 3), (3, 0), (1, 2), (2, 1)]
                     + [(i, i + 1) for i in range(4, 9)] + [(9, 4)])


@pytest.mark.parametrize("g,seq", [
    (Digraph(10, []), (1, 0, 9, 8, 7, 6, 5, 4, 3, 2)),
    (Digraph(10, [(i, (i + 1) % 10) for i in range(10)], undirected=True),
     (1, 0, 9, 8, 7, 6, 5, 4, 3, 2)),
    # {0, 3}, {1, 2}, {4, 5}, ... tie at 1; the smallest mask is {1, 2}
    (TWO_CYCLES, (3, 0, 9, 8, 7, 6, 5, 4, 2, 1)),
])
def test_dpw_2approx_tie_break_pins_prefix(g, seq):
    rep = dpw_2approx(g)
    assert rep.trace == (("prefix", 10, 2),)
    assert rep.ordering.seq == seq
