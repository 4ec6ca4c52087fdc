"""The (k, n-k)-cut solver and its triangle construction."""

import importlib.util
import sys
from bisect import bisect_left
import tracemalloc
from fractions import Fraction
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordercut import (Counters, CutSolution, Digraph, SizeGuardError, cut_into,
                      cut_profile, dkmc_exact, dkmc_weighted_approx,
                      gen_random, guards, induced, kcut, min_weight_triangle,
                      parse_graph, tripartition)
from ordercut.cli import _solver

from conftest import complete_digraph, dkmc_oracle, mixed

CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def split_rows(matrices, sizes):
    """Each part's row range of its size-sizes[i] subsets."""
    return [r[size] for r, size in zip(matrices.rows, sizes)]


def part_subsets(matrices):
    """Each part's subsets as vertex tuples, in the row order of its
    matrices: the vertices whose mask bits are set."""
    return [[tuple(v for v, bit in zip(part, row) if bit) for row in bits.tolist()]
            for part, bits in zip(matrices.parts, matrices.bits)]


def splits(parts, k):
    """The splits (k1, k2, k3) of k over parts, in the search's order."""
    layout = kcut._Layout(tuple(map(len, parts)))
    return layout.shares[layout.first[k]:layout.first[k + 1]].tolist()


def split_nodes(matrices, rows):
    """The subsets of each part at rows: the split's auxiliary nodes."""
    return [s[r] for s, r in zip(part_subsets(matrices), rows)]


def test_tripartition_sizes():
    assert tripartition(3) == ((0,), (1,), (2,))
    assert tripartition(6) == ((0, 1), (2, 3), (4, 5))
    assert tripartition(7) == ((0, 1, 2), (3, 4), (5, 6))
    assert tripartition(8) == ((0, 1, 2), (3, 4, 5), (6, 7))


def test_aux_graph_hand_example():
    # split (1,0,0) of the 3-cycle: the only candidate L is {0}, whose cut
    # is the arc 2->0; the doubled weight sits on the 0-2 group edge.
    matrices = kcut._PairMatrices([CYCLE3], tripartition(3))
    rows = split_rows(matrices, (1, 0, 0))
    nodes = split_nodes(matrices, rows)
    assert nodes[0] == [(0,)]
    assert nodes[1] == [()] and nodes[2] == [()]
    e01, e02, e12 = (b.tolist() for b in matrices.blocks(rows))
    assert e01 == [[0]]
    assert e02 == [[2]]
    assert e12 == [[0]]


def test_triangle_weight_is_twice_cut_weight():
    # bijection between triangles and size-k vertex sets, all n <= 9
    for n in range(1, 10):
        g = gen_random(n, 0.6, weight_range=(1, 7), seed=100 + n)
        parts = tripartition(n)
        matrices = kcut._PairMatrices([g], parts)
        for k in range(n + 1):
            for k1 in range(min(k, len(parts[0])) + 1):
                for k2 in range(min(k - k1, len(parts[1])) + 1):
                    k3 = k - k1 - k2
                    if not 0 <= k3 <= len(parts[2]):
                        continue
                    rows = split_rows(matrices, (k1, k2, k3))
                    nodes = split_nodes(matrices, rows)
                    e01, e02, e12 = matrices.blocks(rows)
                    for j1, t in enumerate(nodes[0]):
                        for j2, u in enumerate(nodes[1]):
                            for j3, w_ in enumerate(nodes[2]):
                                stored = (e01[j1, j2] + e02[j1, j3]
                                          + e12[j2, j3])
                                cut = cut_into(g, t + u + w_)
                                assert stored == 2 * cut


def test_dkmc_known_values(triangle_with_detour):
    sol = dkmc_exact(CYCLE3, 1)
    assert sol.value == 1
    assert sol.vertices == (0,)   # all three singletons tie; least wins
    sol = dkmc_exact(triangle_with_detour, 3)
    assert sol.value == 1
    assert sol.vertices == (0, 1, 2)


def test_dkmc_boundary_k():
    g = gen_random(6, 0.5, seed=1)
    assert dkmc_exact(g, 0) == dkmc_oracle(g, 0)
    assert dkmc_exact(g, 0).value == 0 and dkmc_exact(g, 0).vertices == ()
    full = dkmc_exact(g, 6)
    assert full.value == 0 and full.vertices == tuple(range(6))
    for k in (7, -1):
        with pytest.raises(ValueError):
            dkmc_exact(g, k)
        with pytest.raises(ValueError, match=f"k={k} outside 0..6"):
            dkmc_oracle(g, k)


def test_dkmc_exact_matches_oracle():
    for seed in range(12):
        n = 5 + seed % 7
        g = gen_random(n, 0.45, weight_range=(1, 50), seed=seed)
        for k in range(n + 1):
            a = dkmc_exact(g, k)
            b = dkmc_oracle(g, k)
            assert a.value == b.value
            assert a.vertices == b.vertices   # shared (value, set) tie-break
            assert cut_into(g, a.vertices) == a.value


def test_dkmc_counts_triangles(kernel_cells):
    # the cells handed to the kernel, fewer than the C(n, k) sets L
    g = gen_random(7, 0.5, seed=5)
    counters = Counters()
    dkmc_exact(g, 3, counters)
    assert 0 < counters.triangles == kernel_cells.of[id(g)] < comb(7, 3)


def test_splits_hold_every_size_k_set_once():
    # Vandermonde: the splits' triangles, r1 * r2 * r3 summed, are the
    # C(n, k) candidate sets L, so a search examines at most C(n, k) cells
    for n in range(33):
        parts = tripartition(n)
        for k in range(n + 1):
            assert sum(comb(len(parts[0]), k1) * comb(len(parts[1]), k2)
                       * comb(len(parts[2]), k3)
                       for k1, k2, k3 in splits(parts, k)) == comb(n, k)


def test_weighted_approx_tiny_eps_is_exact():
    # eps so small that rounding must not move any representable weight
    for seed in range(6):
        g = gen_random(8, 0.5, weight_range=(1, 1000), seed=30 + seed)
        k = 3 + seed % 3
        opt = dkmc_oracle(g, k).value
        sol = dkmc_weighted_approx(g, k, Fraction(1, 10 ** 9))
        assert sol.value == opt
        assert cut_into(g, sol.vertices) == sol.value


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_weighted_approx_factor_exact_rational(eps):
    for seed in range(8):
        n = 6 + seed % 5
        g = gen_random(n, 0.5, weight_range=(1, 10 ** 6), seed=60 + seed)
        k = n // 2
        opt = dkmc_oracle(g, k).value
        sol = dkmc_weighted_approx(g, k, eps)
        assert opt <= sol.value
        assert Fraction(sol.value) <= (1 + eps) * opt


def test_weighted_approx_huge_weights():
    # past the 2048-power grid: the exact cut, compared in Python ints
    eps = Fraction(1, 20)
    for seed in range(4):
        g = gen_random(6, 0.6, weight_range=(10 ** 35, 10 ** 40), seed=90 + seed)
        k = 2 + seed % 3
        opt = dkmc_oracle(g, k).value
        sol = dkmc_weighted_approx(g, k, eps)
        assert opt <= sol.value <= (1 + eps) * opt


def test_weighted_approx_past_the_grid_is_exact():
    # 1+eps/3 is 1 to 60 digits: the weights, about 10**63, lie past the
    # grid and are searched unrounded, so every k gets the exact cut
    arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]
    g = Digraph(4, arcs, {a: 10 ** 63 + 7919 * i for i, a in enumerate(arcs)})
    eps = Fraction(1, 10 ** 60)
    for k in range(5):
        assert dkmc_weighted_approx(g, k, eps) == dkmc_oracle(g, k)
    assert kcut._Rounding(kcut._PairMatrices([g], tripartition(4)), eps).limits == [0]


@pytest.mark.parametrize("g,eps", [
    (gen_random(8, 0.4, seed=1), Fraction(1, 10 ** 800)),
    (gen_random(12, 0.3, weight_range=(1, 10 ** 6), seed=1), Fraction(1, 10 ** 6))])
def test_no_power_is_built_when_no_k_reaches_the_grid(g, eps):
    rounding = kcut._Rounding(kcut._PairMatrices([g], tripartition(g.n)), eps)
    assert rounding.limits == [0]
    ks = range(g.n + 1)
    assert cut_profile(g, ks, eps) == cut_profile(g, ks)


def test_weighted_approx_rejects_bad_eps():
    g = gen_random(5, 0.5, seed=1)
    with pytest.raises(ValueError):
        dkmc_weighted_approx(g, 2, 0)
    with pytest.raises(ValueError):
        dkmc_weighted_approx(g, 2, -1)


def test_exact_guard(monkeypatch):
    # the cut search stops at the 32-vertex hard cap, override or not; below
    # it only the byte guard refuses (test_pair_matrix_byte_guard)
    g = Digraph(33, [(0, 1)])
    for override in ("", "1"):
        monkeypatch.setenv("ORDERCUT_GUARD_OVERRIDE", override)
        with pytest.raises(SizeGuardError, match="hard cap"):
            dkmc_exact(g, 16)


def test_pair_matrix_byte_guard(monkeypatch):
    # 4,000-digit weights make each pair-matrix entry a 1.8 kB Python int:
    # about 1.4 GB at n = 26, refused before anything is allocated
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = gen_random(26, 0.3, weight_range=(10 ** 3999, 10 ** 4000 - 1), seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="cut pair matrix bytes"):
            cut_profile(g, [13])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the guard counts bytes, not vertices: int64 weights fit at n = 26
    small = gen_random(26, 0.3, weight_range=(1, 1000), seed=1)
    kcut._PairMatrices([small], tripartition(26))


def test_rank_table_byte_guard(monkeypatch, tmp_path, capsys):
    # a guard just above the pair matrices of one k leaves no room for the
    # key index of a k searched on the grid, and one just above both none
    # for the pair-sum ranks; the exact search needs neither
    from ordercut import serialize_graph
    from ordercut.cli import main
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = gen_random(12, 0.4, weight_range=(1, 20), seed=1)
    matrices = kcut._PairMatrices([g], tripartition(12))
    for nbytes, what in ((matrices.nbytes, "key index bytes"),
                         (kcut._Rounding(matrices, Fraction(1, 2)).nbytes,
                          "rank table bytes")):
        monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", nbytes + 1)
        with pytest.raises(SizeGuardError, match=what):
            dkmc_weighted_approx(g, 6, Fraction(1, 2))
        assert dkmc_exact(g, 6).value == dkmc_oracle(g, 6).value
    path = tmp_path / "g.g"
    path.write_text(serialize_graph(g))
    assert main(["solve", str(path), "--obj", "fas", "--mode", "2approx",
                 "--eps", "1/2"]) == 4
    assert ("size guard: cut pair matrix, key index and rank table bytes"
            in capsys.readouterr().err)


@pytest.mark.parametrize("n", [8, 12, 21, 26])
@pytest.mark.parametrize("eps", [None, Fraction(1)])
def test_single_k_search_peaks_under_its_byte_model(n, eps):
    # the bytes the guards check for one k and for every k but 0 and n: the
    # pair matrices and bounds, and when rounded also the key index and the
    # rank table
    assert_search_peaks_under_its_byte_model(
        gen_random(n, 0.3, weight_range=(1, 1000), seed=1), eps)


@pytest.mark.parametrize("n", [8, 12, 18, 21])
@pytest.mark.parametrize("eps", [None, Fraction(1)])
def test_int16_search_peaks_under_its_byte_model(n, eps):
    # unit weights: int16 pair matrices, beside which the bounds (float64
    # when keyed) and the search's row indices keep 8 bytes a cell
    g = gen_random(n, 0.3, seed=1)
    assert kcut._PairMatrices([g], tripartition(n)).mats[0, 1].dtype == np.int16
    assert_search_peaks_under_its_byte_model(g, eps)


@pytest.mark.parametrize("eps", [None, Fraction(1)])
def test_object_search_peaks_under_its_byte_model(eps):
    # weights of 2^62 and more: Python-int pair matrices, whose entries
    # each count a Python int beside the array's pointer
    g = gen_random(12, 0.3, weight_range=(2 ** 62, 2 ** 64), seed=1)
    assert kcut._PairMatrices([g], tripartition(12)).mats[0, 1].dtype == object
    assert_search_peaks_under_its_byte_model(g, eps)


def test_stacked_search_peaks_under_its_byte_model():
    # the 20 one-vertex complements of a 21-vertex graph in one exact
    # search, as a scheme level stacks them: the larger splits' rows hold
    # more than _CHUNK_CELLS sums across the batch, so they are summed one
    # row at a time, within the bytes batches are sized by
    g = gen_random(21, 0.3, seed=1)
    graphs = [induced(g, [v for v in range(21) if v != x])[0] for x in range(20)]
    parts = tripartition(20)
    assert comb(7, 3) * comb(6, 3) * len(graphs) > kcut._CHUNK_CELLS
    model = len(graphs) * kcut._pair_bytes(
        parts, 2 * max(h.total_arc_weight for h in graphs), 1)
    kcut._cut_profiles(graphs, [10], None, [None] * 20)   # fills the caches
    tracemalloc.start()
    try:
        kcut._cut_profiles(graphs, [10], None, [None] * 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= model


def assert_search_peaks_under_its_byte_model(g, eps):
    n = g.n
    for ks in ([n // 2], range(1, n)):
        matrices = kcut._PairMatrices([g], tripartition(n), len(ks))
        model = matrices.nbytes
        if eps is not None:
            rounding = kcut._Rounding(matrices, eps)
            model = rounding.nbytes + kcut._RANK_BYTES * len(rounding.grid[1]) ** 2
            del rounding
        del matrices
        cut_profile(g, ks, eps)   # fills the caches of part masks and k indices
        tracemalloc.start()
        try:
            cut_profile(g, ks, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= model


def test_oracle_lex_least_witness():
    # single arc 0->1 and k=1: both {0} and {1} cost 0... not quite: cut
    # into {1} is 1, into {0} is 0, so {0} is forced; add symmetry to tie
    g = Digraph(4, [])
    sol = dkmc_oracle(g, 2)
    assert sol.vertices == (0, 1)
    assert dkmc_exact(g, 2).vertices == (0, 1)


# ------------------------------------------------- cut engine property tests

@st.composite
def digraphs(draw, max_n=10, max_w=1000, min_w=0, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = {p: draw(st.integers(min_value=min_w, max_value=max_w))
               for p in chosen}
    return Digraph(n, chosen, weights)


@settings(max_examples=40, deadline=None)
@given(digraphs(), st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1)]))
def test_cut_profile_matches_oracle_for_every_k(g, eps):
    ks = range(g.n + 1)
    exact = cut_profile(g, ks)
    rounded = cut_profile(g, ks, eps)
    assert list(exact) == list(rounded) == list(ks)
    for k in ks:
        opt = dkmc_oracle(g, k)
        assert exact[k] == opt                    # value and tie-break
        sol = rounded[k]
        assert len(sol.vertices) == k and cut_into(g, sol.vertices) == sol.value
        assert opt.value <= sol.value
        assert Fraction(sol.value) <= (1 + eps) * opt.value


def seed_triangle_scan(e01, e02, e12):
    """The original pruned lex-order scan over nested lists: the reference
    for min_weight_triangle's triple, weight and tie-break."""
    best = best_triple = None
    for j1, (row01, row02) in enumerate(zip(e01, e02)):
        for j2, w12 in enumerate(row01):
            if best is not None and w12 >= best:
                continue
            for j3, w3 in enumerate(row02):
                total = w12 + w3 + e12[j2][j3]
                if best is None or total < best:
                    best, best_triple = total, (j1, j2, j3)
    return best_triple, best


def test_triangle_search_matches_seed_scan_on_aux_graphs():
    for seed in range(6):
        n = 4 + seed
        g = gen_random(n, 0.5, weight_range=(1, 3 + 40 * (seed % 2)),
                       seed=700 + seed)
        parts = tripartition(n)
        matrices = kcut._PairMatrices([g], parts)
        for k in range(n + 1):
            for sizes in splits(parts, k):
                blocks = matrices.blocks(split_rows(matrices, sizes))
                lists = [[[int(w) for w in row] for row in m] for m in blocks]
                assert min_weight_triangle(blocks) == seed_triangle_scan(*lists)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_search_matches_seed_scan_with_ties(data):
    r1, r2, r3 = (data.draw(st.integers(1, 6)) for _ in range(3))

    def matrix(rows, cols):
        return data.draw(st.lists(st.lists(st.integers(0, 3), min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows))

    e01, e02, e12 = matrix(r1, r2), matrix(r1, r3), matrix(r2, r3)
    blocks = tuple(np.array(m, dtype=np.int64) for m in (e01, e02, e12))
    assert min_weight_triangle(blocks) == seed_triangle_scan(e01, e02, e12)


@pytest.mark.parametrize("r1,r2,r3", [(0, 2, 3), (2, 0, 3), (2, 3, 0)])
def test_triangle_search_rejects_an_empty_block(r1, r2, r3):
    blocks = tuple(np.zeros(shape, dtype=np.int64)
                   for shape in ((r1, r2), (r1, r3), (r2, r3)))
    with pytest.raises(ValueError, match="a block is empty"):
        min_weight_triangle(blocks)


def _graph_with_total(total: int) -> Digraph:
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0), (4, 1)]
    base = total // len(arcs)
    weights = {a: base + (i * 7919) % 1000 for i, a in enumerate(arcs)}
    weights[arcs[0]] += total - sum(weights.values())
    return Digraph(6, arcs, weights)


@pytest.mark.parametrize("total,dtype", [(2 ** 61 - 1, np.int64),
                                         (2 ** 61, object)])
def test_int64_dispatch_bound(monkeypatch, total, dtype):
    # 2 * total arc weight < 2**62 runs in int64, beyond it in Python ints;
    # either way the result equals the all-Python-int run.
    g = _graph_with_total(total)
    assert g.total_arc_weight == total
    def block_dtype():
        matrices = kcut._PairMatrices([g], tripartition(6))
        return matrices.blocks(split_rows(matrices, (1, 1, 1)))[0].dtype

    assert block_dtype() == dtype
    ks = range(7)
    runs = [cut_profile(g, ks), cut_profile(g, ks, Fraction(1, 2))]
    monkeypatch.setattr(guards, "int_dtype", lambda bound: object)
    assert block_dtype() == object
    assert runs == [cut_profile(g, ks), cut_profile(g, ks, Fraction(1, 2))]


def test_exact_profile_totals_match_oracle_and_seed_scan(kernel_cells):
    # a whole exact call: every k equals the oracle, its doubled value is
    # the seed scan's best weight over the splits, and the call counts the
    # cells it handed the kernel, at most C(n, k) for each k
    graphs = [gen_random(n, 0.5, seed=n) for n in range(1, 13)]
    graphs += [_graph_with_total(2 ** 61 - 1), _graph_with_total(2 ** 61)]
    for g in graphs:
        parts = tripartition(g.n)
        matrices = kcut._PairMatrices([g], parts)
        counters = Counters()
        got = cut_profile(g, range(g.n + 1), None, counters)
        for k in range(g.n + 1):
            assert got[k] == dkmc_oracle(g, k)
            assert 2 * got[k].value == min(
                seed_triangle_scan(*matrices.blocks(split_rows(matrices, sizes)))[1]
                for sizes in splits(parts, k))
        assert counters.triangles == kernel_cells.of[id(g)] <= 2 ** g.n


# ------------------------------------------------ pair matrices, reference copy

def reference_pair_matrices(g, parts):
    """The pair matrices as they were built: 0/1 subset matrices chi, one row
    per subset in (size, lex) order, and integer matrix products, in int64
    or Python ints whatever the dtype the engine stores them in."""
    from itertools import accumulate, combinations, pairwise
    bound = 2 * g.total_arc_weight
    dtype = guards.int_dtype(bound)
    entry = guards.entry_bytes(dtype, bound)
    wide = object if dtype is object else np.int64
    s0, s1, s2 = (len(p) for p in parts)
    cells = [1 << len(parts[a]) + len(parts[b]) for a, b in kcut._PAIRS]
    # one k's lb and at most as many minima, sb and gathered 1-2 terms
    bounds = 2 * (1 << s0) * (s1 + 1) + (s0 + 1) * (s1 + 1) + (s0 + 1) * (1 << s1)
    bounds += 2 * ((1 << s0) + (1 << s1)) * (s2 + 1)     # c02, c12, keyed or not
    # the m01 rows bounded at a time, their 1-2 terms or keys
    bounds += 2 * min(1 << s0 + s1, max(kcut._BOUND_CELLS, 1 << s1))
    nbytes = int((sum(cells) + kcut._PAIR_TEMPS * max(cells)) * entry
                 + bounds * max(entry, 8) + kcut._CALL_BYTES)
    w = np.zeros((g.n, g.n), dtype=wide)
    for u, v, wt in g.arc_items:
        w[u, v] = wt
    idx = [np.array(p, dtype=np.intp) for p in parts]
    into = [w[i].sum(axis=0) for i in idx]   # into[j][x]: from part j to x
    subsets, rows, chi = [], [], []
    for part in parts:
        subs = [t for k in range(len(part) + 1) for t in combinations(part, k)]
        subsets.append(subs)
        starts = accumulate((comb(len(part), k) for k in range(len(part) + 1)),
                            initial=0)
        rows.append([slice(lo, hi) for lo, hi in pairwise(starts)])
        chi.append(np.array([[v in t for v in part] for t in subs],
                            dtype=np.int64).astype(wide))

    def from_part(i, j):
        return chi[i] @ into[j][idx[i]]

    deltas = [from_part(i, i)
              - ((chi[i] @ w[np.ix_(idx[i], idx[i])]) * chi[i]).sum(axis=1)
              for i in range(3)]
    mats = {}
    for a, b in kcut._PAIRS:
        both = w[np.ix_(idx[a], idx[b])] + w[np.ix_(idx[b], idx[a])].T
        cross = chi[a] @ both @ chi[b].T
        mats[a, b] = (2 * (from_part(a, b)[:, None] + from_part(b, a)[None, :]
                           - cross) + deltas[a][:, None] + deltas[b][None, :])
    return dtype, subsets, rows, nbytes, mats


def assert_pair_matrices_match_reference(g):
    parts = tripartition(g.n)
    got = kcut._PairMatrices([g], parts)
    dtype, subsets, rows, nbytes, mats = reference_pair_matrices(g, parts)
    assert (part_subsets(got), list(got.rows), got.nbytes) == (subsets, rows, nbytes)
    assert list(got.mats) == list(mats)
    for pair, m in mats.items():
        assert got.mats[pair].dtype == dtype
        assert got.mats[pair].tolist() == m.tolist()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(0, 3), (0, 1000), (0, 10 ** 20)])
       .flatmap(lambda w: digraphs(max_n=12, min_w=w[0], max_w=w[1])))
def test_pair_matrices_match_reference(g):
    # weights up to 10**20 make most totals pass 2**61: dtype=object
    assert_pair_matrices_match_reference(g)


@pytest.mark.parametrize("g", [Digraph(0, []), _graph_with_total(2 ** 61 - 1),
                               _graph_with_total(2 ** 61),
                               _graph_with_total(2 ** 61 + 1)])
def test_pair_matrices_match_reference_at_the_edges(g):
    assert_pair_matrices_match_reference(g)


# ------------------------------------------- rounded search, reference copy

def reference_rounded_keys(weights, eps):
    """The rounding of one k's sorted distinct stored weights as it was
    computed per k: a Python loop over the powers of (1+eps/3). Past 2048
    powers the weights stay unrounded."""
    smax = weights[-1]
    if eps * smax < 1:
        return weights
    base = 1 + eps / 3
    a, b = base.numerator, base.denominator
    pa, pb = [1], [1]
    while pa[-1] < smax * pb[-1] and len(pa) <= 2048:
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    if pa[-1] < smax * pb[-1]:
        return weights
    emax = len(pa) - 1
    keys = []
    e = 0
    for w in weights:
        while pa[e] < w * pb[e]:
            e += 1
        keys.append(pa[e] * pb[emax - e] if w else 0)
    return keys


def reference_triangle(e01, e02, e12):
    """The triangle search on summed weights, a block of j1 rows at a time."""
    r1, r2 = e01.shape
    r3 = e12.shape[1]
    best_j3 = np.empty((r1, r2), dtype=e01.dtype)
    step = max(1, 8192 // (r2 * r3))
    for lo in range(0, r1, step):
        sums = e01[lo:lo + step, :, None] + e12
        sums += e02[lo:lo + step, None, :]
        sums.min(axis=2, out=best_j3[lo:lo + step])
    flat = best_j3.ravel()
    j1, j2 = divmod(int(flat.argmin()), r2)
    j3 = int((e02[j1] + e12[j2]).argmin())
    return (j1, j2, j3), int(flat[j1 * r2 + j2])


def reference_rounded_profile(g, ks, eps):
    """The rounded cut_profile as it was: keys recomputed per k from the
    stored weights of that k's splits, keyed blocks of Python ints."""
    parts = tripartition(g.n)
    matrices = kcut._PairMatrices([g], parts)
    out = {}
    for k in ks:
        cells = [split_rows(matrices, sizes) for sizes in splits(parts, k)]
        weights = sorted({int(w) for rows in cells for blk in matrices.blocks(rows)
                          for w in blk.ravel().tolist()})
        keys = dict(zip(weights, reference_rounded_keys(weights, eps)))
        best = None
        for rows in cells:
            blocks = [np.array([[keys[int(w)] for w in row] for row in blk.tolist()],
                               dtype=object) for blk in matrices.blocks(rows)]
            (j1, j2, j3), weight = reference_triangle(*blocks)
            nodes = split_nodes(matrices, rows)
            cand = (weight, nodes[0][j1] + nodes[1][j2] + nodes[2][j3])
            if best is None or cand < best:
                best = cand
        out[k] = CutSolution(best[1], k, cut_into(g, best[1]))
    return out


ROUNDING_EPS = [Fraction(1, 10 ** 9), Fraction(1, 10), Fraction(1, 2),
                Fraction(1), Fraction(3)]


def assert_matches_reference(g, eps, kernel_cells):
    ks = range(g.n + 1)
    counters = Counters()
    kernel_cells.clear()
    assert cut_profile(g, ks, eps, counters) == reference_rounded_profile(g, ks, eps)
    assert counters.triangles == kernel_cells.of[id(g)] <= 2 ** g.n


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([(0, 3), (0, 1000), (0, 10 ** 9), (10 ** 8, 10 ** 9)])
       .flatmap(lambda w: digraphs(max_n=9, min_w=w[0], max_w=w[1])),
       st.sampled_from(ROUNDING_EPS))
def test_rounded_profile_matches_reference(kernel_cells, g, eps):
    # small weights are rounded on the grid or not at all; weights near
    # 10**9 with eps = 1e-9 lie past the grid and are searched unrounded
    assert_matches_reference(g, eps, kernel_cells)


@pytest.mark.parametrize("eps", ROUNDING_EPS)
def test_rounded_profile_matches_reference_on_seeded_graphs(eps, kernel_cells):
    # with eps = 1e-9, weights up to 20 lie below 1/eps and weights up to
    # 10**9 past the grid, both unrounded; the other eps round both on the grid
    for seed in range(6):
        for weights in ((0, 20), (0, 10 ** 9)):
            g = gen_random(4 + seed, 0.5, weight_range=weights, seed=900 + seed)
            assert_matches_reference(g, eps, kernel_cells)


@pytest.mark.parametrize("total", [2 ** 61 - 1, 2 ** 61])
@pytest.mark.parametrize("eps", ROUNDING_EPS)
def test_rounded_profile_matches_reference_at_dtype_boundary(total, eps, kernel_cells):
    assert_matches_reference(_graph_with_total(total), eps, kernel_cells)


def out_star(n, total):
    """Arcs from vertex 0 to every other vertex, weights halving from arc to
    arc and summing to total: the cut into V - {0} is total."""
    arcs = [(0, v) for v in range(1, n)]
    weights = {a: total >> i + 1 for i, a in enumerate(arcs)}
    weights[arcs[0]] += total - sum(weights.values())
    return Digraph(n, arcs, weights)


@pytest.mark.parametrize("make", [complete_digraph, out_star])
@pytest.mark.parametrize("total,dtype", [(2 ** 14 - 1, np.int16), (2 ** 14, np.int32),
                                         (2 ** 30 - 1, np.int32), (2 ** 30, np.int64)])
@pytest.mark.parametrize("eps", [None, Fraction(1, 2)])
def test_profile_at_each_width_switch(make, total, dtype, eps, kernel_cells):
    # 2 * total at 32,766/32,768 and 2**31 - 2/2**31: the pair matrices
    # widen int16 -> int32 -> int64. The arcs out of vertex 0 carry all or
    # almost all the weight, so the triangles of L = V - {0} weigh 2 * total
    # or near it, and would wrap in matrices one size too narrow
    g = make(8, total)
    mats = kcut._PairMatrices([g], tripartition(8)).mats.values()
    assert [m.dtype for m in mats] == [dtype] * 3
    assert 2 * cut_into(g, range(1, 8)) > 1.9 * total
    if eps is None:
        assert cut_profile(g, range(9)) == {k: dkmc_oracle(g, k) for k in range(9)}
    else:
        assert_matches_reference(g, eps, kernel_cells)


def test_regimes_are_all_reached():
    g = gen_random(9, 0.5, weight_range=(0, 10 ** 9), seed=905)
    parts = tripartition(9)
    k_max = int(max(m.max() for m in kcut._PairMatrices([g], parts).mats.values()))
    rounding = kcut._Rounding(kcut._PairMatrices([g], parts), Fraction(1, 10 ** 9))
    assert not rounding.on_grid(10 ** 8)                     # below 1/eps
    assert not rounding.on_grid(k_max)                       # past the grid
    rounding = kcut._Rounding(kcut._PairMatrices([g], parts), Fraction(1, 2))
    assert rounding.on_grid(k_max)                           # grid


class _Matrices:
    """Stand-in for _PairMatrices: the weights as one row of pair (0, 1)."""

    nbytes = 0

    def __init__(self, weights, dtype):
        zero = np.zeros((1, 1), dtype=dtype)
        self.mats = {(0, 1): np.array([weights], dtype=dtype),
                     (0, 2): zero, (1, 2): zero}


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1),
                                 Fraction(3)])
def test_exponent_lookup_at_every_threshold(eps, monkeypatch):
    # every floor(base^e) and its neighbours, int64 while below 2**62
    base = 1 + eps / 3
    limits = [base.numerator ** e // base.denominator ** e for e in range(2049)]
    weights = sorted({w + d for w in limits for d in (-1, 0, 1)
                      if 0 <= w + d <= limits[-1]})
    small = [w for w in weights if w < 2 ** 62]
    for ws, dtype in ((small, np.int64), (weights, object)):
        rounding = kcut._Rounding(_Matrices(ws, dtype), eps)
        assert rounding.on_grid(max(ws))
        index, values = rounding.grid
        assert values[index[0, 1][0]].tolist() == reference_rounded_keys(ws, eps)
        assert "ranks" not in vars(rounding)   # built only for a search
    # one past the last threshold needs a 2049th power: unrounded
    past = [0, 1, limits[-1] + 1]
    assert not kcut._Rounding(_Matrices(past, object), eps).on_grid(max(past))
    assert reference_rounded_keys(past, eps) == past
    # the weight -> index table and searchsorted give weight 0, every
    # threshold and its neighbours and the weights past the last limit one
    # index, the least i with limits[i] >= w or the last. The grid ends
    # early, so weights pass its end: at the last power below 10^5, and
    # for eps = 1/2 and 1 where the last two thresholds are equal
    tie = {Fraction(1, 2): [10], Fraction(1): [2]}.get(eps, [])
    assert all(limits[e] == limits[e - 1] for e in tie)
    for powers in [max(e for e in range(2049) if limits[e] <= 10 ** 5)] + tie:
        monkeypatch.setattr(kcut, "_MAX_POWERS", powers)
        monkeypatch.setattr(kcut, "_RANK_SPAN", powers + 2)   # every exponent a key
        monkeypatch.setattr(kcut, "_TABLE_MIN_CELLS", 0)
        ends = [0] + limits[:powers + 1]
        ws = sorted({w + d for w in ends for d in (-1, 0, 1) if w + d >= 0}
                    | {ends[-1] + 2, 3 * ends[-1]})
        want = [min(bisect_left(ends, w), powers + 1) for w in ws]
        for cells, dtype in ((10 ** 9, np.int64), (0, np.int64), (10 ** 9, object)):
            monkeypatch.setattr(kcut, "_TABLE_CELLS", cells)
            rounding = kcut._Rounding(_Matrices(ws, dtype), eps)
            assert rounding.limits == ends
            assert bool(rounding.table) == (cells > 0 and dtype is np.int64)
            index, values = rounding.grid
            assert index[0, 1][0].tolist() == want
            assert values.tolist() == [0] + [
                base.numerator ** e * base.denominator ** (powers - e)
                for e in range(powers + 1)]


@pytest.mark.parametrize("den", [100, 138, 139, 200])
def test_powers_are_built_only_when_the_grid_is_reachable(den):
    # a k reaches the grid when 1/eps <= smax <= floor((1+eps/3)^2048),
    # which some smax does up to eps = 1/138
    eps = Fraction(1, den)
    base = 1 + eps / 3
    reachable = base.numerator ** 2048 // base.denominator ** 2048 >= den
    rounding = kcut._Rounding(_Matrices([0, 10 ** 6], np.int64), eps)
    assert (len(rounding.limits) > 1) == reachable == (den <= 138)


@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 100),
                                 Fraction(3, 2 ** 64), Fraction(1, 10 ** 60)])
def test_short_eps_is_used_as_is(eps):
    rounding = kcut._Rounding(_Matrices([0, 10 ** 6], np.int64), eps)
    assert Fraction(rounding.a, rounding.b) == 1 + eps / 3


def test_long_eps_is_shortened():
    # eps' is the largest multiple of 2**-64 not above eps: the powers have
    # short factors, and every cut is within 1 + eps' <= 1 + eps of exact
    eps = Fraction(1, 100) + Fraction(1, 10 ** 300)
    short = Fraction(eps.numerator * 2 ** 64 // eps.denominator, 2 ** 64)
    g = gen_random(8, 0.4, weight_range=(1, 1000), seed=1)
    rounding = kcut._Rounding(kcut._PairMatrices([g], tripartition(8)), eps)
    assert max(rounding.a.bit_length(), rounding.b.bit_length()) <= 66
    assert Fraction(rounding.a, rounding.b) == 1 + short / 3
    assert len(rounding.limits) > 1                          # the grid is used
    ks = range(9)
    got, exact = cut_profile(g, ks, eps), cut_profile(g, ks)
    assert got == cut_profile(g, ks, short)
    for k in ks:
        assert exact[k].value <= got[k].value <= (1 + eps) * exact[k].value


def test_kept_rank_table_grows_and_serves_smaller_grids():
    # one table per base: built for one graph's keys, grown for a larger
    # smax, then read by the first graph through its leading rows and
    # columns; each split's triangle search equals the one over the ranks
    # of the keys it uses alone
    kcut._Base.cache_clear()
    eps, parts = Fraction(1, 2), tripartition(10)

    def rounding(weights):
        g = gen_random(10, 0.4, weight_range=weights, seed=4)
        return kcut._Rounding(kcut._PairMatrices([g], parts), eps)

    first = rounding((1, 9))
    built = first.ranks
    assert not first.wide and len(built) == len(first.grid[1])
    grown = rounding((1, 1000)).ranks
    assert len(grown) > len(built)
    again = rounding((1, 9))
    assert again.ranks is grown and again.base is kcut._Base(7, 6)
    assert kcut._Base.cache_info().currsize == 1
    index, values = again.grid
    size = len(values)
    lead = np.unique(grown[:size, :size], return_inverse=True)[1].reshape(size, size)
    assert lead.tolist() == kcut._pair_ranks(values.tolist()).tolist()
    for k in range(11):
        for sizes in splits(parts, k):
            blocks = again.matrices.blocks(split_rows(again.matrices, sizes), index)
            used = np.unique(np.concatenate([b.ravel() for b in blocks]))
            in_use = [np.searchsorted(used, b) for b in blocks]
            keys = values[used]
            assert (min_weight_triangle(blocks, (values, grown,
                                                 kcut._scaled(values.tolist())[1]))
                    == min_weight_triangle(in_use, (keys, kcut._pair_ranks(keys.tolist()),
                                                    kcut._scaled(keys.tolist())[1])))


def test_rank_tables_are_kept_for_the_bases_used_last():
    # eps = 1/den has the base (3 den + 1) / (3 den); the searches of the
    # last _BASES bases are served their kept object, earlier ones a new one
    kcut._Base.cache_clear()
    g = gen_random(9, 0.4, weight_range=(1, 9), seed=2)
    dens = range(1, kcut._BASES + 3)
    used = []
    for den in dens:
        cut_profile(g, [4], Fraction(1, den))
        used.append(kcut._Base(3 * den + 1, 3 * den))   # the one the search used
    info = kcut._Base.cache_info()   # one base made per search, then read back
    assert (info.misses, info.currsize) == (len(dens), kcut._BASES)
    for den, base in zip(dens[2:], used[2:]):
        assert kcut._Base(3 * den + 1, 3 * den) is base
    for den, base in zip(dens[:2], used[:2]):
        assert kcut._Base(3 * den + 1, 3 * den) is not base


@pytest.mark.parametrize("keys", [
    [0, 1, 2, 2 ** 100, 2 ** 100 + 1, 2 ** 100 + 3, 2 ** 101 + 1],
    [2 ** 20 + 2, 2 ** 47 + 1, 2 ** 100, 2 ** 100 + 2 ** 47 - 2 ** 20],
    [0, 1, 2, 3, 2 ** 2000, 2 ** 2000 + 1, 2 ** 2001 - 1]])
def test_float_screen_finds_the_exact_least_key_sum(keys):
    # triangle sums that tie, or differ by 1 where their float sums are
    # equal or in the wrong order (keys past 2^53, and past 2^1024 scaled):
    # the least exact sum and, among its ties, the least triple win, as an
    # exact scan over every triangle finds them
    values = np.array(keys, dtype=object)
    ranks = kcut._pair_ranks(keys)
    rng = np.random.default_rng(len(keys))
    for _ in range(300):
        r1, r2, r3 = rng.integers(1, 5, size=3).tolist()
        blocks = [rng.integers(0, len(keys), size=shape)
                  for shape in ((r1, r2), (r1, r3), (r2, r3))]
        e01, e02, e12 = (b.tolist() for b in blocks)
        weight, js = min((keys[e01[a][b]] + keys[e02[a][c]] + keys[e12[b][c]], (a, b, c))
                         for a in range(r1) for b in range(r2) for c in range(r3))
        assert (min_weight_triangle(blocks, (values, ranks, kcut._scaled(keys)[1]))
                == (js, weight))


def brute_ranks(keys):
    sums = sorted({a + b for a in keys for b in keys})
    rank = {s: r for r, s in enumerate(sums)}
    return [[rank[a + b] for b in keys] for a in keys]


def test_pair_ranks_on_float_ties():
    # float sums coincide while the exact sums differ by 1; float sums in
    # the wrong order (x + 2**47 + 1 rounds up, x + 2**47 + 2 as the sum of
    # two keys rounds down); keys past 2**1024 and keys that underflow
    # after scaling
    x = 2 ** 100
    for keys in ([0, 1, 2, x, x + 1, x + 3, 2 * x + 1],
                 [2 ** 20 + 2, 2 ** 47 + 1, x, x + 2 ** 47 - 2 ** 20],
                 [0, 1, 2, 3, 2 ** 2000, 2 ** 2000 + 1, 2 ** 2001 - 1],
                 [5]):
        assert kcut._pair_ranks(keys).tolist() == brute_ranks(keys)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 6),
                          st.integers(2 ** 70, 2 ** 70 + 6),
                          st.integers(2 ** 71 - 6, 2 ** 71 + 6),
                          st.integers(2 ** 1100, 2 ** 1100 + 6)),
                min_size=1, max_size=24, unique=True))
def test_pair_ranks_match_exact_sums(keys):
    keys = sorted(keys)
    assert kcut._pair_ranks(keys).tolist() == brute_ranks(keys)


# ------------------------------------------ pruned search, unpruned reference

def unpruned_search(graphs, parts, ks, eps):
    """The cut search before pruning: every row of every split of every k.
    The reference for _search's CutSolutions, vertices included."""
    matrices = kcut._PairMatrices(graphs, parts)
    rounding = None if eps is None else kcut._Rounding(matrices, eps)
    profiles = [{} for _ in graphs]
    lone = len(graphs) == 1
    for k in ks:
        cells = [split_rows(matrices, sizes) for sizes in splits(parts, k)]
        smax = max(int(block.max()) for rows in cells for block in matrices.blocks(rows))
        assert rounding is None or rounding.k_max[k] == smax
        grid = rounding is not None and rounding.on_grid(smax)
        best = [(inf,)] * len(graphs)
        mats, values = rounding.grid if grid else (matrices.mats, None)
        keys = None if values is None else (values, rounding.ranks,
                                            kcut._scaled(values.tolist())[1])
        for rows in cells:
            blocks = matrices.blocks(rows, mats)
            found = ([min_weight_triangle(blocks, keys)] if lone
                     else kcut._triangles(blocks))
            for i, (js, weight) in enumerate(found):
                if weight <= best[i][0]:
                    best[i] = min(best[i], (weight, matrices.members(rows, js)))
        for g, profile, (_, l) in zip(graphs, profiles, best):
            profile[k] = CutSolution(l, k, cut_into(g, l))
    return profiles


def unpruned_profile(g, ks, eps=None):
    eps = None if eps is None else Fraction(eps)
    return unpruned_search([g], tripartition(g.n), list(ks), eps)[0]


PRUNING_EPS = [None, Fraction(1, 2), Fraction(1), Fraction(3)]


def reference_bounds(blocks, values=None):
    """lb of one split by its definition, from its blocks: for each row j1,
    min_j2 (e01 + min_j3 e12) + min_j3 e02; with values, the blocks hold
    key indices and the bound sums their keys, exactly."""
    e01, e02, e12 = ([[w if values is None else values[w] for w in row]
                      for row in b.tolist()] for b in blocks)
    return [min(w + min(r12) for w, r12 in zip(r01, e12)) + min(r02)
            for r01, r02 in zip(e01, e02)]


@pytest.mark.parametrize("cells", [kcut._BOUND_CELLS, 1, 50])
def test_bounds_match_their_definition(monkeypatch, cells):
    # lb and sb of every split, exact and in scaled keys, whether the 0-1
    # rows are bounded in one piece or a few rows at a time; the bounds of
    # every k together equal those of each k alone and of a pair of ks
    monkeypatch.setattr(kcut, "_BOUND_CELLS", cells)
    g = gen_random(10, 0.4, weight_range=(1, 9), seed=2)
    parts = tripartition(10)
    matrices = kcut._PairMatrices([g], parts)
    rounding = kcut._Rounding(matrices, Fraction(1, 2))
    index, keys = rounding.grid
    ks = range(11)
    every = (kcut._Bounds(matrices.mats, matrices.rows, ks),
             kcut._Bounds(index, matrices.rows, ks, keys))
    exact, keyed = every
    assert [b.lb.dtype for b in every] == [guards.int_dtype(2 * g.total_arc_weight),
                                           np.float64]
    for k in ks:
        for sizes in splits(parts, k):
            rows = split_rows(matrices, sizes)
            got = exact.lb[k, rows[0], sizes[1], 0].tolist()
            assert got == reference_bounds(matrices.blocks(rows))
            assert exact.sb[k, sizes[0], sizes[1], 0] == min(got)
            got = keyed.lb[k, rows[0], sizes[1], 0].tolist()
            want = reference_bounds(matrices.blocks(rows, index), keys.tolist())
            assert all(abs(a - b / keyed.scale) <= a * 2 ** -50
                       for a, b in zip(got, want))
            assert keyed.sb[k, sizes[0], sizes[1], 0] == min(got)
        for some in ([k], [k, 10 - k]):
            alone = (kcut._Bounds(matrices.mats, matrices.rows, some),
                     kcut._Bounds(index, matrices.rows, some, keys))
            for all_ks, bounds in zip(every, alone):
                assert bounds.lb.dtype == all_ks.lb.dtype
                assert bounds.lb.tolist() == all_ks.lb[some].tolist()
                assert bounds.sb.tolist() == all_ks.sb[some].tolist()


@pytest.mark.parametrize("total", [2 ** 61 - 1, 2 ** 61 + 1])
def test_one_k_bounds_ignore_the_k3_of_no_split(total):
    # a (k1, k2) with no split of k gets a clipped k3; no bound of a split
    # takes it, and no bound wraps in int64 at the largest int64 weights
    g = _graph_with_total(total)
    parts = tripartition(6)
    matrices = kcut._PairMatrices([g], parts)
    for k in range(7):
        one = kcut._Bounds(matrices.mats, matrices.rows, [k])
        assert one.lb.dtype == matrices.mats[0, 1].dtype
        assert min(one.lb.ravel().tolist()) >= 0
        assert max(one.lb.ravel().tolist()) <= 2 * total
        for sizes in splits(parts, k):
            rows = split_rows(matrices, sizes)
            assert (one.lb[0, rows[0], sizes[1], 0].tolist()
                    == reference_bounds(matrices.blocks(rows)))


def assert_pruned_matches_unpruned(g, eps):
    # the search over every k and over each k alone; with eps, every k
    # mixes the ks searched unrounded with those on the grid, and the
    # profile still lists them in ks order
    ks = range(g.n + 1)
    want = unpruned_profile(g, ks, eps)
    got = cut_profile(g, ks, eps)
    assert got == want
    assert list(got) == list(ks)
    for k in ks:
        assert cut_profile(g, [k], eps) == {k: want[k]}


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=0, max_n=14, max_w=3), st.sampled_from(PRUNING_EPS))
def test_pruned_search_matches_unpruned_with_ties(g, eps):
    # weights 0..3 tie many triangles: a row whose bound equals the best
    # weight may hold the winning, smallest vertex set
    assert_pruned_matches_unpruned(g, eps)


@pytest.mark.parametrize("eps", PRUNING_EPS)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 13, 16])
@pytest.mark.parametrize("weights", [(0, 1), (0, 3), (1, 1000)])
def test_pruned_search_matches_unpruned_on_seeded_graphs(n, weights, eps):
    assert_pruned_matches_unpruned(gen_random(n, 0.4, weight_range=weights, seed=n),
                                   eps)


def test_pruned_search_matches_unpruned_on_scaled_keys():
    # eps = 1/100 keys the weights as powers of 301/300 scaled by up to
    # 300^2048: keys far past 2^1024, whose bounds are floats after scaling
    eps = Fraction(1, 100)
    g = gen_random(9, 0.4, weight_range=(1, 20), seed=3)
    rounding = kcut._Rounding(kcut._PairMatrices([g], tripartition(9)), eps)
    assert rounding.on_grid(max(int(m.max()) for m in rounding.matrices.mats.values()))
    index, values = rounding.grid
    assert kcut._Bounds(index, rounding.matrices.rows, range(10), values).scale > 2 ** 1000
    assert_pruned_matches_unpruned(g, eps)


@pytest.mark.parametrize("g,eps", [
    # past the grid: 64-digit weights, unrounded Python ints
    (gen_random(8, 0.5, weight_range=(10 ** 63, 10 ** 64), seed=4),
     Fraction(1, 10 ** 60)),
    (gen_random(8, 0.5, weight_range=(10 ** 63, 10 ** 64), seed=4), None),
    (_graph_with_total(2 ** 61 - 1), None),
    (_graph_with_total(2 ** 61), None),
    (_graph_with_total(2 ** 61 - 1), Fraction(1, 2)),
    (_graph_with_total(2 ** 61), Fraction(1, 2)),
    (_graph_with_total(2 ** 61 + 1), None),
    (_graph_with_total(2 ** 61 + 1), Fraction(1, 2)),
])
def test_pruned_search_matches_unpruned_past_the_grid_and_at_the_boundary(g, eps):
    assert_pruned_matches_unpruned(g, eps)


@pytest.mark.parametrize("eps", PRUNING_EPS)
@pytest.mark.parametrize("n", [3, 8, 11])
def test_stacked_pruned_search_matches_unpruned(n, eps):
    # int64 and Python-int batches: a row is kept where any member may win
    graphs = mixed(n, seed=n)
    ks = range(n + 1)
    want = [unpruned_profile(g, ks, eps) for g in graphs]
    assert kcut._cut_profiles(graphs, ks, eps, [None] * len(graphs)) == want
    for k in ks:   # one k: the one-k bounds of a batch
        got = kcut._cut_profiles(graphs, [k], eps, [None] * len(graphs))
        assert got == [{k: profile[k]} for profile in want]


@pytest.mark.parametrize("seed", [1, 2])
def test_pruned_search_matches_unpruned_on_the_benchmark(seed, monkeypatch):
    # every cut-approx solve, lone, batched and rounded searches alike, is
    # the same but for the cells it counts
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)
    workload = workloads.build("cut-approx", seed)
    ops = [(parse_graph(workload.instances[op.instance].text()),
            _solver(op.objective, op.mode, op.eps, op.alpha, op.weighted)[1])
           for op in workload.ops]

    def results(rep):
        return (rep.value, rep.ordering.pos, rep.lower_bound, rep.factor,
                rep.cuts, rep.trace)

    pruned = [results(solve(g)) for g, solve in ops]
    monkeypatch.setattr(kcut, "_search", lambda *args: (unpruned_search(*args), 0))
    assert pruned == [results(solve(g)) for g, solve in ops]
