"""The (k, n-k)-cut solver and its triangle construction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercut import (AuxGraph, Counters, Digraph, SizeGuardError, build_aux,
                      cut_into, cut_profile, dkmc_exact, dkmc_oracle,
                      dkmc_weighted_approx, gen_random, kcut,
                      min_weight_triangle, tripartition)

CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_tripartition_sizes():
    assert tripartition(3) == ((0,), (1,), (2,))
    assert tripartition(6) == ((0, 1), (2, 3), (4, 5))
    assert tripartition(7) == ((0, 1, 2), (3, 4), (5, 6))
    assert tripartition(8) == ((0, 1, 2), (3, 4, 5), (6, 7))


def test_aux_graph_hand_example():
    # split (1,0,0) of the 3-cycle: the only candidate L is {0}, whose cut
    # is the arc 2->0; the doubled weight sits on the 0-2 group edge.
    parts = tripartition(3)
    aux = build_aux(CYCLE3, parts, (1, 0, 0))
    assert aux.nodes[0] == [(0,)]
    assert aux.nodes[1] == [()] and aux.nodes[2] == [()]
    assert aux.e01 == [[0]]
    assert aux.e02 == [[2]]
    assert aux.e12 == [[0]]


def test_triangle_weight_is_twice_cut_weight():
    # bijection between triangles and size-k vertex sets, all n <= 9
    for n in range(1, 10):
        g = gen_random(n, 0.6, weight_range=(1, 7), seed=100 + n)
        parts = tripartition(n)
        for k in range(n + 1):
            for k1 in range(min(k, len(parts[0])) + 1):
                for k2 in range(min(k - k1, len(parts[1])) + 1):
                    k3 = k - k1 - k2
                    if not 0 <= k3 <= len(parts[2]):
                        continue
                    aux = build_aux(g, parts, (k1, k2, k3))
                    for j1, t in enumerate(aux.nodes[0]):
                        for j2, u in enumerate(aux.nodes[1]):
                            for j3, w_ in enumerate(aux.nodes[2]):
                                stored = (aux.e01[j1][j2] + aux.e02[j1][j3]
                                          + aux.e12[j2][j3])
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
    with pytest.raises(ValueError):
        dkmc_exact(g, 7)
    with pytest.raises(ValueError):
        dkmc_exact(g, -1)


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


def test_dkmc_counts_triangles():
    counters = Counters()
    dkmc_exact(gen_random(7, 0.5, seed=5), 3, counters)
    assert counters.triangles > 0


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
    # forces the wide-exponent rounding path; comparison stays exact
    eps = Fraction(1, 20)
    for seed in range(4):
        g = gen_random(6, 0.6, weight_range=(10 ** 35, 10 ** 40), seed=90 + seed)
        k = 2 + seed % 3
        opt = dkmc_oracle(g, k).value
        sol = dkmc_weighted_approx(g, k, eps)
        assert opt <= sol.value <= (1 + eps) * opt


def test_weighted_approx_rejects_bad_eps():
    g = gen_random(5, 0.5, seed=1)
    with pytest.raises(ValueError):
        dkmc_weighted_approx(g, 2, 0)
    with pytest.raises(ValueError):
        dkmc_weighted_approx(g, 2, -1)


def test_oracle_guard(monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = Digraph(24, [(0, 1)])
    with pytest.raises(SizeGuardError):
        dkmc_oracle(g, 12)   # C(24,12) blows the enumeration budget


def test_exact_guard(monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = Digraph(27, [(0, 1)])
    with pytest.raises(SizeGuardError):
        dkmc_exact(g, 13)


def test_oracle_lex_least_witness():
    # single arc 0->1 and k=1: both {0} and {1} cost 0... not quite: cut
    # into {1} is 1, into {0} is 0, so {0} is forced; add symmetry to tie
    g = Digraph(4, [])
    sol = dkmc_oracle(g, 2)
    assert sol.vertices == (0, 1)
    assert dkmc_exact(g, 2).vertices == (0, 1)


# ------------------------------------------------- cut engine property tests

@st.composite
def digraphs(draw, max_n=10, max_w=1000):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = {p: draw(st.integers(min_value=0, max_value=max_w))
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
    for min_weight_triangle's triple, weight and examined-triangle count."""
    best = best_triple = None
    examined = 0
    for j1, (row01, row02) in enumerate(zip(e01, e02)):
        for j2, w12 in enumerate(row01):
            if best is not None and w12 >= best:
                continue
            for j3, w3 in enumerate(row02):
                examined += 1
                total = w12 + w3 + e12[j2][j3]
                if best is None or total < best:
                    best, best_triple = total, (j1, j2, j3)
    return best_triple, best, examined


def test_triangle_search_matches_seed_scan_on_aux_graphs():
    for seed in range(6):
        n = 4 + seed
        g = gen_random(n, 0.5, weight_range=(1, 3 + 40 * (seed % 2)),
                       seed=700 + seed)
        parts = tripartition(n)
        for k in range(n + 1):
            for sizes in kcut._splits(parts, k):
                aux = build_aux(g, parts, sizes)
                counters = Counters()
                triple, weight = min_weight_triangle(aux, counters)
                lists = [[[int(w) for w in row] for row in m]
                         for m in (aux.e01, aux.e02, aux.e12)]
                assert ((triple, weight, counters.triangles)
                        == seed_triangle_scan(*lists))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_search_matches_seed_scan_with_ties(data):
    r1, r2, r3 = (data.draw(st.integers(1, 6)) for _ in range(3))

    def matrix(rows, cols):
        return data.draw(st.lists(st.lists(st.integers(0, 3), min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows))

    e01, e02, e12 = matrix(r1, r2), matrix(r1, r3), matrix(r2, r3)
    aux = AuxGraph(((), (), ()), (0, 0, 0), ([], [], []),
                   tuple(np.array(m, dtype=np.int64) for m in (e01, e02, e12)))
    counters = Counters()
    triple, weight = min_weight_triangle(aux, counters)
    assert (triple, weight, counters.triangles) == seed_triangle_scan(e01, e02, e12)


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
    assert build_aux(g, tripartition(6), (1, 1, 1)).blocks[0].dtype == dtype
    ks = range(7)
    runs = [cut_profile(g, ks), cut_profile(g, ks, Fraction(1, 2))]
    monkeypatch.setattr(kcut, "_dtype", lambda bound: object)
    assert build_aux(g, tripartition(6), (1, 1, 1)).blocks[0].dtype == object
    assert runs == [cut_profile(g, ks), cut_profile(g, ks, Fraction(1, 2))]
