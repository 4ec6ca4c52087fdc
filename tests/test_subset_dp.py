"""Exact subset DPs and the capped prefix tables."""

import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercut import (Digraph, SizeGuardError, backward_weight,
                      cutwidth_exact, cutwidth_of, dpw_exact, dpw_of,
                      dpw_prefix_table, fas_exact, fas_table, gen_random,
                      guards, induced, ola_exact, ola_of)

from conftest import prefix_table

CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def bidirected_k4():
    return Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])


def test_fas_exact_known_values(triangle_with_detour):
    assert fas_exact(CYCLE3).value == 1
    assert fas_exact(triangle_with_detour).value == 1
    # every vertex pair of the bidirected K4 contributes exactly one
    # backward arc under any ordering
    assert fas_exact(bidirected_k4()).value == 6
    dag = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert fas_exact(dag).value == 0


def test_fas_exact_weighted_prefers_light_arcs():
    g = Digraph(2, [(0, 1), (1, 0)], {(0, 1): 5, (1, 0): 2})
    rep = fas_exact(g)
    assert rep.value == 2
    assert rep.ordering.pos == (1, 2)


def test_ola_exact_known_values():
    # directed cuts vanish under a topological ordering
    dag_path = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert ola_exact(dag_path).value == 0
    # undirected: every edge always crosses some position
    path = Digraph(4, [(0, 1), (1, 2), (2, 3)], undirected=True)
    assert ola_exact(path).value == 3
    tri = Digraph(3, [(0, 1), (0, 2), (1, 2)], undirected=True)
    assert ola_exact(tri).value == 4
    assert ola_exact(CYCLE3).value == 2


def test_cutwidth_exact_known_values(two_triangles):
    assert cutwidth_exact(bidirected_k4()).value == 4
    assert cutwidth_exact(two_triangles).value == 2
    assert cutwidth_exact(CYCLE3).value == 1


def test_dpw_exact_known_values():
    # any DAG admits a topological ordering, so its value is 0 --
    # including the single arc
    assert dpw_exact(Digraph(2, [(0, 1)])).value == 0
    assert dpw_exact(Digraph(4, [(0, 1), (1, 2), (2, 3)])).value == 0
    assert dpw_exact(CYCLE3).value == 1


def test_exact_reports_carry_consistent_ordering():
    g = gen_random(7, 0.5, weight_range=(1, 6), seed=11)
    checks = [(fas_exact, backward_weight), (ola_exact, ola_of),
              (cutwidth_exact, cutwidth_of), (dpw_exact, dpw_of)]
    for solver, evaluate in checks:
        rep = solver(g)
        assert evaluate(g, rep.ordering) == rep.value
        assert rep.lower_bound == rep.value
        assert rep.stats.table_entries == 2 ** g.n


def test_fas_table_matches_exact_on_induced_subgraphs():
    g = gen_random(8, 0.5, weight_range=(1, 5), seed=3)
    tbl = fas_table(g)
    for subset in [(0,), (1, 4), (0, 2, 5), (1, 2, 3, 6), tuple(range(8))]:
        sub, _ = induced(g, subset)
        assert tbl.value_of(subset) == fas_exact(sub).value


def test_fas_table_monotone_under_inclusion():
    g = gen_random(8, 0.6, seed=9)
    tbl = fas_table(g)
    for mask in range(1, 1 << 8):
        v = mask & -mask
        assert tbl.value_of(mask) >= tbl.value_of(mask ^ v)


def test_fas_table_capped_entry_count():
    g = gen_random(10, 0.4, seed=2)
    cap = 3
    tbl = fas_table(g, cap)
    expected = sum(math.comb(10, s) for s in range(cap + 1))
    assert tbl.entries == expected
    masks = [sum(1 << v for v in c)
             for s in range(cap + 1) for c in combinations(range(10), s)]
    assert sorted(tbl._position(m) for m in masks) == list(range(expected))


def test_fas_table_order_reconstruction():
    g = gen_random(7, 0.5, seed=4)
    tbl = fas_table(g, 4)
    for subset in combinations(range(7), 4):
        order = tbl.order_of(subset)
        assert sorted(order) == list(subset)
        sub, relabel = induced(g, subset)
        local = [relabel[v] for v in order]
        from ordercut import Ordering
        assert backward_weight(sub, Ordering.from_sequence(local)) == tbl.value_of(subset)


def test_prefix_table_values_single_arc():
    g = Digraph(2, [(0, 1)])
    cw = prefix_table(g, 2, "cutwidth")
    assert cw.value_of((0,)) == 0    # arc leaves the prefix, nothing enters
    assert cw.value_of((1,)) == 1
    ola = prefix_table(g, 2, "ola")
    assert ola.value_of((0, 1)) == 0


def test_prefix_table_values_cycle():
    cw = prefix_table(CYCLE3, 3, "cutwidth")
    for subset in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        assert cw.value_of(subset) == 1


def test_prefix_table_path_pair_is_free():
    path = Digraph(3, [(0, 1), (1, 2)])
    cw = prefix_table(path, 3, "cutwidth")
    assert cw.value_of((0, 1)) == 0
    assert cw.value_of((1, 2)) == 1


def test_dpw_prefix_table_counts_boundary_vertices():
    g = Digraph(2, [(0, 1)])
    tbl = dpw_prefix_table(g, 1)
    assert tbl.value_of((0,)) == 0
    assert tbl.value_of((1,)) == 1
    cyc = dpw_prefix_table(CYCLE3, 2)
    assert cyc.value_of((0, 1)) == 1
    assert cyc.value_of((0,)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 6))
def test_exact_solvers_beat_random_orderings(seed, n):
    import random
    g = gen_random(n, 0.5, weight_range=(1, 4), seed=seed)
    rng = random.Random(seed)
    from ordercut import Ordering
    solvers = [(fas_exact, backward_weight), (ola_exact, ola_of),
               (cutwidth_exact, cutwidth_of), (dpw_exact, dpw_of)]
    seq = list(range(n))
    for solver, evaluate in solvers:
        best = solver(g).value
        for _ in range(20):
            rng.shuffle(seq)
            assert evaluate(g, Ordering.from_sequence(seq)) >= best


def test_exact_guard_rejects_large_universe(monkeypatch):
    # a full int16 table at n = 29 models at 1,031 MiB, over the byte guard:
    # refused before anything is allocated
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = Digraph(29, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="subset table bytes"):
            fas_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(SizeGuardError):
        fas_table(Digraph(33, [(0, 1)]), 2)  # hard cap, not overridable


def test_guard_override_env(monkeypatch, capsys):
    # a byte guard patched below a 12-vertex table refuses fas_exact without
    # the override and runs it with it, and the override's warning reaches
    # stderr once over two calls
    g = gen_random(12, 0.3, seed=1)
    want = fas_exact(g)
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", 1)
    with pytest.raises(SizeGuardError, match="subset table bytes"):
        fas_exact(g)
    monkeypatch.setenv("ORDERCUT_GUARD_OVERRIDE", "1")
    monkeypatch.setattr(guards, "_warned", False)
    capsys.readouterr()
    for _ in range(2):
        rep = fas_exact(g)
        assert (rep.value, rep.ordering) == (want.value, want.ordering)
    err = capsys.readouterr().err
    assert err.count("warning: ORDERCUT_GUARD_OVERRIDE=1 lifts") == 1
    with pytest.raises(SizeGuardError):
        guards.check_universe(33)   # the hard cap stays


def test_check_and_fits_read_the_byte_guard(monkeypatch, capsys):
    # check compares against TABLE_BYTE_GUARD, which the override lifts with
    # one warning; fits divides what is left of it and ignores the override
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", 100)
    guards.check(100, "x")
    with pytest.raises(SizeGuardError) as exc:
        guards.check(101, "x")
    assert str(exc.value) == ("x: 101 exceeds the desk-scale guard 100 "
                              "(set ORDERCUT_GUARD_OVERRIDE=1 to override)")
    assert (guards.fits(30), guards.fits(30, 20)) == (3, 2)
    monkeypatch.setenv("ORDERCUT_GUARD_OVERRIDE", "1")
    monkeypatch.setattr(guards, "_warned", False)
    capsys.readouterr()
    guards.check(101, "x")
    guards.check(101, "x")
    assert capsys.readouterr().err.count("warning: ORDERCUT_GUARD_OVERRIDE=1") == 1
    assert (guards.fits(30), guards.fits(30, 20)) == (3, 2)
