"""Same-size subproblems solved as one batch give exactly what they give
alone: stacked subset tables, the stacked cut search, and the sides of an
even split in one table call. A batch that does not fit the byte guard is
split; a graph that alone does not fit is refused as it is alone."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ordercut import (Counters, SizeGuardError, cut_profile,
                      cutwidth_exact, dpw_exact, fas_balanced_approx,
                      fas_exact, fas_scheme, gen_random, guards, kcut,
                      ola_exact, serialize_graph, subset_dp)
from ordercut import balanced
from ordercut.cli import main

from conftest import (assert_last_vertices, complete_digraph, mixed, prefix_table,
                      seed_table)

OBJECTIVES = ("fas", "ola", "cutwidth", "dpw")
EXACT = {"fas": fas_exact, "ola": ola_exact, "cutwidth": cutwidth_exact,
         "dpw": dpw_exact}


def assert_tables_equal(got, want, g, objective):
    """got, g's table from a batch, is want, g's table alone, and each of its
    masks has the last vertex the seed dict DP gives it."""
    assert (got.n, got.size_cap, got.entries) == (want.n, want.size_cap, want.entries)
    assert got.vals.dtype == want.vals.dtype
    assert got.vals.tolist() == want.vals.tolist()
    if want.layers is None:
        assert got.layers is None
    else:
        assert [m.tolist() for m in got.layers] == [m.tolist() for m in want.layers]
    assert_last_vertices(got, seed_table(g, got.size_cap, objective))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_stacked_tables_match_single_tables(objective, n, monkeypatch):
    graphs = mixed(n, seed=n)
    caps = [n] + ([n // 2] if objective in ("fas", "dpw") else [])
    # full tables in one row and, with rows of 2^3 masks, in chunks of
    # several rows
    for low_bits in (subset_dp._LOW_BITS, 3):
        monkeypatch.setattr(subset_dp, "_LOW_BITS", low_bits)
        for cap in caps:
            tables = subset_dp._prefix_tables(graphs, cap, objective)
            for g, table in zip(graphs, tables):
                assert_tables_equal(
                    table, prefix_table(g, cap, objective), g, objective)


def spy(monkeypatch, module, name) -> list:
    """Record the batch size of every call of module.name."""
    sizes = []
    real = getattr(module, name)

    def call(graphs, *args):
        sizes.append(len(graphs))
        return real(graphs, *args)

    monkeypatch.setattr(module, name, call)
    return sizes


def test_batches_keep_blocks_within_chunk_rows(monkeypatch):
    # capped at 6 of 12 vertices, the widest layer has 924 masks: four
    # tables fill a chunk of 4096. In full tables of 16 vertices, the widest
    # high layer has 70 rows of 256 masks: three tables fill a chunk of 2^16
    sizes = spy(monkeypatch, subset_dp, "_fill")
    for n, cap, batches in ((12, 6, [4, 4, 1]), (16, 16, [3, 3, 3])):
        graphs = [gen_random(n, 0.3, seed=s) for s in range(9)]
        tables = subset_dp._prefix_tables(graphs, cap, "fas")
        assert sizes == batches
        for g, table in zip(graphs, tables):
            alone = prefix_table(g, cap, "fas")
            if n > 12:   # the seed DP would take seconds
                assert table.vals.tolist() == alone.vals.tolist()
            else:
                assert_tables_equal(table, alone, g, "fas")
        sizes.clear()


@pytest.mark.parametrize("eps", [None, Fraction(1, 2), 1])
@pytest.mark.parametrize("n,count,ks", [
    (9, 9, range(10)),       # mixed dtypes, every k
    (12, 40, [6]),           # 40 graphs exceed _CHUNK_CELLS: rows in pieces
    (20, 12, [10]),          # so does one row of 12: one-row pieces
])
def test_stacked_cut_search_matches_cut_profile(eps, n, count, ks, kernel_cells):
    # each member counts the cells of the blocks its batch searched, which
    # may be more than it searches alone, and never more than every set L
    graphs = (mixed(n, seed=n) * count)[:count] if count <= 9 else [
        gen_random(n, 0.4, seed=s) for s in range(count)]
    counters = [Counters() for _ in graphs]
    profiles = kcut._cut_profiles(graphs, ks, eps, counters)
    stacked = [kernel_cells.of[id(g)] for g in graphs]
    for g, profile, c, cells in zip(graphs, profiles, counters, stacked):
        kernel_cells.clear()
        alone = Counters()
        assert profile == cut_profile(g, ks, eps, alone)
        assert alone.triangles == kernel_cells.of[id(g)]
        assert c.triangles == cells <= sum(comb(n, k) for k in ks)


@pytest.mark.parametrize("n", range(9, 13))
def test_stacked_search_in_one_row_pieces_matches_cut_profile(n, monkeypatch):
    # 64 sums are less than one row of most stacked blocks, so their rows
    # are summed one at a time, across the batch. The profiles are the lone
    # ones, and the cells each member counts come from the rows the search
    # kept, not from the kernel's pieces, so they do not move
    graphs = mixed(n, seed=n)
    for ks in (range(n + 1), [n // 2]):
        alone = [cut_profile(g, ks) for g in graphs]
        whole = [Counters() for _ in graphs]
        kcut._cut_profiles(graphs, ks, None, whole)
        monkeypatch.setattr(kcut, "_CHUNK_CELLS", 64)
        pieces = [Counters() for _ in graphs]
        assert kcut._cut_profiles(graphs, ks, None, pieces) == alone
        assert [c.triangles for c in pieces] == [c.triangles for c in whole]
        monkeypatch.undo()


def test_cut_batch_spans_matrix_widths(monkeypatch):
    # 2 * total on both sides of 32,768 needs int16 matrices alone and int32
    # ones for the batch. Batches are keyed by whether they need Python ints,
    # not by width, so the four run as one, at the width of the largest
    searches = spy(monkeypatch, kcut, "_search")
    graphs = [complete_digraph(9, total) for total in (2 ** 14 - 1, 2 ** 14)]
    graphs += [gen_random(9, 0.4, weight_range=(1, 2 ** 14), seed=s) for s in (1, 2)]
    assert {guards.int_dtype(2 * g.total_arc_weight) for g in graphs} == {np.int16, np.int32}
    profiles = kcut._cut_profiles(graphs, range(10), None, [None] * 4)
    assert searches == [4]
    assert profiles == [cut_profile(g, range(10)) for g in graphs]


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)])
@pytest.mark.parametrize("n", range(13))
def test_cut_search_counts_every_candidate_set(eps, n, kernel_cells):
    # every search counts the cells its batch handed the kernels, at most
    # the C(n, k) sets L of each k it is given, alone or stacked, whatever
    # the dtype; a Counters that already holds a count grows by exactly
    # that, and None is skipped
    graphs = mixed(n, seed=n)
    for ks in (range(n + 1), [n // 2], [n, 0, n // 3]):
        most = sum(comb(n, k) for k in ks)
        kernel_cells.clear()
        counters = [Counters(triangles=7) for _ in graphs]
        kcut._cut_profiles(graphs, ks, eps, counters[:-1] + [None])
        assert all(0 < kernel_cells.of[id(g)] <= most for g in graphs)
        stacked = [7 + kernel_cells.of[id(g)] for g in graphs[:-1]] + [7]
        assert [c.triangles for c in counters] == stacked
        for g, c, before in zip(graphs, counters, stacked):
            kernel_cells.clear()
            kcut._cut_profiles([g], ks, eps, [c])
            cut_profile(g, ks, eps, c)
            once = kernel_cells.searches[0]
            assert kernel_cells.searches == [once, once]
            assert c.triangles == before + 2 * once


def fields(rep, triangles=True):
    stats = rep.stats.as_dict()
    if not triangles:   # the cells a batch's cut search shares
        del stats["triangles"]
    return (rep.objective, rep.value, rep.ordering.pos, rep.lower_bound,
            stats, rep.factor, rep.cuts, rep.trace)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_even_split_sides_in_one_call(objective, monkeypatch):
    g = gen_random(10, 0.4, weight_range=(1, 50), seed=7)
    left = tuple(range(0, 10, 2))
    right = tuple(range(1, 10, 2))
    jobs = [(g, left), (g, right)]
    both = balanced._sub_orders(jobs, lambda gs: subset_dp._exacts(gs, objective))
    apart = [balanced._sub_orders([job], lambda gs: [EXACT[objective](gs[0])])[0]
             for job in jobs]
    assert [(fields(r), s) for r, s in both] == [(fields(r), s) for r, s in apart]
    # the balanced split of an even n solves its two sides in one call
    calls = spy(monkeypatch, balanced, "_exacts")
    fas_balanced_approx(g)
    assert calls == [2]


def test_batch_over_the_byte_guard_is_split(monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    graphs = [gen_random(8, 0.4, seed=s) for s in range(6)]
    tables = subset_dp._prefix_tables(graphs, 8, "ola")
    profiles = kcut._cut_profiles(graphs, range(9), None, [None] * 6)
    each, shared = subset_dp._table_bytes(8, 8, guards.value_bound(graphs[0], "ola"),
                                          "ola")
    pair = kcut._pair_bytes(kcut.tripartition(8), 2 * max(
        g.total_arc_weight for g in graphs), 9)
    fills, searches = (spy(monkeypatch, subset_dp, "_fill"),
                       spy(monkeypatch, kcut, "_search"))
    # one table fits, two do not
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", shared + each + each // 2)
    for g, got, want in zip(graphs, subset_dp._prefix_tables(graphs, 8, "ola"),
                            tables):
        assert_tables_equal(got, want, g, "ola")
    assert fills == [1] * 6
    # three graphs' pair matrices fit, four do not
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", 3 * pair + pair // 2)
    assert kcut._cut_profiles(graphs, range(9), None, [None] * 6) == profiles
    assert searches == [3, 3]


def test_scheme_split_batches_change_nothing(monkeypatch):
    # delta1 = 0.9 at n = 10: 44 level-1 complements of 8 vertices in one
    # batch, whose cut search and 4 + 4 side tables then no longer fit. The
    # cells searched change with the batches, as a batch shares its blocks.
    # The int16 pair matrices of all 44 fit beside less than one lone 8-vertex
    # table's bytes, so the override lets each member run alone while the
    # smaller guard still sizes the batches
    monkeypatch.setenv("ORDERCUT_GUARD_OVERRIDE", "1")
    g = gen_random(10, 0.4, seed=39)
    want = fields(fas_scheme(g, Fraction(1, 2), delta1=0.9), triangles=False)
    sizes = spy(monkeypatch, kcut, "_search")
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", 40_000)
    assert fields(fas_scheme(g, Fraction(1, 2), delta1=0.9), triangles=False) == want
    assert len(sizes) > 1 and sum(sizes) == 44


def test_member_over_the_byte_guard_is_refused_as_alone(monkeypatch, tmp_path,
                                                        capsys):
    # at n = 18 the level-1 complements fit a 1 MB guard; the exact
    # 17-vertex complement does not, which ends the solve as it did when
    # every complement was solved alone
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", 1 << 20)
    g = gen_random(18, 0.3, seed=37)
    message = f"subset table bytes: 2171426 exceeds the desk-scale guard {1 << 20}"
    with pytest.raises(SizeGuardError) as err:
        fas_scheme(g, Fraction(1, 2))
    assert str(err.value).startswith(message)
    path = tmp_path / "g.g"
    path.write_text(serialize_graph(g))
    assert main(["solve", str(path), "--obj", "fas", "--mode", "scheme",
                 "--eps", "1/2", "--no-timing"]) == 4
    assert f"size guard: {message}" in capsys.readouterr().err
    # a cut search member that alone is over the guard
    graphs = [gen_random(12, 0.3, seed=s) for s in range(3)]
    pair = kcut._pair_bytes(kcut.tripartition(12), 2 * graphs[0].total_arc_weight, 1)
    monkeypatch.setattr(guards, "TABLE_BYTE_GUARD", pair - 1)
    with pytest.raises(SizeGuardError, match=f"cut pair matrix bytes: {pair} "):
        kcut._cut_profiles(graphs, [6], None, [None] * 3)
