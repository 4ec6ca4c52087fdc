"""Balanced-cut approximations, the boosting scheme, and the numeric solvers."""

import decimal
import math
from fractions import Fraction

import pytest

from ordercut import (Digraph, Ordering, SizeGuardError, backward_weight,
                      cutwidth_balanced_approx, cutwidth_exact,
                      cutwidth_of, dpw_2approx, dpw_exact, fas_balanced_approx,
                      fas_exact, fas_scheme, gamma_for_target, gen_random,
                      kcut, ola_directed_approx, ola_exact, ola_of,
                      ola_undirected_approx, perm_opt, solve_gamma,
                      solve_pw_alpha)
from ordercut.balanced import _gamma_lhs, _orient_sides

from conftest import boost_ladder


# -------------------------------------------------------------- the numerics

def test_gamma_lhs_boundary_is_exact():
    # log2(2)/1 + log1p(1)/ln(2) == 1 + 1: log1p(1) and log(2) are one float
    assert _gamma_lhs(2.0) == 2.0
    assert gamma_for_target(2.0) == 2.0
    assert gamma_for_target(3.0) == 2.0


def test_gamma_for_target_residuals():
    for target in [1.9, 1.5, 1.0, 0.5, 0.1]:
        root = gamma_for_target(target)
        assert abs(_gamma_lhs(root) - target) <= 1e-9
    assert 4.39 <= gamma_for_target(1.0) <= 4.41


def test_gamma_lhs_is_accurate_at_large_gamma():
    # the difference g*log2(g) - (g-1)*log2(g-1) cancels its digits as g
    # grows: its quotient is off by 4e-11 at 10^6, 0.18 at 2^53 and reads 0.0
    # at 2^64; against 60 digits the sum of two positive terms stays within
    # a float's rounding
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ln2 = decimal.Decimal(2).ln()
        for gamma in (35.0, 1e6, 2.0 ** 30, 2.0 ** 53, 2.0 ** 64):
            g = decimal.Decimal(gamma)
            exact = (g * g.ln() - (g - 1) * (g - 1).ln()) / ln2 / (g - 1)
            error = decimal.Decimal(_gamma_lhs(gamma)) / exact - 1
            assert abs(error) <= decimal.Decimal("1e-16"), gamma


def test_gamma_lhs_strictly_decreasing():
    xs = [2.0, 2.5, 3.0, 5.0, 10.0, 100.0, 1e6]
    vals = [_gamma_lhs(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_solve_gamma_domain():
    with pytest.raises(ValueError):
        solve_gamma(0)
    with pytest.raises(ValueError):
        solve_gamma(1)
    # the left side is still positive at g = 2^64 (3.5e-18), so a target
    # below it has no root under 2^64; the first rung a ladder cannot solve
    # asks for delta 0.0 or a target of 0.0
    for target in (0.0, -1.0, 1e-30):
        with pytest.raises(ValueError, match="too small to bracket"):
            gamma_for_target(target)
    g1 = solve_gamma(0.25)
    g2 = solve_gamma(0.9)
    assert g1 > g2 > 2   # larger margin -> easier target -> smaller gamma


def test_boost_ladder_stays_in_admissible_interval():
    for delta1 in [0.1, 0.25, 0.5, 0.9]:
        ladder = boost_ladder(5, delta1)
        assert [p.level for p in ladder] == [1, 2, 3, 4, 5]
        for prev, nxt in zip(ladder, ladder[1:]):
            ceiling = 2 - 2 ** (1 - prev.alpha)
            assert 0 < nxt.delta < ceiling
            assert nxt.gamma > prev.gamma   # shrinking margins cost work
        for p in ladder:
            assert math.isclose(p.alpha, 1 / p.gamma)


def test_boost_ladder_rejects_bad_delta():
    with pytest.raises(ValueError):
        boost_ladder(2, 0.0)
    with pytest.raises(ValueError):
        boost_ladder(2, 1.0)


# (delta, gamma, alpha) of levels 1-5, recorded from the per-step bisection
LADDERS = {
    0.25: [(0.25, 35.008196920934736, 0.02856473877413563),
           (0.01960484396457307, 778.2365440083441, 0.0012849563641016556),
           (0.0008902673575769127, 24990.713374819272, 4.001486412179027e-05),
           (2.7735805601891705e-05, 1073434.4033994281, 9.315892958462381e-07),
           (6.45728285397773e-07, 58490130.538891464, 1.7096901490672454e-08)],
    0.5: [(0.5, 13.35103783657948, 0.07490054423036516),
          (0.050592431534143945, 256.446643034242, 0.003899446637975585),
          (0.0026992409233079773, 7331.328881209925, 0.00013640091942444205),
          (9.454144340093062e-05, 287006.0572577336, 3.4842470209678973e-06),
          (2.4150930826305483e-06, 14482631.235634813, 6.904822637059758e-08)],
    0.9: [(0.9, 5.289968331834154, 0.18903704847950895),
          (0.12280897786495104, 87.19802459967387, 0.011468149703975519),
          (0.007917604963139091, 2192.3962585577037, 0.00045612192417161985),
          (0.00031610965254336154, 77554.88561438648, 1.2894094189915216e-05),
          (8.937465094227548e-06, 3602141.617046403, 2.776126277955601e-07)],
}


@pytest.mark.parametrize("delta1", sorted(LADDERS))
def test_boost_ladder_values_are_pinned(delta1):
    ladder = boost_ladder(5, delta1)
    assert [(p.delta, p.gamma, p.alpha) for p in ladder] == LADDERS[delta1]


def test_solve_pw_alpha_anchor():
    alpha = solve_pw_alpha()
    assert alpha == 0.2044093094630149   # recorded from the per-step bisection
    assert abs(alpha - 0.204) <= 1e-3
    # the balance point keeps the overall exponent under 1.66^n
    assert (1 - alpha) * math.log2(1.89) <= math.log2(1.66) + 0.005


# ------------------------------------------------------- balanced FAS & friends

def corpus(count, n, p=0.5, wr=(1, 1), ug=False, seed0=0):
    return [gen_random(n, p, weight_range=wr, undirected=ug, seed=seed0 + i)
            for i in range(count)]


def check_ratio(rep, g, objective, factor, opt=None):
    """value within factor of the optimum (the oracle's unless opt is
    given), sandwich fully verified."""
    if opt is None:
        opt = perm_opt(g, objective).opt
    assert rep.lower_bound <= opt <= rep.value
    if opt:
        assert Fraction(rep.value, opt) <= Fraction(factor)
    else:
        assert rep.value == 0 or Fraction(rep.value) <= Fraction(factor) * opt
    assert rep.factor == Fraction(factor)


def test_fas_balanced_known_graph(triangle_with_detour):
    rep = fas_balanced_approx(triangle_with_detour)
    assert rep.value <= 2   # opt is 1
    assert rep.lower_bound >= 1
    assert backward_weight(triangle_with_detour, rep.ordering) == rep.value
    assert rep.cuts and rep.cuts[0].k == 3


def test_fas_balanced_on_dag_is_zero():
    dag = Digraph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                      if (u + v) % 2])
    rep = fas_balanced_approx(dag)
    assert rep.value == 0 and rep.lower_bound == 0


def test_fas_balanced_ratios():
    for g in corpus(8, 7, seed0=300) + corpus(4, 6, p=0.7, seed0=310):
        check_ratio(fas_balanced_approx(g), g, "fas", 2)


def test_fas_balanced_weighted_ratios():
    for g in corpus(8, 7, wr=(1, 40), seed0=320):
        check_ratio(fas_balanced_approx(g, cut_eps=1), g, "fas", 3)


def test_fas_balanced_rounded_cut_eps():
    for g in corpus(4, 8, wr=(1, 10 ** 5), seed0=330):
        check_ratio(fas_balanced_approx(g, cut_eps=Fraction(1, 2)), g, "fas",
                    Fraction(5, 2))


def test_fas_scheme_level_one_is_balanced(triangle_with_detour):
    a = fas_scheme(triangle_with_detour, 1)     # k = 1
    b = fas_balanced_approx(triangle_with_detour)
    assert (a.value, a.ordering, a.factor) == (b.value, b.ordering, b.factor)
    w = fas_scheme(triangle_with_detour, 2, weighted=True)
    assert w.factor == 3


def test_fas_scheme_recursion_with_wide_prefix():
    # delta1 = 0.9 makes alpha_1 big enough that round(alpha*n) >= 1 at
    # n = 10, so level 2 really enumerates prefixes instead of falling back
    ladder = boost_ladder(1, 0.9)
    assert round(ladder[0].alpha * 10) >= 1
    for seed in range(4):
        g = gen_random(10, 0.5, seed=400 + seed)
        rep = fas_scheme(g, Fraction(1, 2), delta1=0.9)
        assert rep.factor == Fraction(3, 2)
        assert rep.stats.table_entries > 0
        assert any(t[0] == "boost" for t in rep.trace)
        opt = fas_exact(g).value
        assert rep.lower_bound <= opt <= rep.value
        if opt:
            assert Fraction(rep.value, opt) <= Fraction(3, 2)


def test_fas_scheme_default_ladder_degenerates_to_exact():
    # the default delta1 yields a sub-1% prefix share at desk scale, so the
    # level-2 prefix rounds to zero vertices and the solver answers exactly
    g = gen_random(8, 0.5, seed=77)
    rep = fas_scheme(g, Fraction(1, 2))
    assert rep.factor == 1
    assert rep.value == fas_exact(g).value


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("weighted", [False, True])
def test_fas_scheme_high_levels_on_tiny_graphs_fall_back(n, weighted):
    # every level runs at n <= 4, though rung 11's gamma cannot be
    # solved for: the ladder stops at the first rung whose prefix rounds to 0,
    # and the top level falls back
    for g in (gen_random(n, 0.5, seed=n), gen_random(n, 0.6, (1, 9), seed=n)):
        want = fas_exact(g)
        for k in (11, 12, 24, 48, 10 ** 30):
            rep = fas_scheme(g, Fraction(2 if weighted else 1, k), weighted)
            assert (rep.value, rep.ordering, rep.factor, rep.trace) == (
                want.value, want.ordering, 1, ((f"exact-fallback-level-{k}", n),))


def test_fas_scheme_budget_guard(monkeypatch):
    # at n = 32 level 2 boosts a 1-vertex prefix, and its exact complement
    # of 31 vertices is over the byte guard: refused before any level-1
    # complement enters the cut search
    def no_search(*args):
        raise AssertionError("cut search entered")
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(kcut, "_search", no_search)
    with pytest.raises(SizeGuardError, match="subset table bytes"):
        fas_scheme(gen_random(32, 0.3, seed=1), Fraction(1, 2))


def test_fas_scheme_high_level_at_20_is_exact():
    # no level above 2 boosts below 33 vertices: k = 3 at n = 20 is fas_exact
    g = gen_random(20, 0.3, seed=1)
    want = fas_exact(g)
    rep = fas_scheme(g, Fraction(1, 3))
    assert (rep.value, rep.ordering, rep.trace) == (
        want.value, want.ordering, (("exact-fallback-level-3", 20),))


def test_fas_scheme_rejects_bad_eps():
    g = gen_random(5, 0.5, seed=1)
    with pytest.raises(ValueError):
        fas_scheme(g, 0)


def test_cutwidth_balanced_known_graph(two_triangles):
    rep = cutwidth_balanced_approx(two_triangles)
    assert cutwidth_of(two_triangles, rep.ordering) == rep.value
    assert rep.value <= 2 * 2   # exact optimum is 2
    assert rep.lower_bound <= 2


def test_cutwidth_balanced_ratios():
    for g in corpus(8, 7, seed0=340):
        check_ratio(cutwidth_balanced_approx(g), g, "cutwidth", 2)
    for g in corpus(4, 7, wr=(1, 30), seed0=350):
        check_ratio(cutwidth_balanced_approx(g, cut_eps=Fraction(1, 2)), g,
                    "cutwidth", Fraction(5, 2))


def test_ola_directed_ratios():
    for g in corpus(8, 7, seed0=360):
        check_ratio(ola_directed_approx(g, Fraction(1, 2)), g, "ola", 3)
    # a flatter alpha tightens the factor: 1 + 1/(1 - 1/4) = 7/3
    for g in corpus(3, 7, seed0=368):
        check_ratio(ola_directed_approx(g, Fraction(1, 4)), g, "ola",
                    Fraction(7, 3))


def test_ola_directed_weighted_ratios():
    for g in corpus(6, 7, wr=(1, 25), seed0=370):
        check_ratio(ola_directed_approx(g, Fraction(1, 2), weighted=True),
                    g, "ola", 3)


def test_ola_undirected_ratios():
    for g in corpus(8, 7, ug=True, seed0=380):
        check_ratio(ola_undirected_approx(g, Fraction(1, 2)), g, "ola", 2)
    for g in corpus(4, 7, ug=True, wr=(1, 25), seed0=390):
        check_ratio(ola_undirected_approx(g, Fraction(1, 2), weighted=True),
                    g, "ola", 2)


def test_ola_undirected_requires_ug():
    with pytest.raises(ValueError):
        ola_undirected_approx(gen_random(5, 0.5, seed=1), Fraction(1, 2))


def test_ola_alpha_domain():
    g = gen_random(5, 0.5, seed=1)
    for bad in (0, 1, -1, 2):
        with pytest.raises(ValueError):
            ola_directed_approx(g, bad)


@pytest.mark.parametrize("n", [12, 15, 18])
def test_factors_against_exact_dp(n):
    # past the oracle's n <= 11 the optimum comes from the exact subset DPs
    half, third = Fraction(1, 2), Fraction(1, 3)
    exact = {"fas": fas_exact, "cutwidth": cutwidth_exact, "ola": ola_exact,
             "dpw": dpw_exact}
    for wr in ((1, 1), (1, 20)):
        for ug in (False, True):
            g = gen_random(n, 0.3, weight_range=wr, undirected=ug, seed=0)
            opt = {obj: solve(g).value for obj, solve in exact.items()}
            ola = ola_undirected_approx if ug else ola_directed_approx
            side = 2 if ug else 1
            runs = [("ola", ola(g, a, weighted=w), 1 + 1 / (side * (1 - a)))
                    for a, w in ((half, False), (third, False), (half, True))]
            for obj, approx in (("fas", fas_balanced_approx),
                                ("cutwidth", cutwidth_balanced_approx)):
                runs += [(obj, approx(g), 2), (obj, approx(g, half), half + 2),
                         (obj, approx(g, 1), 3)]
            runs.append(("dpw", dpw_2approx(g), 2))
            for rep, factor in ((fas_scheme(g, half), half + 1),
                                (fas_scheme(g, 1, weighted=True), 2)):
                if n < 18:   # the level-2 prefix rounds to no vertex
                    assert rep.trace[0][0] == "exact-fallback-level-2"
                    factor = 1
                else:
                    assert rep.trace[0] == ("boost", 2, 18, 1)
                runs.append(("fas", rep, factor))
            assert len(runs) == 12
            for obj, rep, factor in runs:
                check_ratio(rep, g, obj, factor, opt[obj])


def test_orient_sides_frozen_example():
    # 8 vertices split 4/4, crossing edges (1,7) and (2,5); left side ties
    # (forward kept), right side strictly prefers its reversal
    seq_l, seq_r = [0, 1, 2, 3], [4, 5, 6, 7]
    crossing = [(1, 7, 1), (2, 5, 1)]
    left, right = _orient_sides(seq_l, seq_r, crossing)
    assert left == [0, 1, 2, 3]
    assert right == [7, 6, 5, 4]


def test_orient_sides_picks_best_of_four():
    g = gen_random(8, 0.5, undirected=True, seed=55)
    left_set = set(range(4))
    seq_l, seq_r = [2, 0, 3, 1], [5, 7, 4, 6]
    crossing = [(u, v, w) if u in left_set else (v, u, w)
                for u, v, w in g.edge_items()
                if (u in left_set) != (v in left_set)]
    best_l, best_r = _orient_sides(seq_l, seq_r, crossing)
    chosen = ola_of(g, Ordering.from_sequence(best_l + best_r))
    candidates = []
    for ls in (seq_l, list(reversed(seq_l))):
        for rs in (seq_r, list(reversed(seq_r))):
            candidates.append(ola_of(g, Ordering.from_sequence(ls + rs)))
    assert chosen == min(candidates)


def test_dpw_2approx_ratios():
    for g in corpus(8, 7, seed0=500) + corpus(4, 8, p=0.3, seed0=510):
        check_ratio(dpw_2approx(g), g, "dpw", 2)


def test_dpw_2approx_on_dag_path():
    path = Digraph(5, [(i, i + 1) for i in range(4)])
    rep = dpw_2approx(path)
    assert rep.value == 0


def test_degenerate_inputs_fall_back_to_exact():
    tiny = Digraph(2, [(0, 1), (1, 0)])
    for solver in (fas_balanced_approx, cutwidth_balanced_approx, dpw_2approx):
        rep = solver(tiny)
        assert rep.factor == 1
        assert rep.value == rep.lower_bound
    rep = ola_directed_approx(tiny, Fraction(1, 2))
    assert rep.factor == 1 and rep.value == 1
    single = Digraph(1, [])
    assert fas_balanced_approx(single).value == 0


def test_reports_merge_child_counters(triangle_with_detour, kernel_cells):
    rep = fas_balanced_approx(triangle_with_detour)
    # two exact half-solves (2^3 entries each) plus the cells of the cut
    # search, at most the C(6, 3) candidate sets
    assert rep.stats.table_entries == 16
    assert rep.stats.triangles == kernel_cells.of[id(triangle_with_detour)] <= 20
    assert rep.stats.calls >= 3
