"""Reports: every one comes out of report.finish, which evaluates the final
ordering once and checks it against the solver's own account of the value."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest

from ordercut import (EVALUATORS, balanced,
                      cutwidth_balanced_approx, dpw_2approx,
                      fas_balanced_approx, fas_scheme, gen_random,
                      ola_directed_approx, ola_undirected_approx, serialize_graph,
                      subset_dp)
from ordercut.cli import main

from conftest import boost_ladder

EXACT = {"fas": subset_dp.fas_exact, "ola": subset_dp.ola_exact,
         "cutwidth": subset_dp.cutwidth_exact, "dpw": subset_dp.dpw_exact}


@pytest.fixture
def evaluated(monkeypatch):
    """The orderings passed to the evaluators, in call order."""
    seen = []
    for obj, fn in list(EVALUATORS.items()):
        def counting(g, ordering, fn=fn):
            seen.append(ordering)
            return fn(g, ordering)
        monkeypatch.setitem(EVALUATORS, obj, counting)
    return seen


@pytest.mark.parametrize("obj", sorted(EXACT))
def test_exact_report_defaults(obj, evaluated):
    rep = EXACT[obj](gen_random(7, 0.4, seed=3))
    assert (rep.factor, rep.cuts, rep.trace) == (1, (), ())
    assert rep.lower_bound == rep.value
    assert evaluated == [rep.ordering]


@pytest.mark.parametrize("solve, undirected, sides", [
    (fas_balanced_approx, False, 2),
    (lambda g: fas_balanced_approx(g, Fraction(1, 2)), False, 2),
    (cutwidth_balanced_approx, False, 2),
    (lambda g: ola_directed_approx(g, Fraction(1, 2)), False, 2),
    (lambda g: ola_directed_approx(g, Fraction(1, 2), weighted=True), False, 2),
    (lambda g: ola_undirected_approx(g, Fraction(1, 2)), True, 2),
    (dpw_2approx, False, 1),
])
def test_each_ordering_evaluated_once(solve, undirected, sides, evaluated):
    rep = solve(gen_random(10, 0.4, seed=5, undirected=undirected))
    # once per side or complement report, then once for the final ordering
    assert len(evaluated) == sides + 1 and evaluated[-1] is rep.ordering


def test_fallback_evaluated_once(evaluated):
    rep = fas_balanced_approx(gen_random(2, 1.0, seed=1))
    assert rep.trace == (("exact-fallback", 2),)
    assert evaluated == [rep.ordering]


def test_scheme_evaluated_once_per_report(evaluated):
    n = 10
    prefix = round(boost_ladder(1, 0.9)[0].alpha * n)
    rep = fas_scheme(gen_random(n, 0.5, seed=400), Fraction(1, 2), delta1=0.9)
    assert rep.trace[0] == ("boost", 2, n, prefix)
    # one exact complement, every other complement a balanced split with
    # two sides, and the final ordering
    assert len(evaluated) == 1 + 3 * (comb(n, prefix) - 1) + 1
    assert evaluated[-1] is rep.ordering


def test_cli_solve_evaluates_once(evaluated, tmp_path, capsys):
    path = tmp_path / "g.g"
    path.write_text(serialize_graph(gen_random(8, 0.4, seed=2)))
    assert main(["solve", str(path), "--obj", "fas", "--mode", "2approx",
                 "--no-timing"]) == 0
    capsys.readouterr()
    assert len(evaluated) == 3


def off_by_one(fn):
    def wrong(*args, **kwargs):
        rep = fn(*args, **kwargs)
        return dataclasses.replace(rep, value=rep.value + 1)
    return wrong


def test_fas_split_checks_sides_plus_cut(monkeypatch):
    # every exact side report one too high: at n = 8 both sides are solved
    # in one batch call, at n = 9 each through fas_exact, a batch of one
    monkeypatch.setattr(subset_dp, "finish", off_by_one(subset_dp.finish))
    for n in (8, 9):
        with pytest.raises(AssertionError, match="fas solver claimed"):
            fas_balanced_approx(gen_random(n, 0.4, seed=1))


def test_scheme_checks_best_candidate(monkeypatch):
    real = balanced.cut_into
    monkeypatch.setattr(balanced, "cut_into", lambda g, s: real(g, s) + 1)
    with pytest.raises(AssertionError, match="fas solver claimed"):
        fas_scheme(gen_random(10, 0.5, seed=400), Fraction(1, 2), delta1=0.9)


@pytest.mark.parametrize("obj", sorted(EXACT))
def test_exact_checks_table_value(obj, monkeypatch):
    real = subset_dp._prefix_tables

    def wrong(graphs, cap, objective):
        return [dataclasses.replace(table, vals=table.vals + 1)
                for table in real(graphs, cap, objective)]

    monkeypatch.setattr(subset_dp, "_prefix_tables", wrong)
    with pytest.raises(AssertionError, match=f"{obj} solver claimed"):
        EXACT[obj](gen_random(6, 0.5, seed=2))
    with pytest.raises(AssertionError, match=f"{obj} solver claimed"):
        subset_dp._exacts([gen_random(6, 0.5, seed=s) for s in (2, 3)], obj)


def test_dpw_checks_prefix_bound(monkeypatch):
    real = balanced.dpw_prefix_table

    def low(g, size_cap):
        table = real(g, size_cap)
        return dataclasses.replace(table, vals=table.vals - 1000)

    monkeypatch.setattr(balanced, "dpw_prefix_table", low)
    with pytest.raises(AssertionError, match="dpw prefix bound violated"):
        dpw_2approx(gen_random(10, 0.4, seed=1))
