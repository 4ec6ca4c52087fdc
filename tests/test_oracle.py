"""Brute-force permutation oracle."""

import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from ordercut import (EVALUATORS, Digraph, Ordering, SizeGuardError,
                      cutwidth_exact, dpw_exact, fas_exact, gen_random,
                      guards, ola_exact, oracle, perm_opt)


def naive_opt(g, objective):
    """Plain-loop reference, independent of the vectorized path: the
    optimum, how many orderings reach it, and the first one in
    lexicographic order."""
    fn = EVALUATORS[objective]
    best = first = None
    count = 0
    for seq in permutations(range(g.n)):
        val = fn(g, Ordering.from_sequence(seq))
        if best is None or val < best:
            best, count, first = val, 1, seq
        elif val == best:
            count += 1
    return (best if best is not None else 0), count, first


def _complete(n, undirected=False):
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u < v or (u != v and not undirected)]
    return Digraph(n, pairs, undirected=undirected)


# weighted and unweighted, directed and undirected, n = 1..7; the unweighted
# ones, the empty and the complete graphs have many tied optima; weights up
# to 10**40 overflow int64, so those are scored in Python ints
NAIVE_GRAPHS = (
    [gen_random(2 + seed % 6, 0.5, weight_range=(1, 5), seed=200 + seed)
     for seed in range(10)]
    + [gen_random(5, 0.5, weight_range=(10 ** 35, 10 ** 40), seed=500 + seed,
                  undirected=seed % 2 == 1) for seed in range(4)]
    + [gen_random(n, 0.4, weight_range=(1, 3), seed=300 + n, undirected=True)
       for n in (3, 5, 7)]
    + [gen_random(n, 0.3, seed=400 + n, undirected=undirected)
       for n in (4, 6, 7) for undirected in (False, True)]
    + [Digraph(1, []), Digraph(5, []), _complete(5), _complete(6, True)]
)


@pytest.mark.parametrize("objective", sorted(EVALUATORS))
def test_matches_naive_loop(objective):
    for g in NAIVE_GRAPHS:
        res = perm_opt(g, objective)
        opt, count, first = naive_opt(g, objective)
        assert res.opt == opt, g
        assert res.count == count, g
        assert res.ordering.seq == first, g


@pytest.mark.parametrize("objective", ["fas", "cutwidth"])
def test_leaf_layout(objective):
    # the cached ranks number the leaves 0..n!-1, and the leaf scores in
    # rank order are the evaluator's over permutations() in order: sums
    # (fas) and maxima (cutwidth) on weighted graphs
    for n in range(8):
        g = gen_random(n, 0.6, weight_range=(1, 9), seed=600 + n)
        levels, ranks = oracle._position_matrix(n)
        assert ranks.dtype == guards.int_dtype(math.factorial(n))
        assert sorted(ranks.tolist()) == list(range(math.factorial(n)))
        dtype = guards.int_dtype(guards.value_bound(g, objective))
        leaves = oracle._leaves(levels, oracle._cost_table(g, objective, dtype),
                                oracle._COMBINE[objective], dtype)
        in_rank_order = np.empty_like(leaves)
        in_rank_order[ranks] = leaves
        want = [EVALUATORS[objective](g, Ordering.from_sequence(seq))
                for seq in permutations(range(n))]
        assert in_rank_order.tolist() == want, n


def _cycle(total):
    """A 3-cycle of total weight total."""
    w = total // 3
    weights = {(0, 1): w, (1, 2): w, (2, 0): total - 2 * w}
    return Digraph(3, list(weights), weights)


def score_dtypes(monkeypatch) -> list:
    """The score dtypes perm_opt hands _cost_table from now on."""
    seen = []
    build = oracle._cost_table

    def cost_table(g, objective, dtype):
        seen.append(dtype)
        return build(g, objective, dtype)
    monkeypatch.setattr(oracle, "_cost_table", cost_table)
    return seen


# a 3-cycle of total weight t has value_bound t for fas and cutwidth, 3t for
# ola, and 3 for dpw at any weight
BOUND_PER_WEIGHT = {"fas": 1, "cutwidth": 1, "ola": 3}


def test_int64_object_boundary(monkeypatch):
    # scores are int64 while value_bound < 2**62, Python ints from there
    seen = score_dtypes(monkeypatch)
    for objective, per in BOUND_PER_WEIGHT.items():
        first_object = -(-(1 << 62) // per)
        for total, dtype in ((first_object - 1, np.int64), (first_object, object)):
            g = _cycle(total)
            assert guards.value_bound(g, objective) == per * total
            for obj, want in ((objective, dtype), ("dpw", np.int16)):
                seen.clear()
                res = perm_opt(g, obj)
                assert seen == [want]
                assert (res.opt, res.count, res.ordering.seq) == naive_opt(g, obj)


def test_narrow_scores_at_each_switch(monkeypatch):
    # scores take the narrowest of int16/int32 that holds value_bound
    seen = score_dtypes(monkeypatch)
    for top, narrow, wide in (((1 << 15) - 1, np.int16, np.int32),
                              ((1 << 31) - 1, np.int32, np.int64)):
        for objective, per in BOUND_PER_WEIGHT.items():
            for total, dtype in ((top // per, narrow), (top // per + 1, wide)):
                g = _cycle(total)
                for obj, want in ((objective, dtype), ("dpw", np.int16)):
                    seen.clear()
                    res = perm_opt(g, obj)
                    assert seen == [want]
                    assert (res.opt, res.count, res.ordering.seq) == naive_opt(g, obj)


def test_dpw_scores_are_int16_at_any_weight(monkeypatch):
    # dpw counts vertices, so its bound is n whatever the weights
    seen = score_dtypes(monkeypatch)
    for top in (1, 1000, 10 ** 18, 10 ** 40):
        g = gen_random(7, 0.5, weight_range=(1, top), seed=7)
        assert guards.value_bound(g, "dpw") == 7
        res = perm_opt(g, "dpw")
        assert seen == [np.int16]
        assert (res.opt, res.count, res.ordering.seq) == naive_opt(g, "dpw")
        seen.clear()


def test_known_counts():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    res = perm_opt(cyc, "fas")
    assert res.opt == 1
    assert res.count == 3          # the three rotations of the cycle order
    assert res.ordering.seq == (0, 1, 2)   # lex-least witness

    arc = Digraph(2, [(0, 1)])
    res = perm_opt(arc, "fas")
    assert (res.opt, res.count) == (0, 1)


def test_trivial_sizes():
    empty = Digraph(0, [])
    assert perm_opt(empty, "ola").opt == 0
    single = Digraph(1, [])
    res = perm_opt(single, "cutwidth")
    assert res.opt == 0 and res.ordering.pos == (1,)


def test_rejects_unknown_objective():
    with pytest.raises(ValueError):
        perm_opt(Digraph(2, [(0, 1)]), "makespan")


def test_size_guard(monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = Digraph(12, [(0, 1)])
    with pytest.raises(SizeGuardError):
        perm_opt(g, "fas")


def checked_bytes(monkeypatch) -> list:
    """The byte counts handed to guards.check from now on."""
    seen = []
    check = guards.check

    def spy(actual, what):
        seen.append(actual)
        check(actual, what)
    monkeypatch.setattr(guards, "check", spy)
    return seen


def test_byte_guard_refuses_before_allocating(monkeypatch):
    # n = 12 (4.0 GiB modelled) and n = 11 with Python-int scores (3.5 GiB)
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    for g in (gen_random(12, 0.4, seed=1),
              gen_random(11, 0.4, weight_range=(1, 10 ** 18), seed=1)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="oracle leaf bytes"):
                perm_opt(g, "fas")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("weights", [(1, 1), (1, 1000), (1, 10 ** 18)])
@pytest.mark.parametrize("objective", ["fas", "cutwidth", "ola", "dpw"])
def test_peak_is_within_the_checked_bytes(monkeypatch, objective, weights):
    # at n = 10, int16, int32 and Python-int scores, summed and maxed; the
    # cache is emptied so that the ranks, kept afterwards, are built in the
    # call. Summed Python ints measure 1.76x their peak, the rest 1.28-1.32x
    g = gen_random(10, 0.4, weight_range=weights, seed=3)
    made_ints = (objective in ("fas", "ola")
                 and guards.int_dtype(guards.value_bound(g, objective)) is object)
    checked = checked_bytes(monkeypatch)
    oracle._position_matrix.cache_clear()
    tracemalloc.start()
    try:
        perm_opt(g, objective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1
    assert peak <= checked[0] <= (1.8 if made_ints else 1.6) * peak


EXACT = {"fas": fas_exact, "ola": ola_exact, "cutwidth": cutwidth_exact,
         "dpw": dpw_exact}


@pytest.mark.parametrize("n", [10, 11])
def test_matches_exact_dps_past_nine(n):
    # the sizes the byte guard admits past 9, with unit and 1..1000 weights
    try:
        for weights in ((1, 1), (1, 1000)):
            g = gen_random(n, 0.4, weight_range=weights, seed=20 + n)
            for objective, exact in EXACT.items():
                assert perm_opt(g, objective).opt == exact(g).value, (weights, objective)
    finally:
        oracle._position_matrix.cache_clear()   # 160 MB of ranks at n = 11


def test_dpw_past_ten_at_any_weight(monkeypatch):
    # int16 scores at weights up to 10**18: admitted at n = 11 without the
    # override, where Python-int sums are refused
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    g = gen_random(11, 0.4, weight_range=(1, 10 ** 18), seed=5)
    try:
        assert perm_opt(g, "dpw").opt == dpw_exact(g).value
    finally:
        oracle._position_matrix.cache_clear()


def loop_cost_table(g, objective, dtype):
    """The per-arc reference: one 2^n-row update per arc."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    out_of = ((masks[:, None] >> np.arange(n)) & 1) == 0
    if objective == "fas":
        cost = np.zeros((1 << n, n), dtype=dtype)
        for u, v, w in g.arc_items:
            cost[:, v] += out_of[:, u].astype(dtype) * w
        return cost.ravel()
    inner = np.zeros((1 << n, n), dtype=bool)
    cut = np.zeros(1 << n, dtype=dtype)
    for u, x, w in g.arc_items:
        crossing = out_of[:, u] & ~out_of[:, x]
        inner[:, x] |= crossing
        cut += crossing.astype(dtype) * w
    per_t = inner.sum(axis=1, dtype=dtype) if objective == "dpw" else cut
    return per_t[masks[:, None] | (1 << np.arange(n))].ravel()


# each weight range, scored in every dtype that holds 2 * n * total arc
# weight: int16 and up for the small ones, Python ints for 10**17
SCORE_DTYPES = (np.int16, np.int32, np.int64, object)


@pytest.mark.parametrize("objective", sorted(EVALUATORS))
def test_cost_table_matches_per_arc_loop(objective):
    for n in range(10):
        for undirected in (False, True):
            for seed, top in enumerate((1, 5, 1000, 10 ** 8, 10 ** 17)):
                g = gen_random(n, 0.5, weight_range=(1, top),
                               seed=10 * n + seed, undirected=undirected)
                narrow = guards.int_dtype(2 * n * g.total_arc_weight)
                for dtype in SCORE_DTYPES[SCORE_DTYPES.index(narrow):]:
                    got = oracle._cost_table(g, objective, dtype)
                    want = loop_cost_table(g, objective, dtype)
                    assert got.dtype == want.dtype, (g, dtype)
                    assert got.tolist() == want.tolist(), (g, dtype)
