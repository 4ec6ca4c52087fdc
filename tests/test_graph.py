"""Graph container, orderings, evaluators, and the instance file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordercut
from ordercut import (Digraph, GraphError, Ordering, ParseError,
                      SizeGuardError, backward_weight, cut_into,
                      cutwidth_of, dpw_of, gen_random, induced, ola_of,
                      parse_graph, serialize_graph)

from conftest import arc_weights, cut_at, identity, reverse


# ---------------------------------------------------------------- strategies

@st.composite
def digraphs(draw, max_n=7, undirected=False, max_w=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if undirected:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = {p: draw(st.integers(min_value=0, max_value=max_w))
               for p in chosen}
    return Digraph(n, chosen, weights, undirected=undirected)


@st.composite
def graph_with_ordering(draw, undirected=False):
    g = draw(digraphs(undirected=undirected))
    seq = draw(st.permutations(range(g.n)))
    return g, Ordering.from_sequence(seq)


# ------------------------------------------------------------------ Ordering

def test_ordering_views_are_inverse():
    o = Ordering([3, 1, 2])
    assert o.seq == (1, 2, 0)
    assert Ordering.from_sequence([1, 2, 0]) == o
    assert identity(3).pos == (1, 2, 3)
    assert reverse(o).pos == (1, 3, 2)
    assert len(o) == 3


def test_ordering_rejects_non_permutations():
    with pytest.raises(ValueError):
        Ordering([1, 1, 2])
    with pytest.raises(ValueError):
        Ordering([0, 1, 2])
    with pytest.raises(ValueError):
        Ordering.from_sequence([0, 0, 1])


# ------------------------------------------------------------------- Digraph

def test_digraph_validation():
    with pytest.raises(GraphError):
        Digraph(-1, [])
    with pytest.raises(GraphError):
        Digraph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Digraph(2, [(1, 1)])
    with pytest.raises(GraphError):
        Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        Digraph(3, [(0, 1), (1, 0)], undirected=True)
    with pytest.raises(GraphError):
        Digraph(2, [(0, 1)], {(0, 1): -3})


def test_digraph_rejects_bool_weights():
    # isinstance(True, int) holds, but "a 1 2 True" would not parse back
    for weight in (True, False):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 1)], {(0, 1): weight})
        with pytest.raises(GraphError):
            Digraph(2, [(0, 1)], {(0, 1): weight}, undirected=True)


def test_undirected_storage_is_symmetric():
    g = Digraph(3, [(0, 1), (2, 1)], {(0, 1): 2, (2, 1): 5}, undirected=True)
    arcs = arc_weights(g)
    assert (0, 1) in arcs and (1, 0) in arcs
    assert arcs[1, 2] == arcs[2, 1] == 5
    assert g.m == 2
    assert g.total_arc_weight == 2 * (2 + 5)
    assert list(g.edge_items()) == [(0, 1, 2), (1, 2, 5)]


# ---------------------------------------------------------------- evaluators

def test_paths_with_chord_values(paths_with_chord):
    g = paths_with_chord
    ident = identity(6)
    assert backward_weight(g, ident) == 2
    arcs1, w1 = cut_at(g, ident, 1)
    assert (arcs1, w1) == ((), 0)
    arcs3, w3 = cut_at(g, ident, 3)
    assert w3 == 2 and set(arcs3) == {(5, 2), (4, 1)}
    # both backward arcs have stretch 3
    assert all(ident.pos[u] - ident.pos[v] == 3 for u, v in arcs3)
    assert [cut_at(g, ident, i)[1] for i in range(1, 6)] == [0, 1, 2, 2, 1]
    assert cutwidth_of(g, ident) == 2
    assert ola_of(g, ident) == 6


def test_two_triangles_cutwidth_pair(two_triangles):
    g = two_triangles
    assert cutwidth_of(g, Ordering.from_sequence([0, 1, 2, 3, 4, 5])) == 3
    assert cutwidth_of(g, Ordering.from_sequence([0, 1, 2, 5, 3, 4])) == 2


def test_dpw_of_examples():
    g = Digraph(2, [(0, 1)])
    assert dpw_of(g, identity(2)) == 0
    assert dpw_of(g, Ordering.from_sequence([1, 0])) == 1
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert dpw_of(cyc, identity(3)) == 1


def test_cut_at_bounds():
    g = Digraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        cut_at(g, identity(3), 0)
    with pytest.raises(ValueError):
        cut_at(g, identity(3), 3)


def test_cut_into():
    g = Digraph(4, [(0, 1), (2, 1), (1, 3)])
    assert cut_into(g, [1]) == 2
    assert cut_into(g, [0, 1]) == 1
    assert cut_into(g, range(4)) == 0


def test_induced_relabels_sorted():
    g = Digraph(5, [(0, 3), (3, 4), (4, 0)], {(0, 3): 7, (3, 4): 1, (4, 0): 2})
    sub, relabel = induced(g, [4, 0, 3])
    assert relabel == {0: 0, 3: 1, 4: 2}
    assert sub.arc_items == ((0, 1, 7), (1, 2, 1), (2, 0, 2))


def constructor_induced(g, keep):
    """The reference: the induced subgraph through the checking constructor,
    each undirected edge given once."""
    relabel = {old: new for new, old in enumerate(sorted(keep))}
    weights = {(relabel[u], relabel[v]): w for u, v, w in g.arc_items
               if u in relabel and v in relabel and (u < v or not g.undirected)}
    return Digraph(len(relabel), list(weights), weights,
                   undirected=g.undirected, weighted=g.weighted)


@settings(max_examples=150)
@given(st.booleans().flatmap(
    lambda ug: digraphs(max_n=9, undirected=ug, max_w=10 ** 17)),
    st.booleans(), st.data())
def test_induced_matches_constructor(g, weighted, data):
    g = Digraph(g.n, [(u, v) for u, v, _ in g.arc_items
                      if u < v or not g.undirected],
                {(u, v): w for u, v, w in g.arc_items},
                undirected=g.undirected, weighted=weighted)
    keep = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    sub, relabel = induced(g, keep)
    want = constructor_induced(g, keep)
    assert relabel == {old: new for new, old in enumerate(sorted(keep))}
    assert sub == want
    for field in ("n", "in_pairs", "arc_items", "m", "weighted", "undirected",
                  "total_arc_weight"):
        assert getattr(sub, field) == getattr(want, field), field
    assert sub.total_arc_weight == sum(w for _, _, w in sub.arc_items)


def test_induced_rejects_vertices_outside_graph():
    g = Digraph(3, [(0, 1), (1, 2)])
    for keep in ([0, 3], [-1, 1]):
        with pytest.raises(ValueError, match="outside graph"):
            induced(g, keep)


@settings(max_examples=80)
@given(graph_with_ordering())
def test_backward_plus_reverse_is_total(gw):
    g, o = gw
    assert backward_weight(g, o) + backward_weight(g, reverse(o)) == g.total_arc_weight


@settings(max_examples=80)
@given(graph_with_ordering(undirected=True))
def test_backward_plus_reverse_is_total_undirected(gw):
    g, o = gw
    # symmetric storage counts each edge once per direction
    assert backward_weight(g, o) + backward_weight(g, reverse(o)) == g.total_arc_weight


@settings(max_examples=80)
@given(graph_with_ordering())
def test_ola_equals_sum_of_cuts(gw):
    g, o = gw
    assert ola_of(g, o) == sum(cut_at(g, o, i)[1] for i in range(1, g.n))


@settings(max_examples=80)
@given(graph_with_ordering())
def test_cutwidth_ola_sandwich(gw):
    g, o = gw
    cw, total = cutwidth_of(g, o), ola_of(g, o)
    assert cw <= total <= max(g.n - 1, 0) * cw or (cw == total == 0)


@settings(max_examples=60)
@given(graph_with_ordering(), st.permutations(range(7)))
def test_evaluators_are_relabel_equivariant(gw, perm):
    g, o = gw
    sigma = list(perm[:g.n])
    if sorted(sigma) != list(range(g.n)):
        sigma = list(range(g.n))
    arcs = [(sigma[u], sigma[v]) for u, v, _ in g.arc_items]
    weights = {(sigma[u], sigma[v]): w for u, v, w in g.arc_items}
    h = Digraph(g.n, arcs, weights)
    o2 = Ordering(tuple(o.pos[sigma.index(v)] for v in range(g.n)))
    for fn in (backward_weight, cutwidth_of, ola_of, dpw_of):
        assert fn(g, o) == fn(h, o2)


# ------------------------------------------------------------------- file IO

def test_parse_basic_and_comments():
    g = parse_graph("# a comment\n\np dg 3 2\na 1 2\na 3 1\n")
    assert g.n == 3 and g.m == 2 and not g.weighted
    assert arc_weights(g).keys() == {(0, 1), (2, 0)}


def test_parse_weighted_and_undirected():
    g = parse_graph("p ug 3 2 w\na 1 2 4\na 2 3 1\n")
    assert g.undirected and g.weighted
    assert arc_weights(g)[1, 0] == 4


def test_roundtrip_canonical(triangle_with_detour):
    text = serialize_graph(triangle_with_detour)
    assert text.startswith("p dg 6 7\n") and text.endswith("\n")
    assert parse_graph(text) == triangle_with_detour


@settings(max_examples=60)
@given(digraphs())
def test_roundtrip_directed(g):
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=60)
@given(digraphs(undirected=True))
def test_roundtrip_undirected(g):
    assert parse_graph(serialize_graph(g)) == g


@pytest.mark.parametrize("text,fragment", [
    ("", "missing header"),
    ("a 1 2\n", "before header"),
    ("p dg 2 1\np dg 2 1\n", "duplicate header"),
    ("p dg 2\n", "malformed header"),
    ("p xx 2 1\na 1 2\n", "unknown graph mode"),
    ("p dg -2 0\n", "negative count"),
    ("p dg x 1\na 1 2\n", "not an integer"),
    ("p dg 1_0 0\n", "not an integer"),
    ("p dg \uff13 0\n", "not an integer"),          # full-width digit three
    ("p dg +3 0\n", "not an integer"),
    ("p dg 2 1 w\na 1 2 1_000\n", "not an integer"),
    ("p dg 2 1 w\na 1 2 " + "9" * 5000 + "\n", "not an integer"),
    pytest.param("p dg " + "9" * 5000 + " 0\n", "not an integer of at most",
                 id="5000-digit vertex count"),
    pytest.param("p dg 2 1\n" + "z" * 10000 + " 1 2\n", "unknown line type",
                 id="10000-character line type"),
    ("p dg 2 1\na 1 3\n", "out of range"),
    ("p dg 2 1\na 1 1\n", "self-loop"),
    ("p dg 2 2\na 1 2\na 1 2\n", "duplicate arc"),
    ("p ug 2 2\na 1 2\na 2 1\n", "duplicate arc"),
    ("p dg 2 1 w\na 1 2\n", "needs 'a u v w'"),
    ("p dg 2 1\na 1 2 9\n", "needs 'a u v'"),
    ("p dg 2 1 w\na 1 2 -4\n", "negative weight"),
    ("p dg 2 1\nz 1 2\n", "unknown line type"),
    ("p dg 3 2\na 1 2\n", "count mismatch"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_graph(text)
    assert len(str(exc.value)) < 200   # an over-long token is cut, not echoed


def test_parse_rejects_vertex_count_above_hard_cap(monkeypatch):
    from ordercut import instance_io
    assert parse_graph("p dg 32 0\n").n == 32

    def no_alloc(*args, **kwargs):
        raise AssertionError("Digraph built for an oversized header")

    monkeypatch.setattr(instance_io, "Digraph", no_alloc)
    with pytest.raises(SizeGuardError, match="hard cap"):
        parse_graph("p dg 50000000 0\n")


# ----------------------------------------------------------------- generator

def test_gen_random_is_seed_deterministic():
    a = gen_random(8, 0.4, weight_range=(1, 9), seed=5)
    b = gen_random(8, 0.4, weight_range=(1, 9), seed=5)
    c = gen_random(8, 0.4, weight_range=(1, 9), seed=6)
    assert a == b
    assert a != c


def test_gen_random_extremes():
    assert gen_random(4, 0.0, seed=1).m == 0
    assert gen_random(4, 1.0, seed=1).m == 12
    assert gen_random(4, 1.0, seed=1, undirected=True).m == 6
    assert gen_random(5, 1.0, weight_range=(3, 3), seed=2).weighted
    assert not gen_random(5, 1.0, seed=2).weighted
    for p, weight_range, fragment in (
            (-0.1, (1, 1), "arc probability"), (1.5, (1, 1), "arc probability"),
            (0.5, (-1, 3), "bad weight range"), (0.5, (5, 2), "bad weight range")):
        with pytest.raises(ValueError, match=fragment):
            gen_random(4, p, weight_range)


# ------------------------------------------------------------------- package

def test_exports_resolve_once():
    assert len(set(ordercut.__all__)) == len(ordercut.__all__)
    for name in ordercut.__all__:
        assert hasattr(ordercut, name), name
    # the public surface: the solvers, their results and what they read
    assert ordercut.__all__ == [
        "Counters", "CutSolution", "Digraph", "EVALUATORS", "GraphError",
        "OBJECTIVES", "OracleResult", "Ordering", "ParseError",
        "SizeGuardError", "SolveReport", "SubsetTable", "backward_weight",
        "cut_into", "cut_profile", "cutwidth_balanced_approx",
        "cutwidth_exact", "cutwidth_of", "dkmc_exact", "dkmc_weighted_approx",
        "dpw_2approx", "dpw_exact", "dpw_of", "dpw_prefix_table",
        "fas_balanced_approx", "fas_exact", "fas_scheme", "fas_table",
        "gamma_for_target", "gen_random", "induced", "min_weight_triangle",
        "ola_directed_approx", "ola_exact", "ola_of", "ola_undirected_approx",
        "parse_graph", "perm_opt", "serialize_graph", "solve_gamma",
        "solve_pw_alpha", "tripartition"]


def test_fill_weights_stores_every_arc_in_every_target():
    # weights of any size, into an array, a view and a transposed view;
    # unit stores 1 per arc; entries without an arc keep their value
    g = Digraph(4, [(0, 1), (2, 1), (3, 0)], {(0, 1): 5, (2, 1): 2 ** 70, (3, 0): 0})
    w = np.full((4, 4), -1, dtype=object)
    pair = np.zeros((4, 2, 4), dtype=object)
    for target in (w, pair[:, 0], pair[:, 1].T):
        g.fill_weights(target)
    want = {(0, 1): 5, (2, 1): 2 ** 70, (3, 0): 0}
    assert w.tolist() == [[want.get((u, v), -1) for v in range(4)] for u in range(4)]
    assert pair[:, 0].tolist() == [[want.get((u, v), 0) for v in range(4)] for u in range(4)]
    assert pair[:, 1].tolist() == [[want.get((v, u), 0) for v in range(4)] for u in range(4)]
    unit = np.zeros((4, 4), dtype=np.int16)
    g.fill_weights(unit, unit=True)
    assert unit.tolist() == [[int((u, v) in want) for v in range(4)] for u in range(4)]
    Digraph(3, []).fill_weights(unit)   # no arc: nothing stored
    # weights past 2**63 beside small ones stay exact Python ints
    big = Digraph(2, [(0, 1), (1, 0)], {(0, 1): 2 ** 63 + 1, (1, 0): 1})
    w = np.zeros((2, 2), dtype=object)
    big.fill_weights(w)
    assert w.tolist() == [[0, 2 ** 63 + 1], [1, 0]]
    assert all(type(x) is int for x in w.ravel())
