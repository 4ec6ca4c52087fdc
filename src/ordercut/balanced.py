"""Balanced-cut approximation algorithms.

The common pattern: buy a near-balanced cut with the exact (or rounded)
(k, n-k)-cut solver, solve both sides exactly with the subset DPs, and
concatenate. The cut weight and the side optima are each certified lower
bounds, which yields the stated factors. fas_scheme boosts the factor from
2 (or 3 weighted) to 1 + 1/k (1 + 2/k weighted) by enumerating all small
prefixes, exactly one of which is solved together with an exact complement.

Every report is built by report.finish, which evaluates the concatenated
ordering once and checks it against the solver's own account where there
is one: sides plus cut for a fas split, the best candidate in the scheme.
dpw_2approx checks its value against the prefix bound instead.

Degenerate inputs (n <= 2, or a prefix/range that rounds to nothing) fall
back to the exact solver and report factor 1, with the fallback traced.

Subproblems of one size are solved as one batch: the sides of one size in
one table call (both sides of an even split), and each scheme level's
complements in one cut search and two table calls at the level below.
fas_exact and the other exact solvers are batches of one; a lone graph is
passed to them only so that a traced run records it as a span.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, takewhile

import numpy as np

from .graph import Digraph, cut_into, induced
from .kcut import (CutSolution, _cut_profiles, cut_profile, dkmc_exact,
                   dkmc_weighted_approx)
from .report import Counters, SolveReport, finish
from .subset_dp import (_exacts, _prefix_tables, cutwidth_exact, dpw_exact,
                        dpw_prefix_table, fas_exact, fas_table, ola_exact)

DEFAULT_DELTA1 = 0.25

_LOG2_189 = math.log2(1.89)


def _gamma_lhs(gamma: float) -> float:
    """(g*log2(g) - (g-1)*log2(g-1)) / (g-1) as the sum of two positive
    terms, log2(g)/(g-1) + log2(1 + 1/(g-1)): the difference cancels its
    digits as g grows, to 0.0 at g = 2^64."""
    return (math.log2(gamma) / (gamma - 1)
            + math.log1p(1 / (gamma - 1)) / math.log(2))


def _bisect(holds, lo: float, hi: float) -> tuple[float, float]:
    """200 halvings of [lo, hi], keeping holds(lo) true and holds(hi) false."""
    assert holds(lo) and not holds(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    assert holds(lo) and not holds(hi)
    return lo, hi


def gamma_for_target(target: float) -> float:
    """Solve (g*log2(g) - (g-1)*log2(g-1)) / (g-1) = target for g >= 2.

    The left side decreases strictly from 2 at g = 2 toward 0, so requests
    with target >= 2 return the boundary g = 2.
    """
    if target >= 2:
        return 2.0

    def reaches(gamma: float) -> bool:
        return _gamma_lhs(gamma) >= target

    if reaches(2.0 ** 64):
        raise ValueError(f"target {target} too small to bracket")
    return _bisect(reaches, 2.0, 2.0 ** 64)[0]


@lru_cache(maxsize=64)
def solve_gamma(delta: float) -> float:
    """Root of the gamma-equation with right side 1 - log2(2 - delta);
    pure in delta, so each ladder rung is bisected once per process."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return gamma_for_target(1 - math.log2(2 - delta))


@dataclass(frozen=True)
class BoostParams:
    """Ladder entry: the margin delta_k at level k and the derived
    gamma_k / alpha_k = 1/gamma_k used to build level k+1."""

    level: int
    delta: float
    gamma: float
    alpha: float


def _rungs(levels: int, delta1: float) -> Iterator[BoostParams]:
    """BoostParams for levels 1..levels, computed as read; delta_{k+1} is
    the midpoint of the admissible interval (0, 2 - 2^(1 - alpha_k))."""
    if not 0 < delta1 < 1:
        raise ValueError("delta1 must lie in (0, 1)")
    delta = delta1
    for level in range(1, levels + 1):
        gamma = solve_gamma(delta)
        alpha = 1.0 / gamma
        yield BoostParams(level, delta, gamma, alpha)
        delta = (2 - 2 ** (1 - alpha)) / 2


def _pw_equation(alpha: float) -> float:
    entropy = -alpha * math.log2(alpha) - (1 - alpha) * math.log2(1 - alpha)
    return (1 - alpha) * _LOG2_189 - entropy


@lru_cache(maxsize=1)
def solve_pw_alpha() -> float:
    """Prefix share for dpw_2approx: the alpha in (0, 1/2) balancing the
    prefix-table work against 1.89^((1-alpha) n). Roughly 0.204."""
    lo, hi = _bisect(lambda alpha: _pw_equation(alpha) > 0, 1e-9, 0.5)
    return (lo + hi) / 2


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _traced(rep: SolveReport, note: str) -> SolveReport:
    """An exact report, traced as what it stands in for (a fallback or the
    scheme's exact complement)."""
    return replace(rep, trace=((note, len(rep.ordering)),))


def _solve(graphs, lone, batch) -> list:
    """Results for graphs of one vertex count: [lone(g)] for a lone graph,
    else batch(graphs), one call for all.

    Either way a lone graph's table, exact solve or cut search runs as a
    batch of one with no batch axis: *_exact is _exacts([g]). (The 15-38%
    measured at n = 8-21 was the cut kernel's: kcut searches a lone graph
    with min_weight_triangle, not _triangles over a batch axis of length 1.)
    The lone fork exists only so that a traced run sees the public call
    (*_exact, fas_table, dkmc_*): perfbench's tests need kcut.calls > 0."""
    return [lone(graphs[0])] if len(graphs) == 1 else batch(graphs)


def _exact_all(graphs, exact, objective: str) -> list[SolveReport]:
    """Exact reports of graphs of one vertex count (exact is the public
    solver of objective)."""
    return _solve(graphs, exact, lambda gs: _exacts(gs, objective))


def _sub_orders(jobs, solve) -> list[tuple[SolveReport, list[int]]]:
    """Solve the induced subproblems G[vertices] of jobs, (g, vertices)
    pairs, those of one size in one call solve(subgraphs); return each
    report with its ordering's vertex sequence mapped back to g's labels."""
    subs = [induced(g, vertices) for g, vertices in jobs]
    by_size: dict[int, list[int]] = {}
    for i, (sub, _) in enumerate(subs):
        by_size.setdefault(sub.n, []).append(i)
    reps = [None] * len(subs)
    for group in by_size.values():
        for i, rep in zip(group, solve([subs[i][0] for i in group])):
            reps[i] = rep
    out = []
    for (_, relabel), rep in zip(subs, reps):
        inv = {new: old for old, new in relabel.items()}
        out.append((rep, [inv[v] for v in rep.ordering.seq]))
    return out


def _cut_range_lb(sols: list[CutSolution], eps_cut) -> int:
    """Sum of the cuts' lower bounds (a rounded cut's value over 1+eps,
    floored). Any ordering pays at least the minimum k-cut at position k,
    for every k searched."""
    if eps_cut is None:
        return sum(s.value for s in sols)
    return sum(math.floor(Fraction(s.value) / (1 + Fraction(eps_cut))) for s in sols)


def _split(graphs, objective: str, sols, eps_cut, exact, counters, t0: float,
           factor: Fraction, trace: tuple, orient: bool = False) -> list[SolveReport]:
    """The balanced-cut step for each graph: take the lightest cut in its
    list of sols (the smallest k wins ties), solve both sides with the exact
    solver, optionally orient them (undirected ola), and concatenate.

    The lower bound is the cut bound of every k searched, or the side
    optima: their sum for fas, whose value finish() checks to be exactly
    sides plus cut, and their maximum for cutwidth and ola.
    """
    cuts = [min(s, key=lambda c: c.value) for s in sols]
    jobs = []
    for g, cut in zip(graphs, cuts):
        left = set(cut.vertices)
        jobs += [(g, cut.vertices), (g, tuple(v for v in range(g.n) if v not in left))]
    solved = _sub_orders(jobs, lambda gs: _exact_all(gs, exact, objective))
    reports = []
    for i, (g, cut, count) in enumerate(zip(graphs, cuts, counters)):
        (rep_l, seq_l), (rep_r, seq_r) = solved[2 * i:2 * i + 2]
        count.merge(rep_l.stats)
        count.merge(rep_r.stats)
        if orient:
            left = set(cut.vertices)
            crossing = [(u, v, w) if u in left else (v, u, w)
                        for u, v, w in g.edge_items() if (u in left) != (v in left)]
            seq_l, seq_r = _orient_sides(seq_l, seq_r, crossing)
        fas = objective == "fas"
        sides = rep_l.value + rep_r.value if fas else max(rep_l.value, rep_r.value)
        reports.append(finish(
            g, objective, seq_l + seq_r, max(_cut_range_lb(sols[i], eps_cut), sides),
            count, t0, claim=sides + cut.value if fas else None, factor=factor,
            cuts=(cut,), trace=trace))
    return reports


def _balanced(graphs, objective: str, cut_eps, exact) -> list[SolveReport]:
    """fas and cutwidth: split each graph, all of one vertex count, at the
    balanced k = n/2 cut, exact or rounded."""
    t0 = time.perf_counter()
    n = graphs[0].n
    if n <= 2:
        return [_traced(rep, "exact-fallback")
                for rep in _exact_all(graphs, exact, objective)]
    counters = [Counters(calls=1) for _ in graphs]
    k = n // 2
    cuts = _solve(graphs,
                  lambda g: (dkmc_exact(g, k, counters[0]) if cut_eps is None
                             else dkmc_weighted_approx(g, k, cut_eps, counters[0])),
                  lambda gs: [p[k] for p in _cut_profiles(gs, [k], cut_eps, counters)])
    return _split(graphs, objective, [[cut] for cut in cuts], cut_eps, exact,
                  counters, t0, 2 + Fraction(cut_eps or 0), (("balanced", n, k),))


def fas_balanced_approx(g: Digraph, cut_eps=None) -> SolveReport:
    """Feedback arc set within factor 2 (exact cut) or 2+eps (rounded cut;
    eps = 1 gives the weighted 3-approximation)."""
    return _balanced([g], "fas", cut_eps, fas_exact)[0]


def cutwidth_balanced_approx(g: Digraph, cut_eps=None) -> SolveReport:
    """Directed cutwidth within factor 2 (exact cut) or 2+eps (rounded)."""
    return _balanced([g], "cutwidth", cut_eps, cutwidth_exact)[0]


def _ola(g: Digraph, alpha, weighted: bool, undirected: bool) -> SolveReport:
    """ola: split at the lightest cut with k in [lo, hi], lo = alpha*n/2
    (weighted: alpha*n/4, and a rounded cut) and hi = n - lo (undirected:
    n/2, the other half being its mirror image)."""
    t0 = time.perf_counter()
    af = Fraction(alpha)
    if not 0 < af < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = g.n
    lo = max(math.ceil(af * n / (4 if weighted else 2)), 1)
    hi = n // 2 if undirected else n - lo
    eps_cut = af / 2 if weighted else None
    if n <= 2 or lo > hi:
        return _traced(ola_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    sols = list(cut_profile(g, range(lo, hi + 1), eps_cut, counters).values())
    return _split([g], "ola", [sols], eps_cut, ola_exact, [counters], t0,
                  1 + 1 / ((2 if undirected else 1) * (1 - af)),
                  (("cut-range", lo, hi),), orient=undirected)[0]


def ola_directed_approx(g: Digraph, alpha, weighted: bool = False) -> SolveReport:
    """OLA within factor 1 + 1/(1-alpha) by trying every near-central cut:
    k in [alpha*n/2, n - alpha*n/2] (weighted: alpha/4 and a rounded cut)."""
    return _ola(g, alpha, weighted, undirected=False)


def _orient_sides(seq_l: list[int], seq_r: list[int],
                  crossing: list[tuple[int, int, int]]):
    """Reversal trick: flip each side independently to shorten the crossing
    edges, pretending the far endpoint sits at the boundary position.

    crossing lists (x, y, w) with x on the left side, y on the right.
    Returns the oriented sequences; a side is reversed only when that is
    strictly cheaper.
    """
    i = len(seq_l)
    pos_l = {v: p + 1 for p, v in enumerate(seq_l)}
    pos_r = {v: p + 1 for p, v in enumerate(seq_r)}
    lf = lr = rf = rr = 0
    for x, y, w in crossing:
        lf += w * (i - pos_l[x])
        lr += w * (pos_l[x] - 1)
        rf += w * pos_r[y]
        rr += w * (len(seq_r) + 1 - pos_r[y])
    left = seq_l if lf <= lr else list(reversed(seq_l))
    right = seq_r if rf <= rr else list(reversed(seq_r))
    return left, right


def ola_undirected_approx(g: Digraph, alpha, weighted: bool = False) -> SolveReport:
    """Undirected OLA within factor 1 + 1/(2(1-alpha)); an undirected
    ordering can be reversed per side without changing its internal cost,
    which halves the crossing-edge overhead. By that symmetry only
    k <= n/2 is searched."""
    if not g.undirected:
        raise ValueError("ola_undirected_approx needs an undirected instance")
    return _ola(g, alpha, weighted, undirected=True)


def dpw_2approx(g: Digraph) -> SolveReport:
    """Directed pathwidth within factor 2: pick the best size-round(alpha*n)
    prefix from the boundary table, solve the rest exactly."""
    t0 = time.perf_counter()
    n = g.n
    p = _round_half_up(solve_pw_alpha() * n)
    if n <= 2 or p < 1 or p >= n:
        return _traced(dpw_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    table = dpw_prefix_table(g, p)
    counters.table_entries += table.entries
    masks, vals = table.layer(p)
    # first minimum in combinations order: of two tied p-sets that order lists
    # first the one holding the lowest vertex where they differ, which is the
    # one with the larger bit-reversed mask. Value and mask are compared
    # apart: no key packing both fits a narrow value dtype.
    tied = np.flatnonzero(vals == vals.min())
    reversed_masks = sum((masks[tied] >> v & 1) << (n - 1 - v) for v in range(n))
    i = tied[reversed_masks.argmax()]
    best_mask, best_val = int(masks[i]), int(vals[i])
    prefix_seq = list(table.order_of(best_mask))
    rest = tuple(v for v in range(n) if not best_mask >> v & 1)
    (rep_c, seq_c), = _sub_orders(
        [(g, rest)], lambda gs: _exact_all(gs, dpw_exact, "dpw"))
    counters.merge(rep_c.stats)
    report = finish(g, "dpw", prefix_seq + seq_c, max(best_val, rep_c.value),
                    counters, t0, factor=Fraction(2), trace=(("prefix", n, p),))
    if report.value > best_val + rep_c.value:
        raise AssertionError("dpw prefix bound violated")
    return report


def fas_scheme(g: Digraph, eps, weighted: bool = False,
               delta1: float = DEFAULT_DELTA1) -> SolveReport:
    """Self-boosting FAS scheme: factor 1 + 1/k with k = ceil(1/eps)
    (weighted: 1 + 2/k with k = ceil(2/eps); the base cut is rounded).

    Level 1 is fas_balanced_approx. Level k+1 enumerates every vertex subset
    of size round(alpha_k * n), reads the optimal FAS of each from one shared
    subset table, pairs the cheapest-to-cut subset with an exact complement
    and every other subset with a level-k complement, and keeps the best.
    """
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise ValueError("eps must be positive")
    k = math.ceil(Fraction(2 if weighted else 1) / eps_f)
    # alpha_k falls with k, so rungs stop at the first whose prefix rounds
    # to 0; from rung 9 (delta1 = 0.01), 10 (0.02-0.22) or 11 (0.25-0.99)
    # on, delta_k or its target reads 0.0 and gamma cannot be solved for
    rungs = _rungs(k - 1, delta1) if k >= 2 else ()
    ladder = tuple(takewhile(lambda p: _round_half_up(p.alpha * g.n) >= 1, rungs))
    return _fas_level([g], k, weighted, ladder)[0]


def _fas_level(graphs, level: int, weighted: bool,
               ladder: tuple[BoostParams, ...]) -> list[SolveReport]:
    """Level `level` of the scheme for graphs of one vertex count. All their
    complements have one size: the exact ones are solved as one batch, the
    others as one batch at level - 1."""
    if level <= 1:
        return _balanced(graphs, "fas", 1 if weighted else None, fas_exact)
    t0 = time.perf_counter()
    n = graphs[0].n
    # a missing rung is the top level's, whose prefix rounds to 0
    prefix = _round_half_up(ladder[level - 2].alpha * n) if level - 2 < len(ladder) else 0
    if n <= 2 or prefix < 1 or prefix >= n:
        return [_traced(rep, f"exact-fallback-level-{level}")
                for rep in _exact_all(graphs, fas_exact, "fas")]
    tables = _solve(graphs, lambda g: fas_table(g, prefix),
                    lambda gs: _prefix_tables(gs, prefix, "fas"))
    subsets = list(combinations(range(n), prefix))
    comps = [tuple(v for v in range(n) if v not in sub) for sub in subsets]
    a_vals = [[cut_into(g, sub) for sub in subsets] for g in graphs]
    stars = [min(range(len(subsets)), key=a.__getitem__) for a in a_vals]
    # exact complements first: one over the byte guard stops before any cut search
    exact = _sub_orders(
        [(g, comps[star]) for g, star in zip(graphs, stars)],
        lambda gs: [_traced(rep, "exact-complement")
                    for rep in _exact_all(gs, fas_exact, "fas")])
    boosted = iter(_sub_orders(
        [(g, comp) for g, star in zip(graphs, stars)
         for idx, comp in enumerate(comps) if idx != star],
        lambda gs: _fas_level(gs, level - 1, weighted, ladder)))
    reports = []
    for g, table, a, star, star_rep in zip(graphs, tables, a_vals, stars, exact):
        counters = Counters(table_entries=table.entries, calls=1)
        best = None
        lb = 0
        for idx, sub in enumerate(subsets):
            crep, cseq = star_rep if idx == star else next(boosted)
            counters.merge(crep.stats)
            sub_val = table.value_of(sub)
            lb = max(lb, sub_val + crep.lower_bound)
            cand = sub_val + a[idx] + crep.value
            if best is None or cand < best[0]:
                best = cand, list(table.order_of(sub)) + cseq, crep.trace
        value, seq, ctrace = best
        reports.append(finish(g, "fas", seq, lb, counters, t0, claim=value,
                              factor=1 + Fraction(2 if weighted else 1, level),
                              trace=(("boost", level, n, prefix),) + ctrace))
    return reports
