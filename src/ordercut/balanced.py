"""Balanced-cut approximation algorithms.

The common pattern: buy a near-balanced cut with the exact (or rounded)
(k, n-k)-cut solver, solve both sides exactly with the subset DPs, and
concatenate. The cut weight and the side optima are each certified lower
bounds, which yields the stated factors. fas_scheme boosts the factor from
2 (or 3 weighted) to 1 + 1/k (1 + 2/k weighted) by enumerating all small
prefixes, exactly one of which is solved together with an exact complement.

Degenerate inputs (n <= 2, or a prefix/range that rounds to nothing) fall
back to the exact solver and report factor 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import guards
from .graph import (EVALUATORS, Digraph, Ordering, backward_weight, cut_into,
                    dpw_of, induced)
from .kcut import CutSolution, cut_profile, dkmc_exact, dkmc_weighted_approx
from .report import ApproxReport, Counters, SolveReport, finish
from .subset_dp import (cutwidth_exact, dpw_exact, dpw_prefix_table, fas_exact,
                        fas_table, ola_exact)

DEFAULT_DELTA1 = 0.25

_LOG2_189 = math.log2(1.89)


def _gamma_lhs(gamma: float) -> float:
    return (gamma * math.log2(gamma)
            - (gamma - 1) * math.log2(gamma - 1)) / (gamma - 1)


def gamma_for_target(target: float) -> float:
    """Solve (g*log2(g) - (g-1)*log2(g-1)) / (g-1) = target for g >= 2.

    The left side decreases strictly from 2 at g = 2 toward 0, so requests
    with target >= 2 return the boundary g = 2.
    """
    if target >= 2:
        return 2.0
    lo, hi = 2.0, 2.0 ** 64
    if _gamma_lhs(hi) > target:
        raise ValueError(f"target {target} too small to bracket")
    for _ in range(200):
        mid = (lo + hi) / 2
        if _gamma_lhs(mid) >= target:
            lo = mid
        else:
            hi = mid
        assert _gamma_lhs(lo) >= target >= _gamma_lhs(hi)
    return lo


def solve_gamma(delta: float) -> float:
    """Root of the gamma-equation with right side 1 - log2(2 - delta)."""
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


def boost_ladder(levels: int, delta1: float = DEFAULT_DELTA1) -> tuple[BoostParams, ...]:
    """BoostParams for levels 1..levels; delta_{k+1} is the midpoint of the
    admissible interval (0, 2 - 2^(1 - alpha_k))."""
    if not 0 < delta1 < 1:
        raise ValueError("delta1 must lie in (0, 1)")
    out = []
    delta = delta1
    for level in range(1, levels + 1):
        gamma = solve_gamma(delta)
        alpha = 1.0 / gamma
        out.append(BoostParams(level, delta, gamma, alpha))
        delta = (2 - 2 ** (1 - alpha)) / 2
    return tuple(out)


def _pw_equation(alpha: float) -> float:
    entropy = -alpha * math.log2(alpha) - (1 - alpha) * math.log2(1 - alpha)
    return (1 - alpha) * _LOG2_189 - entropy


@lru_cache(maxsize=1)
def solve_pw_alpha() -> float:
    """Prefix share for dpw_2approx: the alpha in (0, 1/2) balancing the
    prefix-table work against 1.89^((1-alpha) n). Roughly 0.204."""
    lo, hi = 1e-9, 0.5
    assert _pw_equation(lo) > 0 > _pw_equation(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if _pw_equation(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _as_approx(rep: SolveReport, note: str) -> ApproxReport:
    return ApproxReport(rep.objective, rep.value, rep.ordering, rep.value,
                        rep.stats, rep.millis, Fraction(1), (),
                        ((note, len(rep.ordering)),))


def _sub_order(g: Digraph, vertices, solver) -> tuple[SolveReport, list[int]]:
    """Solve an induced subproblem; return the report and the ordering's
    vertex sequence mapped back to the parent labels."""
    sub, relabel = induced(g, vertices)
    rep = solver(sub)
    inv = {new: old for old, new in relabel.items()}
    return rep, [inv[v] for v in rep.ordering.seq]


def _cut_range_lb(sols: list[CutSolution], eps_cut) -> int:
    """Sum of the cuts' lower bounds (a rounded cut's value over 1+eps,
    floored). Any ordering pays at least the minimum k-cut at position k,
    for every k searched."""
    if eps_cut is None:
        return sum(s.value for s in sols)
    return sum(_floor_frac(Fraction(s.value) / (1 + Fraction(eps_cut))) for s in sols)


def _split(g: Digraph, objective: str, sols: list[CutSolution], eps_cut,
           side_solver, counters: Counters, t0: float, factor: Fraction,
           trace: tuple, orient: bool = False) -> ApproxReport:
    """The balanced-cut step: take the lightest cut in sols (the smallest k
    wins ties), solve both sides with side_solver, optionally orient them
    (undirected ola), and concatenate.

    The lower bound is the cut bound of every k searched, or the side
    optima: their sum for fas, whose value is exactly sides plus cut, and
    their maximum for cutwidth and ola.
    """
    cut = min(sols, key=lambda s: s.value)
    left = set(cut.vertices)
    right = tuple(v for v in range(g.n) if v not in left)
    rep_l, seq_l = _sub_order(g, cut.vertices, side_solver)
    rep_r, seq_r = _sub_order(g, right, side_solver)
    counters.merge(rep_l.stats)
    counters.merge(rep_r.stats)
    if orient:
        crossing = [(u, v, w) if u in left else (v, u, w)
                    for u, v, w in g.edge_items() if (u in left) != (v in left)]
        seq_l, seq_r, _ = _orient_sides(seq_l, seq_r, crossing)
    ordering = Ordering.from_sequence(seq_l + seq_r)
    value = EVALUATORS[objective](g, ordering)
    cut_lb = _cut_range_lb(sols, eps_cut)
    if objective == "fas":
        if value != rep_l.value + rep_r.value + cut.value:
            raise AssertionError("balanced split accounting is off")
        lb = max(cut_lb, rep_l.value + rep_r.value)
    else:
        lb = max(cut_lb, rep_l.value, rep_r.value)
    millis = (time.perf_counter() - t0) * 1000.0
    report = ApproxReport(objective, value, ordering, lb, counters, millis,
                          factor, (cut,), trace)
    return finish(report, g)


def fas_balanced_approx(g: Digraph, cut_eps=None) -> ApproxReport:
    """Feedback arc set within factor 2 (exact cut) or 2+eps (rounded cut;
    eps = 1 gives the weighted 3-approximation)."""
    t0 = time.perf_counter()
    n = g.n
    if n <= 2:
        return _as_approx(fas_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    k = n // 2
    cut = (dkmc_exact(g, k, counters) if cut_eps is None
           else dkmc_weighted_approx(g, k, cut_eps, counters))
    return _split(g, "fas", [cut], cut_eps, fas_exact, counters, t0,
                  2 + Fraction(cut_eps or 0), (("balanced", n, k),))


def cutwidth_balanced_approx(g: Digraph, cut_eps=None) -> ApproxReport:
    """Directed cutwidth within factor 2 (exact cut) or 2+eps (rounded)."""
    t0 = time.perf_counter()
    n = g.n
    if n <= 2:
        return _as_approx(cutwidth_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    k = n // 2
    cut = (dkmc_exact(g, k, counters) if cut_eps is None
           else dkmc_weighted_approx(g, k, cut_eps, counters))
    return _split(g, "cutwidth", [cut], cut_eps, cutwidth_exact, counters, t0,
                  2 + Fraction(cut_eps or 0), (("balanced", n, k),))


def ola_directed_approx(g: Digraph, alpha, weighted: bool = False) -> ApproxReport:
    """OLA within factor 1 + 1/(1-alpha) by trying every near-central cut:
    k in [alpha*n/2, n - alpha*n/2] (weighted: alpha/4 and a rounded cut)."""
    t0 = time.perf_counter()
    af = Fraction(alpha)
    if not 0 < af < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = g.n
    lo = max(_ceil_frac(af * n / (4 if weighted else 2)), 1)
    hi = n - lo                    # floor(n - alpha*n/2), resp. alpha*n/4
    eps_cut = af / 2 if weighted else None
    if n <= 2 or lo > hi:
        return _as_approx(ola_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    sols = list(cut_profile(g, range(lo, hi + 1), eps_cut, counters).values())
    return _split(g, "ola", sols, eps_cut, ola_exact, counters, t0,
                  1 + 1 / (1 - af), (("cut-range", lo, hi),))


def _orient_sides(seq_l: list[int], seq_r: list[int],
                  crossing: list[tuple[int, int, int]]):
    """Reversal trick: flip each side independently to shorten the crossing
    edges, pretending the far endpoint sits at the boundary position.

    crossing lists (x, y, w) with x on the left side, y on the right.
    Returns the oriented sequences and the four candidate costs
    (left fwd, left rev, right fwd, right rev).
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
    return left, right, (lf, lr, rf, rr)


def ola_undirected_approx(g: Digraph, alpha, weighted: bool = False) -> ApproxReport:
    """Undirected OLA within factor 1 + 1/(2(1-alpha)); an undirected
    ordering can be reversed per side without changing its internal cost,
    which halves the crossing-edge overhead. By that symmetry only
    k <= n/2 is searched."""
    if not g.undirected:
        raise ValueError("ola_undirected_approx needs an undirected instance")
    t0 = time.perf_counter()
    af = Fraction(alpha)
    if not 0 < af < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = g.n
    lo = max(_ceil_frac(af * n / (4 if weighted else 2)), 1)
    hi = n // 2
    eps_cut = af / 2 if weighted else None
    if n <= 2 or lo > hi:
        return _as_approx(ola_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    sols = list(cut_profile(g, range(lo, hi + 1), eps_cut, counters).values())
    return _split(g, "ola", sols, eps_cut, ola_exact, counters, t0,
                  1 + 1 / (2 * (1 - af)), (("cut-range", lo, hi),), orient=True)


def dpw_2approx(g: Digraph) -> ApproxReport:
    """Directed pathwidth within factor 2: pick the best size-round(alpha*n)
    prefix from the boundary table, solve the rest exactly."""
    t0 = time.perf_counter()
    n = g.n
    p = _round_half_up(solve_pw_alpha() * n)
    if n <= 2 or p < 1 or p >= n:
        return _as_approx(dpw_exact(g), "exact-fallback")
    counters = Counters(calls=1)
    table = dpw_prefix_table(g, p)
    counters.table_entries += table.entries
    masks, vals = table.layer(p)
    # first minimum in combinations order: of two tied p-sets that order lists
    # first the one holding the lowest vertex where they differ, which is the
    # one with the larger bit-reversed mask
    reversed_masks = sum((masks >> v & 1) << (n - 1 - v) for v in range(n))
    i = int(((vals << n) - reversed_masks).argmin())
    best_mask, best_val = int(masks[i]), int(vals[i])
    prefix_seq = list(table.order_of(best_mask))
    rest = tuple(v for v in range(n) if not best_mask >> v & 1)
    rep_c, seq_c = _sub_order(g, rest, dpw_exact)
    counters.merge(rep_c.stats)
    ordering = Ordering.from_sequence(prefix_seq + seq_c)
    value = dpw_of(g, ordering)
    if value > best_val + rep_c.value:
        raise AssertionError("dpw prefix bound violated")
    lb = max(best_val, rep_c.value)
    millis = (time.perf_counter() - t0) * 1000.0
    report = ApproxReport("dpw", value, ordering, lb, counters, millis,
                          Fraction(2), (), (("prefix", n, p),))
    return finish(report, g)


def fas_scheme(g: Digraph, eps, weighted: bool = False,
               delta1: float = DEFAULT_DELTA1) -> ApproxReport:
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
    k = _ceil_frac(Fraction(2 if weighted else 1) / eps_f)
    guards.check(k * g.n, guards.SCHEME_BUDGET, "fas_scheme level*n")
    ladder = boost_ladder(k - 1, delta1) if k >= 2 else ()
    return _fas_level(g, k, weighted, ladder)


def _fas_level(g: Digraph, level: int, weighted: bool,
               ladder: tuple[BoostParams, ...]) -> ApproxReport:
    if level <= 1:
        return fas_balanced_approx(g, cut_eps=1 if weighted else None)
    t0 = time.perf_counter()
    n = g.n
    params = ladder[level - 2]
    prefix = _round_half_up(params.alpha * n)
    if n <= 2 or prefix < 1 or prefix >= n:
        return _as_approx(fas_exact(g), f"exact-fallback-level-{level}")
    counters = Counters(calls=1)
    table = fas_table(g, prefix)
    counters.table_entries += table.entries
    subsets = list(combinations(range(n), prefix))
    a_vals = [cut_into(g, s) for s in subsets]
    star = min(range(len(subsets)), key=lambda i: a_vals[i])
    best_value = None
    best_seq = None
    best_trace = ()
    lb = 0
    for idx, sub in enumerate(subsets):
        members = set(sub)
        comp = tuple(v for v in range(n) if v not in members)
        if idx == star:
            crep, cseq = _sub_order(g, comp, fas_exact)
            comp_lb = crep.value
            ctrace = (("exact-complement", len(comp)),)
        else:
            crep, cseq = _sub_order(
                g, comp, lambda h: _fas_level(h, level - 1, weighted, ladder))
            comp_lb = crep.lower_bound
            ctrace = crep.trace if isinstance(crep, ApproxReport) else ()
        counters.merge(crep.stats)
        sub_val = table.value_of(sub)
        cand = sub_val + a_vals[idx] + crep.value
        lb = max(lb, sub_val + comp_lb)
        if best_value is None or cand < best_value:
            best_value = cand
            best_seq = list(table.order_of(sub)) + cseq
            best_trace = ctrace
    ordering = Ordering.from_sequence(best_seq)
    value = backward_weight(g, ordering)
    if value != best_value:
        raise AssertionError("scheme candidate accounting is off")
    factor = 1 + Fraction(2 if weighted else 1, level)
    millis = (time.perf_counter() - t0) * 1000.0
    report = ApproxReport("fas", value, ordering, lb, counters, millis, factor,
                          (), (("boost", level, n, prefix),) + best_trace)
    return finish(report, g)
