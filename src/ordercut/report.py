"""Solver results: one report type, built and checked by finish()."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .graph import EVALUATORS, Digraph, Ordering


@dataclass
class Counters:
    """Work counters carried by every report, its sub-solves' merged in:
    table_entries, the subset-table entries built; triangles, the cells the
    pruned cut search examined (kept rows * r2 * r3 over the splits it
    visited, at most C(n, k) for each k searched, 0 for the exact DPs); calls,
    the solver calls."""

    table_entries: int = 0
    triangles: int = 0
    calls: int = 0

    def merge(self, other: "Counters") -> None:
        self.table_entries += other.table_entries
        self.triangles += other.triangles
        self.calls += other.calls

    def as_dict(self) -> dict[str, int]:
        return {"table_entries": self.table_entries,
                "triangles": self.triangles,
                "calls": self.calls}


@dataclass
class SolveReport:
    """An ordering, the objective value it achieves, and bookkeeping.

    value is the matching evaluator applied to the ordering, once, by
    finish(). Approximations also carry their factor (an exact Fraction,
    1 for exact solves), the chosen cuts and a trace of what ran.
    """

    objective: str
    value: int
    ordering: Ordering
    lower_bound: int | None
    stats: Counters
    millis: float
    factor: Fraction = Fraction(1)
    cuts: tuple = ()
    trace: tuple = ()


def finish(g: Digraph, objective: str, seq, lower_bound: int | None,
           stats: Counters, t0: float, claim: int | None = None,
           factor: Fraction = Fraction(1), cuts: tuple = (),
           trace: tuple = ()) -> SolveReport:
    """The report of the ordering seq (vertices by position): evaluate it
    once, check the solver's own account of the value (claim) when it has
    one, and stamp the milliseconds since t0."""
    ordering = Ordering.from_sequence(seq)
    value = EVALUATORS[objective](g, ordering)
    if claim is not None and claim != value:
        raise AssertionError(f"{objective} solver claimed {claim} but its "
                             f"ordering achieves {value}")
    millis = (time.perf_counter() - t0) * 1000.0
    return SolveReport(objective, value, ordering, lower_bound, stats, millis,
                       factor, cuts, trace)
