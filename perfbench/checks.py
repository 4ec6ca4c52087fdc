"""Result checks that do not trust the code under test.

Each objective is re-evaluated from the returned ordering with the
benchmark's own evaluator, written from the objective definitions in the
README rather than taken from ordercut.graph.EVALUATORS. Bounds are compared
with exact Fractions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from workloads import Instance, Op, factor, lb_certifies


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: value, lower bound, 1-indexed positions,
    and the oracle optimum when the operation asked for it."""

    value: int
    lower_bound: int
    pos: tuple[int, ...]
    opt: int | None = None

    def digest(self) -> str:
        return hashlib.sha256(",".join(map(str, self.pos)).encode()).hexdigest()[:16]

    def key(self) -> list:
        """The fields pinned for the default seed."""
        return [self.value, self.lower_bound, self.digest(), self.opt]


def evaluate(inst: Instance, objective: str, pos: tuple[int, ...]) -> int:
    """Objective value of the ordering pos (pos[v] = 1-indexed position)."""
    arcs = list(inst.arcs)
    if inst.undirected:
        arcs += [(v, u, w) for u, v, w in inst.arcs]
    back = [(pos[u], pos[v], w) for u, v, w in arcs if pos[u] > pos[v]]
    if objective == "fas":
        return sum(w for _, _, w in back)
    if objective == "ola":
        return sum(w * (pu - pv) for pu, pv, w in back)
    cuts = range(1, inst.n)
    if objective == "cutwidth":
        return max((sum(w for pu, pv, w in back if pu > i >= pv) for i in cuts),
                   default=0)
    if objective == "dpw":
        latest = [0] * inst.n
        for u, v, _ in arcs:
            latest[v] = max(latest[v], pos[u])
        return max((sum(1 for v in range(inst.n) if pos[v] <= i < latest[v])
                    for i in cuts), default=0)
    raise ValueError(f"unknown objective {objective!r}")


def check(inst: Instance, op: Op, out: Outcome) -> tuple[list[str], bool]:
    """Problems found in out, and whether value > factor * lower_bound.

    The second flag is a failure only for modes whose lower bound certifies
    the factor (workloads.lb_certifies); elsewhere it is counted.
    """
    problems = []
    if sorted(out.pos) != list(range(1, inst.n + 1)):
        return [f"{op.name}: ordering is not a permutation of 1..{inst.n}"], False
    actual = evaluate(inst, op.objective, out.pos)
    if actual != out.value:
        problems.append(f"{op.name}: reported {out.value}, ordering gives {actual}")
    lb, value = out.lower_bound, out.value
    f = factor(op, inst.undirected)
    if not 0 <= lb <= value:
        problems.append(f"{op.name}: lower bound {lb} outside 0..{value}")
    if op.mode == "exact" and lb != value:
        problems.append(f"{op.name}: exact mode but lower bound {lb} != {value}")
    cert_miss = Fraction(value) > f * lb
    if cert_miss and lb_certifies(op):
        problems.append(f"{op.name}: value {value} > {f} * lower bound {lb}")
    if out.opt is not None:
        opt = out.opt
        if not lb <= opt <= value <= f * opt:
            problems.append(f"{op.name}: need {lb} <= opt {opt} <= {value} "
                            f"<= {f} * opt")
        if op.mode == "exact" and value != opt:
            problems.append(f"{op.name}: exact mode {value} != opt {opt}")
    return problems, cert_miss


def gap(out: Outcome) -> Fraction | None:
    """value / lower_bound, 0/0 = 1; None when only the bound is zero."""
    if out.lower_bound == 0:
        return Fraction(1) if out.value == 0 else None
    return Fraction(out.value, out.lower_bound)
