"""Seeded instances and operation lists for the three benchmark workloads.

The benchmark draws its own graphs with its own RNG instead of calling
ordercut.gen_random, so a change to the library's generator cannot silently
change what is measured. Instances are serialized to the instance text format
once, during set-up; every operation then parses that text again, as
`ordercut solve` does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Instance:
    """A graph as the benchmark owns it: arcs (u, v, w), 0-indexed, one entry
    per edge when undirected."""

    n: int
    undirected: bool
    weighted: bool
    arcs: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        head = f"p {'ug' if self.undirected else 'dg'} {self.n} {len(self.arcs)}"
        lines = [head + (" w" if self.weighted else "")]
        for u, v, w in self.arcs:
            lines.append(f"a {u + 1} {v + 1} {w}" if self.weighted
                         else f"a {u + 1} {v + 1}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One (instance, objective, mode) solve, as `ordercut solve` runs it."""

    name: str
    instance: int
    objective: str
    mode: str                      # exact | 2approx | 3approx | scheme
    eps: Fraction | None = None
    alpha: Fraction | None = None
    weighted: bool = False

    def cli_flags(self) -> list[str]:
        flags = ["--obj", self.objective, "--mode", self.mode]
        if self.eps is not None:
            flags += ["--eps", str(self.eps)]
        if self.alpha is not None:
            flags += ["--alpha", str(self.alpha)]
        if self.weighted:
            flags.append("--weighted")
        return flags


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    ops: tuple[Op, ...]
    via_cli: bool                  # run through cli.main with --oracle


def random_instance(rng: random.Random, n: int, density: float,
                    undirected: bool, weighted: bool) -> Instance:
    """Exactly round(density * pairs) arcs on distinct ordered pairs
    (unordered when undirected), weights uniform in 1..1000 when weighted.
    A fixed arc count keeps the work per instance from varying with the seed
    as much as it would with independent coin flips."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1 if undirected else 0, n)
             if u != v]
    chosen = sorted(rng.sample(pairs, round(density * len(pairs))))
    return Instance(n, undirected, weighted, tuple(
        (u, v, rng.randint(1, 1000) if weighted else 1) for u, v in chosen))


def factor(op: Op, undirected: bool) -> Fraction:
    """Approximation factor each mode promises against the optimum, taken
    from the algorithms' statements rather than from the reports."""
    if op.mode == "exact":
        return Fraction(1)
    if op.mode == "scheme":
        top = 2 if op.weighted else 1
        return 1 + Fraction(top, math.ceil(top / op.eps))
    if op.objective in ("fas", "cutwidth"):
        eps = Fraction(1) if op.mode == "3approx" else op.eps
        return 2 + (eps or 0)
    if op.objective == "ola":
        alpha = op.alpha if op.alpha is not None else HALF
        return 1 + 1 / ((2 if undirected else 1) * (1 - alpha))
    return Fraction(2)             # dpw 2approx


def lb_certifies(op: Op) -> bool:
    """Modes whose reported lower bound alone proves value <= factor * lb:
    exact solves, the exact-cut balanced splits (value <= sides + cut, each
    a lower bound) and dpw's prefix split. The rounded-cut, ola and scheme
    bounds are floored or partial, so there the factor is only checked
    against a true optimum."""
    return (op.mode == "exact"
            or (op.mode == "2approx" and op.eps is None
                and op.objective in ("fas", "cutwidth", "dpw")))


# (objective, mode, params, n, undirected, weighted): one solve per row,
# each on its own instance.
_EXACT_DP = (
    ("fas", "exact", {}, 17, False, False),
    ("fas", "exact", {}, 16, False, True),      # weighted: no popcount path
    ("ola", "exact", {}, 17, False, False),
    ("cutwidth", "exact", {}, 17, False, False),
    ("dpw", "exact", {}, 17, False, False),
    ("dpw", "2approx", {}, 20, False, False),   # capped prefix table
    ("dpw", "2approx", {}, 20, False, False),
)

# Sizes chosen so every solve but the scheme takes about the same time, which
# keeps the median operation inside one cluster of samples and a pass short.
_CUT_APPROX = (
    ("fas", "2approx", {}, 21, False, False),
    ("fas", "3approx", {}, 21, False, True),
    ("cutwidth", "2approx", {}, 21, True, False),
    ("cutwidth", "3approx", {}, 21, False, True),
    ("ola", "2approx", {"alpha": HALF}, 18, False, False),
    ("ola", "2approx", {"alpha": HALF, "weighted": True}, 17, False, True),
    ("ola", "2approx", {"alpha": HALF}, 19, True, False),
    # n = 18 is the smallest size at which the boost level runs instead of
    # falling back to fas_exact (prefix round(alpha_1 * n) >= 1).
    ("fas", "scheme", {"eps": HALF}, 18, False, False),
)

_SPECS = {
    "exact-dp": _EXACT_DP,
    "cut-approx": _CUT_APPROX,
}

# verify-small: every valid objective x mode of the CLI on each instance.
_VERIFY_MODES = (
    ("fas", "exact", {}), ("cutwidth", "exact", {}),
    ("ola", "exact", {}), ("dpw", "exact", {}),
    ("fas", "2approx", {}), ("fas", "2approx", {"eps": HALF}),
    ("fas", "3approx", {}), ("fas", "scheme", {"eps": HALF}),
    ("cutwidth", "2approx", {}), ("cutwidth", "2approx", {"eps": HALF}),
    ("cutwidth", "3approx", {}),
    ("ola", "2approx", {}), ("ola", "2approx", {"alpha": Fraction(1, 3)}),
    ("dpw", "2approx", {}),
)
_VERIFY_WEIGHTED_MODES = (
    ("fas", "scheme", {"eps": Fraction(1), "weighted": True}),
    ("ola", "2approx", {"weighted": True}),
)
# Mostly n = 8, so the n! oracle does not swamp the rest: one n = 9 instance
# costs about as much as nine n = 8 ones.
VERIFY_SIZES = (8, 8, 8, 8, 8, 9, 8, 8, 8, 8, 8, 8)


def _label(objective, mode, params, inst: Instance, index: int) -> str:
    kind = ("ug" if inst.undirected else "dg") + ("w" if inst.weighted else "")
    extra = "".join(f",{k}={v}" for k, v in sorted(params.items()))
    return f"{objective}/{mode}{extra}/{kind}{inst.n}/i{index}"


def build(name: str, seed: int) -> Workload:
    """The workload's instances and operations for this seed."""
    rng = random.Random(f"ordercut-bench:{name}:{seed}")
    instances: list[Instance] = []
    ops: list[Op] = []

    def add(objective, mode, params, inst_index):
        inst = instances[inst_index]
        ops.append(Op(_label(objective, mode, params, inst, inst_index),
                      inst_index, objective, mode, **params))

    if name == "verify-small":
        kinds = ((False, False), (False, True), (True, False), (True, True))
        for i, n in enumerate(VERIFY_SIZES):
            undirected, weighted = kinds[i % len(kinds)]
            instances.append(random_instance(rng, n, 0.35, undirected, weighted))
            modes = _VERIFY_MODES + (_VERIFY_WEIGHTED_MODES if weighted else ())
            for objective, mode, params in modes:
                add(objective, mode, params, i)
        return Workload(name, tuple(instances), tuple(ops), via_cli=True)
    if name not in _SPECS:
        raise ValueError(f"unknown workload {name!r}")
    for objective, mode, params, n, undirected, weighted in _SPECS[name]:
        instances.append(random_instance(rng, n, 0.3, undirected, weighted))
        add(objective, mode, params, len(instances) - 1)
    return Workload(name, tuple(instances), tuple(ops), via_cli=False)


WORKLOADS = ("exact-dp", "cut-approx", "verify-small")
