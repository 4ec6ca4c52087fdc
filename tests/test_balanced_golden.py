"""Golden reports of the balanced-cut solvers and the boosted fas scheme:
every field but the wall-clock `millis` (value, lower bound, ordering,
factor, cuts, trace and counters) must reproduce the committed text
exactly, on seeded directed and undirected graphs with both cut modes, both
ola rounding modes, the scheme's boost level, and the exact fallbacks
(n <= 2, and a cut range that rounds to nothing).

Regenerate the golden file, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_balanced_golden.py
"""

import sys
from fractions import Fraction
from pathlib import Path

from ordercut import (Digraph, cutwidth_balanced_approx, fas_balanced_approx,
                      fas_scheme, gen_random, ola_directed_approx,
                      ola_undirected_approx)

GOLDEN = Path(__file__).with_name("golden_balanced_reports.txt")

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

# (name, n, p, weight range, undirected, seed)
INSTANCES = (
    ("dg7", 7, 0.4, (1, 1), False, 31),
    ("dgw9", 9, 0.35, (1, 50), False, 32),
    ("dg12", 12, 0.3, (1, 1), False, 33),
    ("ug8", 8, 0.4, (1, 1), True, 34),
    ("ugw10", 10, 0.35, (1, 1000), True, 35),
    ("ug11", 11, 0.3, (1, 1), True, 36),
)

SPLITS = (
    ("fas_balanced_approx", lambda g: fas_balanced_approx(g)),
    ("fas_balanced_approx(1/2)", lambda g: fas_balanced_approx(g, HALF)),
    ("fas_balanced_approx(1)", lambda g: fas_balanced_approx(g, 1)),
    ("cutwidth_balanced_approx", lambda g: cutwidth_balanced_approx(g)),
    ("cutwidth_balanced_approx(1/2)",
     lambda g: cutwidth_balanced_approx(g, HALF)),
    ("cutwidth_balanced_approx(1)", lambda g: cutwidth_balanced_approx(g, 1)),
    ("ola_directed_approx(1/2)", lambda g: ola_directed_approx(g, HALF)),
    ("ola_directed_approx(1/3)", lambda g: ola_directed_approx(g, THIRD)),
    ("ola_directed_approx(1/2,weighted)",
     lambda g: ola_directed_approx(g, HALF, weighted=True)),
    ("ola_directed_approx(1/3,weighted)",
     lambda g: ola_directed_approx(g, THIRD, weighted=True)),
)

UNDIRECTED = (
    ("ola_undirected_approx(1/2)", lambda g: ola_undirected_approx(g, HALF)),
    ("ola_undirected_approx(1/3)", lambda g: ola_undirected_approx(g, THIRD)),
    ("ola_undirected_approx(1/2,weighted)",
     lambda g: ola_undirected_approx(g, HALF, weighted=True)),
    ("ola_undirected_approx(1/3,weighted)",
     lambda g: ola_undirected_approx(g, THIRD, weighted=True)),
)

# The scheme at its boost level. At n = 18 the default ladder pairs each of
# 18 one-vertex prefixes with a 17-vertex complement, solved at level 1 (the
# balanced split) but for the cheapest prefix's, solved exactly; delta1 =
# 0.9 at n = 10 gives 45 two-vertex prefixes, whose 44 level-1 complements
# of 8 vertices split 4 + 4.
SCHEMES = (
    ("fas_scheme(1/2)", lambda g: fas_scheme(g, HALF)),
    ("fas_scheme(1,weighted)", lambda g: fas_scheme(g, 1, weighted=True)),
)
DELTA_SCHEMES = (
    ("fas_scheme(1/2,delta1=0.9)",
     lambda g: fas_scheme(g, HALF, delta1=0.9)),
    ("fas_scheme(1,weighted,delta1=0.9)",
     lambda g: fas_scheme(g, 1, weighted=True, delta1=0.9)),
)
SCHEME_INSTANCES = (
    ("dg18", 18, 0.3, (1, 1), 37, SCHEMES),
    ("dgw18", 18, 0.3, (1, 1000), 38, SCHEMES),
    ("dg10", 10, 0.4, (1, 1), 39, DELTA_SCHEMES),
    ("dgw10", 10, 0.4, (1, 1000), 40, DELTA_SCHEMES),
)

# Exact fallbacks: n <= 2, and alpha = 9/10 at n = 3, where the directed
# range [2, 1] and the undirected range [2, 1] are empty.
FALLBACKS = (
    ("dg2", Digraph(2, [(0, 1), (1, 0)], {(0, 1): 3, (1, 0): 2}), SPLITS),
    ("ug2", Digraph(2, [(0, 1)], undirected=True), SPLITS + UNDIRECTED),
    ("dg3", Digraph(3, [(0, 1), (1, 2), (2, 0)]),
     (("ola_directed_approx(9/10)",
       lambda g: ola_directed_approx(g, Fraction(9, 10))),)),
    ("ug3", Digraph(3, [(0, 1), (1, 2)], undirected=True),
     (("ola_undirected_approx(9/10)",
       lambda g: ola_undirected_approx(g, Fraction(9, 10))),)),
)


def fields(rep) -> tuple:
    return (rep.value, rep.lower_bound, rep.ordering.pos, rep.factor,
            rep.cuts, rep.trace, rep.stats.as_dict())


def cases():
    for name, n, p, weights, undirected, seed in INSTANCES:
        g = gen_random(n, p, weight_range=weights, seed=seed,
                       undirected=undirected)
        yield name, g, SPLITS + (UNDIRECTED if undirected else ())
    for name, n, p, weights, seed, solvers in SCHEME_INSTANCES:
        yield name, gen_random(n, p, weight_range=weights, seed=seed), solvers
    yield from FALLBACKS


def render() -> str:
    return "".join(f"{name} {label}: {fields(solve(g))!r}\n"
                   for name, g, solvers in cases() for label, solve in solvers)


def test_balanced_reports_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
