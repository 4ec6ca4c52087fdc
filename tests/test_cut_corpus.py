"""Pinned cut searches: for each search of a seeded corpus, the chosen set L
and value of every k searched and the cells the search examined
(`triangles`) must reproduce the committed text exactly.

The corpus runs `cut_profile` on `gen_random` graphs, directed and
undirected, n = 4..22, with unit weights, weights 1..1000 and (n <= 12)
weights of 2^62 and more (Python-int pair matrices), each exact and at
eps = 1, 1/2 and 1/10, over k = n/2 and over every k = 1..n-1; stacked
`_cut_profiles` over graphs of one vertex count with mixed weights; and
n = 26 and 32 at k = n/2, exact and at eps = 1.

Regenerate the golden file, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_cut_corpus.py
"""

import sys
from fractions import Fraction
from pathlib import Path

from ordercut import Counters, cut_profile, gen_random, kcut

GOLDEN = Path(__file__).with_name("golden_cut_corpus.txt")

EPS = (None, Fraction(1), Fraction(1, 2), Fraction(1, 10))
WEIGHTS = {"unit": (1, 1), "w1000": (1, 1000), "huge": (2 ** 62, 2 ** 64)}


def lone_cases():
    """(name, graph, ks, eps) of every lone search."""
    for n in range(4, 23):
        for undirected in (False, True):
            for label, weights in WEIGHTS.items():
                if label == "huge" and n > 12:
                    continue
                g = gen_random(n, 0.3, weight_range=weights, seed=n,
                               undirected=undirected)
                name = f"{'ug' if undirected else 'dg'}{n} {label}"
                for eps in EPS:
                    yield f"{name} k=n/2", g, [n // 2], eps
                    yield f"{name} k=1..n-1", g, range(1, n), eps
    for n in (26, 32):
        for label in ("unit", "w1000"):
            g = gen_random(n, 0.3, weight_range=WEIGHTS[label], seed=n)
            for eps in EPS[:2]:
                yield f"dg{n} {label} k=n/2", g, [n // 2], eps


def stacked_cases():
    """(name, graphs, ks, eps) of every stacked search: graphs of one
    vertex count, each weight class twice, interleaved."""
    for n in (5, 9, 12):
        graphs = [gen_random(n, 0.4, weight_range=weights, seed=100 + n + i)
                  for i in range(2) for weights in WEIGHTS.values()]
        for eps in EPS[:3]:
            yield f"stack{n} k=n/2", graphs, [n // 2], eps
            yield f"stack{n} k=1..n-1", graphs, range(1, n), eps


def line(name, eps, ks, profile, triangles) -> str:
    cuts = " ".join(f"{k}:{','.join(map(str, cut.vertices))}={cut.value}"
                    for k, cut in profile.items())
    assert list(profile) == list(ks)
    return f"{name} eps={eps}: triangles={triangles} {cuts}\n"


def render() -> str:
    out = []
    for name, g, ks, eps in lone_cases():
        counters = Counters()
        profile = cut_profile(g, ks, eps, counters)
        out.append(line(name, eps, ks, profile, counters.triangles))
    for name, graphs, ks, eps in stacked_cases():
        counters = [Counters() for _ in graphs]
        profiles = kcut._cut_profiles(graphs, ks, eps, counters)
        out.extend(line(f"{name} #{i}", eps, ks, profile, c.triangles)
                   for i, (profile, c) in enumerate(zip(profiles, counters)))
    return "".join(out)


def test_cut_searches_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
