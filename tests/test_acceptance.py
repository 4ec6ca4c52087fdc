"""Acceptance gate.

Each test covers one release criterion end to end and prints a single
PASS/FAIL line (visible with `pytest -s`, or in the captured output).
Ratio checks compare exact rationals with no slack; the only slack is the
stated wall-clock budgets.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from ordercut import (EVALUATORS, Digraph, Ordering, backward_weight,
                      cut_into, cutwidth_balanced_approx, cutwidth_exact,
                      dkmc_exact, dkmc_weighted_approx,
                      dpw_2approx, dpw_exact, fas_balanced_approx, fas_exact,
                      fas_scheme, fas_table, gamma_for_target, gen_random,
                      kcut, ola_directed_approx, ola_exact,
                      ola_undirected_approx, perm_opt, serialize_graph,
                      solve_pw_alpha, tripartition)
from ordercut.balanced import _gamma_lhs

from conftest import (PATHS_WITH_CHORD, TRIANGLE_WITH_DETOUR, cut_at,
                      dkmc_oracle, identity, reverse)

EXACT = {"fas": fas_exact, "cutwidth": cutwidth_exact,
         "ola": ola_exact, "dpw": dpw_exact}


def announce(name, budget_s, started, detail):
    elapsed = time.perf_counter() - started
    ok = elapsed < budget_s
    line = f"{'PASS' if ok else 'FAIL'}: {name} — {detail} [{elapsed:.1f}s / {budget_s}s]"
    print(line)
    assert ok, line


def test_exact_dps_match_oracle():
    started = time.perf_counter()
    graphs = [gen_random(4 + i % 5, (0.2, 0.5, 0.8)[i % 3],
                         weight_range=(1, 1) if i % 2 == 0 else (1, 1000),
                         seed=1000 + i) for i in range(200)]
    # n = 9 directed and undirected, unit and 1..1000 weights; and one
    # n = 10 graph
    graphs += [gen_random(9, 0.4, weight_range=wr, seed=1200 + s,
                          undirected=undirected)
               for s, (wr, undirected)
               in enumerate(product(((1, 1), (1, 1000)), (False, True)))]
    graphs.append(gen_random(10, 0.4, weight_range=(1, 1000), seed=1210))
    for i, g in enumerate(graphs):
        for obj in EXACT:
            rep = EXACT[obj](g)
            assert rep.value == perm_opt(g, obj).opt, (i, obj)
            assert EVALUATORS[obj](g, rep.ordering) == rep.value, (i, obj)
    announce("exact DPs ≡ brute force", 60, started,
             f"4 objectives on {len(graphs)} graphs, n in 4..10")


def test_kcut_matches_oracle():
    started = time.perf_counter()
    pairs = 0
    for n in range(5, 16):
        for s in range(3):
            wr = (1, 10 ** 6) if s else (1, 1)
            g = gen_random(n, 0.45, weight_range=wr, seed=2000 + 10 * n + s)
            for k in range(n + 1):
                a = dkmc_exact(g, k)
                b = dkmc_oracle(g, k)
                assert a.value == b.value, (n, s, k)
                assert cut_into(g, a.vertices) == a.value
                assert len(a.vertices) == k
                pairs += 1
    assert pairs >= 300
    announce("(k, n-k)-cut ≡ enumeration", 120, started,
             f"{pairs} (G,k) pairs, n in 5..15, weights to 1e6")


def test_weighted_kcut_rounding():
    started = time.perf_counter()
    cases = 0
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        for n in (6, 8, 10, 12):
            for s in range(3):
                g = gen_random(n, 0.5, weight_range=(1, 10 ** 9),
                               seed=3000 + 10 * n + s)
                for k in {n // 3, n // 2, n - 2}:
                    opt = dkmc_oracle(g, k).value
                    sol = dkmc_weighted_approx(g, k, eps)
                    assert Fraction(opt) <= Fraction(sol.value) <= (1 + eps) * opt
                    cases += 1
    # near-zero eps with small weights must round nothing at all
    for n in (6, 9, 12):
        g = gen_random(n, 0.5, weight_range=(1, 1000), seed=3500 + n)
        for k in (n // 3, n // 2):
            assert (dkmc_weighted_approx(g, k, Fraction(1, 10 ** 9)).value
                    == dkmc_oracle(g, k).value)
            cases += 1
    announce("rounded weighted cuts within (1+eps), exact rationals", 60,
             started, f"{cases} cases, eps in {{0.1, 0.5, 1.0, 1e-9}}")


def test_approx_ratio_certificates():
    started = time.perf_counter()
    half = Fraction(1, 2)
    suites = [
        ("fas 2approx", "fas", Fraction(2), 90, (1, 1), False,
         lambda g: fas_balanced_approx(g)),
        ("fas 3approx weighted", "fas", Fraction(3), 60, (1, 50), False,
         lambda g: fas_balanced_approx(g, cut_eps=1)),
        ("fas scheme eps=1/2", "fas", Fraction(3, 2), 60, (1, 1), False,
         lambda g: fas_scheme(g, half)),
        ("fas scheme eps=1/3", "fas", Fraction(4, 3), 60, (1, 1), False,
         lambda g: fas_scheme(g, Fraction(1, 3))),
        ("cutwidth 2approx", "cutwidth", Fraction(2), 60, (1, 1), False,
         lambda g: cutwidth_balanced_approx(g)),
        ("cutwidth 2.5approx weighted", "cutwidth", Fraction(5, 2), 50,
         (1, 50), False, lambda g: cutwidth_balanced_approx(g, cut_eps=half)),
        ("ola directed alpha=1/2", "ola", Fraction(3), 60, (1, 1), False,
         lambda g: ola_directed_approx(g, half)),
        ("ola undirected alpha=1/2", "ola", Fraction(2), 60, (1, 1), True,
         lambda g: ola_undirected_approx(g, half)),
        ("dpw 2approx", "dpw", Fraction(2), 60, (1, 1), False,
         lambda g: dpw_2approx(g)),
    ]
    sizes = (5, 5, 6, 6, 7, 7, 8, 9)   # skew small, still touch n=9
    total = 0
    worst = {}
    for si, (name, obj, factor, count, wr, ug, solver) in enumerate(suites):
        top = Fraction(0)
        for i in range(count):
            n = sizes[i % len(sizes)]
            p = (0.3, 0.5, 0.7)[i % 3]
            g = gen_random(n, p, weight_range=wr, undirected=ug,
                           seed=4000 + 97 * si + i)
            rep = solver(g)
            opt = perm_opt(g, obj).opt
            assert rep.value >= opt, (name, i)
            if opt:
                ratio = Fraction(rep.value, opt)
                assert ratio <= factor, (name, i, ratio)
                top = max(top, ratio)
            else:
                assert rep.value == 0, (name, i)
            total += 1
        worst[name] = top
    # the scheme's recursive level really runs when the prefix share is wide
    for i in range(12):
        g = gen_random(9, 0.5, seed=4900 + i)
        rep = fas_scheme(g, half, delta1=0.9)
        opt = perm_opt(g, "fas").opt
        assert rep.value >= opt
        if opt:
            assert Fraction(rep.value, opt) <= Fraction(3, 2)
        total += 1
    assert total >= 500
    digest = "; ".join(f"{k}<= {float(v):.3f}" for k, v in worst.items())
    announce("approximation ratios certified", 600, started,
             f"{total} instances — worst ratios: {digest}")


def test_reference_anchor_values():
    started = time.perf_counter()
    g1 = Digraph(6, PATHS_WITH_CHORD)
    ident = identity(6)
    arcs1, w1 = cut_at(g1, ident, 1)
    arcs3, w3 = cut_at(g1, ident, 3)
    assert (w1, w3) == (0, 2)
    assert all(ident.pos[u] - ident.pos[v] == 3 for u, v in arcs3)

    g2 = Digraph(6, TRIANGLE_WITH_DETOUR)
    assert fas_exact(g2).value == 1
    assert perm_opt(g2, "fas").opt == 1
    assert fas_balanced_approx(g2).value <= 2

    assert _gamma_lhs(2.0) == 2.0
    for target in (1.9, 1.0, 0.86, 0.25):
        root = gamma_for_target(target)
        assert abs(_gamma_lhs(root) - target) <= 1e-9

    alpha = solve_pw_alpha()
    assert abs(alpha - 0.204) <= 1e-3
    assert (1 - alpha) * math.log2(1.89) <= math.log2(1.66) + 0.005
    announce("reference anchor values", 60, started,
             "evaluator cuts/stretches, detour-graph optimum, "
             f"gamma residuals <= 1e-9, alpha={alpha:.4f}")


def _cli(*argv, env=None):
    proc = subprocess.run([sys.executable, "-m", "ordercut", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_structural_invariants_and_cli_determinism(tmp_path):
    started = time.perf_counter()
    import random
    rng = random.Random(6)

    for i in range(60):
        n = 2 + i % 7
        g = gen_random(n, 0.5, weight_range=(1, 9), seed=5000 + i)
        seq = list(range(n))
        rng.shuffle(seq)
        o = Ordering.from_sequence(seq)
        assert (backward_weight(g, o) + backward_weight(g, reverse(o))
                == g.total_arc_weight)
        stretch_sum = sum(w * (o.pos[u] - o.pos[v])
                          for u, v, w in g.arc_items if o.pos[u] > o.pos[v])
        assert EVALUATORS["ola"](g, o) == stretch_sum
        assert stretch_sum == sum(cut_at(g, o, i)[1] for i in range(1, n))

    for n in (5, 7, 9):
        g = gen_random(n, 0.55, weight_range=(1, 6), seed=5100 + n)
        parts = tripartition(n)
        matrices = kcut._PairMatrices([g], parts)
        for k in range(n + 1):
            seen = []   # L of every triangle of every split of k
            for k1 in range(min(k, len(parts[0])) + 1):
                for k2 in range(min(k - k1, len(parts[1])) + 1):
                    k3 = k - k1 - k2
                    if not 0 <= k3 <= len(parts[2]):
                        continue
                    rows = [r[size] for r, size in zip(matrices.rows, (k1, k2, k3))]
                    e01, e02, e12 = matrices.blocks(rows)
                    for js in product(*map(range, e01.shape), range(e12.shape[1])):
                        j1, j2, j3 = js
                        seen.append(matrices.members(rows, js))
                        stored = e01[j1, j2] + e02[j1, j3] + e12[j2, j3]
                        assert stored == 2 * cut_into(g, seen[-1])
            assert sorted(seen) == list(combinations(range(n), k))

    for seed in (21, 22):
        g = gen_random(8, 0.5, weight_range=(1, 5), seed=seed)
        tbl = fas_table(g)
        for mask in range(1, 1 << 8):
            assert tbl.value_of(mask) >= tbl.value_of(mask ^ (mask & -mask))

    # CLI byte-determinism, serial vs parallel included
    env = {k: v for k, v in os.environ.items() if k != "ORDERCUT_GUARD_OVERRIDE"}
    corp = tmp_path / "corp"
    corp.mkdir()
    for s in range(6):
        (corp / f"i{s}.g").write_text(
            serialize_graph(gen_random(7, 0.5, seed=6000 + s)))
    inst = str(corp / "i0.g")
    solve_args = ("solve", inst, "--obj", "fas", "--mode", "2approx",
                  "--oracle", "--no-timing")
    c1, out1 = _cli(*solve_args, env=env)
    c2, out2 = _cli(*solve_args, env=env)
    assert c1 == c2 == 0 and out1 == out2
    assert json.loads(out1)["ratio"] >= 1.0

    verify_args = ("verify", str(corp), "--obj", "cutwidth", "--mode",
                   "2approx", "--factor", "2", "--no-timing")
    v1, vout1 = _cli(*verify_args, "--jobs", "1", env=env)
    v2, vout2 = _cli(*verify_args, "--jobs", "4", env=env)
    assert v1 == v2 == 0 and vout1 == vout2

    b1, bout1 = _cli("bench", str(corp), "--obj", "dpw", "--mode", "exact",
                     "--mode", "2approx", "--no-timing", env=env)
    b2, bout2 = _cli("bench", str(corp), "--obj", "dpw", "--mode", "exact",
                     "--mode", "2approx", "--no-timing", env=env)
    assert b1 == b2 == 0 and bout1 == bout2
    assert len(bout1.splitlines()) == 13   # header + 6 instances x 2 modes

    announce("structural invariants + byte-deterministic CLI", 120, started,
             "orderings, triangle bijection, table monotonicity, "
             "serial==parallel output")
