"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Outcome, check, evaluate  # noqa: E402
from harness import PINNED, Harness  # noqa: E402
from run import measure, metrics, unit  # noqa: E402
from spans import Tracer, rollup  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Instance, Op,  # noqa: E402
                       Workload, build, random_instance)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(via_cli: bool) -> Workload:
    rng = random.Random(7)
    instances = (random_instance(rng, 6, 0.5, False, False),
                 random_instance(rng, 7, 0.5, True, True))
    ops = (Op("fas-exact", 0, "fas", "exact"),
           Op("fas-2", 0, "fas", "2approx"),
           Op("ola-u", 1, "ola", "2approx"),
           Op("dpw-2", 0, "dpw", "2approx"),
           Op("cw-3", 1, "cutwidth", "3approx"))
    return Workload("tiny", instances, ops, via_cli)


@pytest.fixture(params=[False, True], ids=["library", "cli"])
def harness(request):
    h = Harness(ROOT, tiny(request.param))
    h.setup()
    yield h
    h.close()


def test_printed_metrics_are_declared_with_units(harness):
    res = measure(harness, 0.0, trace=True)
    assert res["failed"] == 0, res["problems"]
    res["rss_kib"] = 1
    assert len(res["ref_ns"]) == len(res["op_ns"]) and min(res["ref_ns"]) > 0
    end_to_end = metrics(res, [0.1], trace=False)
    layers = metrics(res, [], trace=True)
    declared_e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {name: unit(name) for name in end_to_end} == declared_e2e
    assert {name: unit(name) for name in layers} == declared_layers
    assert all(value > 0 for value in end_to_end.values())
    if harness.workload.via_cli:
        assert layers["oracle.calls"] == len(harness.workload.ops)
        assert layers["cli.self_s"] > 0
    assert layers["kcut.calls"] > 0 and layers["subset_dp.calls"] > 0


def test_wrong_value_is_caught(harness, monkeypatch):
    real = harness.oc.subset_dp.fas_exact

    def fake(g):
        rep = real(g)
        return dataclasses.replace(rep, value=rep.value + 1,
                                   lower_bound=rep.value + 1)

    monkeypatch.setattr(harness.oc.subset_dp, "fas_exact", fake)
    monkeypatch.setitem(harness.oc.cli._EXACT, "fas", fake)
    review = harness.review(harness.run_pass()[1])
    assert review["failed"][0] and not any(review["failed"][1:])
    assert review["problems"][0].startswith("fas-exact: ")


def test_broken_certificate_is_caught(harness, monkeypatch):
    real = harness.oc.balanced.fas_balanced_approx

    def fake(g, cut_eps=None):
        rep = real(g, cut_eps)
        return dataclasses.replace(rep, lower_bound=0)

    monkeypatch.setattr(harness.oc.balanced, "fas_balanced_approx", fake)
    monkeypatch.setattr(harness.oc.cli, "fas_balanced_approx", fake)
    review = harness.review(harness.run_pass()[1])
    assert review["failed"][1]
    assert any("lower bound 0" in p for p in review["problems"])


def test_wrong_oracle_optimum_is_caught(monkeypatch):
    h = Harness(ROOT, tiny(True))
    h.setup()
    try:
        real = h.oc.cli.perm_opt

        def fake(g, objective):
            res = real(g, objective)
            return dataclasses.replace(res, opt=res.opt + 10 ** 6)

        monkeypatch.setattr(h.oc.cli, "perm_opt", fake)
        review = h.review(h.run_pass()[1])
    finally:
        h.close()
    assert all(review["failed"])


def test_check_rejects_bad_orderings():
    inst = Instance(3, False, False, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    op = Op("cycle", 0, "fas", "exact")
    assert check(inst, op, Outcome(1, 1, (1, 2, 3))) == ([], False)
    assert check(inst, op, Outcome(1, 1, (1, 1, 3)))[0]
    assert check(inst, op, Outcome(0, 0, (1, 2, 3)))[0]
    approx = Op("cycle2", 0, "fas", "2approx")
    problems, miss = check(inst, approx, Outcome(1, 0, (1, 2, 3)))
    assert miss and problems
    rounded = Op("cycle3", 0, "fas", "3approx")
    assert check(inst, rounded, Outcome(1, 0, (1, 2, 3))) == ([], True)
    assert check(inst, rounded, Outcome(1, 0, (1, 2, 3), opt=0))[0]


def test_own_evaluator_on_known_orderings():
    # two paths 0->1->2 and 0->3->4->5->2 plus the chord 4->1 (README example)
    arcs = ((0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1), (5, 2, 1),
            (4, 1, 1))
    inst = Instance(6, False, False, arcs)
    ident = (1, 2, 3, 4, 5, 6)
    assert evaluate(inst, "fas", ident) == 2
    assert evaluate(inst, "ola", ident) == 6
    assert evaluate(inst, "cutwidth", ident) == 2
    assert evaluate(inst, "dpw", ident) == 2
    edge = Instance(2, True, True, ((0, 1, 5),))
    assert [evaluate(edge, obj, (2, 1)) for obj in ("fas", "ola", "cutwidth", "dpw")] \
        == [5, 5, 5, 1]


def test_same_seed_same_operations_and_outputs():
    for name in WORKLOADS:
        assert build(name, 5) == build(name, 5)
        assert build(name, 5).instances != build(name, 6).instances
    outs = []
    for _ in range(2):
        h = Harness(ROOT, tiny(False))
        h.setup()
        try:
            outs.append(h.run_pass()[1])
        finally:
            h.close()
    assert outs[0] == outs[1]


def test_pins_match_default_seed_operation_lists():
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    for name in WORKLOADS:
        ops = build(name, DEFAULT_SEED).ops
        assert [row[0] for row in pins[name]] == [op.name for op in ops]


def test_tracer_wraps_every_alias_and_restores():
    h = Harness(ROOT, tiny(False))
    h.setup()
    oc = h.oc
    originals = (oc.cli._EXACT["fas"], oc.graph.EVALUATORS["ola"],
                 oc.balanced.fas_exact, oc.subset_dp.fas_table)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (oc.cli._EXACT["fas"], oc.graph.EVALUATORS["ola"],
                   oc.balanced.fas_exact, oc.subset_dp.fas_table)
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(wrapped, originals))
        oc.subset_dp.fas_exact(oc.graph.Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    finally:
        tracer.uninstall()
    assert (oc.cli._EXACT["fas"], oc.graph.EVALUATORS["ola"],
            oc.balanced.fas_exact, oc.subset_dp.fas_table) == originals
    # fas_exact -> fas_table (via the module global) and finish -> evaluator
    names = [(s[0], s[1], s[4]) for s in tracer.spans]
    assert names == [("subset_dp", "fas_exact", -1), ("subset_dp", "fas_table", 0),
                     ("report", "finish", 0), ("graph", "backward_weight", 2)]


def test_rollup_subtracts_child_time():
    spans = [
        ["balanced", "fas_balanced_approx", 0, 1000, -1, 0, (0, False)],
        ["subset_dp", "fas_exact", 100, 400, 0, 0, 8],
        ["subset_dp", "fas_table", 150, 350, 1, 0, (8, False)],
        ["subset_dp", "dpw_prefix_table", 500, 600, 0, 0, (4, True)],
    ]
    out = rollup(spans)
    assert out["balanced.self_s"] == pytest.approx(600e-9)
    assert out["subset_dp.self_s"] == pytest.approx(400e-9)
    assert out["subset_dp.table_entries"] == 8
    assert out["subset_dp.ns_per_entry"] == pytest.approx(300 / 8)
    assert out["subset_dp.capped_ns_per_entry"] == pytest.approx(100 / 4)
    assert out["balanced.side_solves"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-dp", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_factor_table_matches_paper_statements():
    from workloads import factor
    half = Fraction(1, 2)
    assert factor(Op("a", 0, "fas", "scheme", eps=half), False) == Fraction(3, 2)
    assert factor(Op("b", 0, "fas", "scheme", eps=Fraction(1), weighted=True),
                  False) == 2
    assert factor(Op("c", 0, "ola", "2approx"), False) == 3
    assert factor(Op("d", 0, "ola", "2approx"), True) == 2
    assert factor(Op("e", 0, "cutwidth", "2approx", eps=half), False) == Fraction(5, 2)
    assert factor(Op("f", 0, "fas", "3approx"), False) == 3
