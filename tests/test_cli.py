"""CLI behavior: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from ordercut import Digraph, serialize_graph
from ordercut.cli import main

CYCLE3 = "p dg 3 3\na 1 2\na 2 3\na 3 1\n"
PATH4 = "p dg 4 3\na 1 2\na 2 3\na 3 4\n"


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle3.g"
    p.write_text(CYCLE3)
    return str(p)


@pytest.fixture
def detour_file(tmp_path, triangle_with_detour):
    p = tmp_path / "detour.g"
    p.write_text(serialize_graph(triangle_with_detour))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --------------------------------------------------------------------- solve

def test_solve_json_schema_with_oracle(capsys, cycle_file):
    code, out, _ = run(capsys, "solve", cycle_file, "--obj", "fas",
                       "--mode", "exact", "--oracle", "--no-timing")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["instance", "objective", "mode", "value",
                         "lower_bound", "opt", "ratio", "ordering", "stats",
                         "millis"]
    assert rec["value"] == 1 and rec["opt"] == 1 and rec["ratio"] == 1.0
    assert rec["mode"] == "exact"
    assert sorted(rec["ordering"]) == [1, 2, 3]
    assert list(rec["stats"]) == ["table_entries", "triangles", "calls"]
    assert rec["millis"] == 0.0


def test_solve_json_schema_without_oracle(capsys, cycle_file):
    code, out, _ = run(capsys, "solve", cycle_file, "--obj", "fas",
                       "--mode", "2approx", "--no-timing")
    assert code == 0
    rec = json.loads(out)
    assert "opt" not in rec and "ratio" not in rec
    assert list(rec) == ["instance", "objective", "mode", "value",
                         "lower_bound", "ordering", "stats", "millis"]


def test_solve_ratio_omitted_for_exact_zero(capsys, tmp_path):
    p = tmp_path / "dag.g"
    p.write_text(PATH4)
    code, out, _ = run(capsys, "solve", str(p), "--obj", "fas",
                       "--mode", "exact", "--oracle", "--no-timing")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 0 and rec["opt"] == 0
    assert "ratio" not in rec


def test_solve_scheme_on_detour(capsys, detour_file):
    code, out, _ = run(capsys, "solve", detour_file, "--obj", "fas",
                       "--mode", "scheme", "--eps", "0.5", "--oracle",
                       "--no-timing")
    assert code == 0
    rec = json.loads(out)
    assert rec["mode"] == "scheme(eps=1/2)"
    assert rec["value"] <= 1.5 * rec["opt"]


def test_solve_dpw_2approx_path(capsys, tmp_path):
    p = tmp_path / "path.g"
    p.write_text(PATH4)
    code, out, _ = run(capsys, "solve", str(p), "--obj", "dpw",
                       "--mode", "2approx", "--no-timing")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_solve_oracle_huge_weights(capsys, tmp_path):
    # scores beyond int64 used to raise OverflowError or wrap into a false
    # "oracle mismatch", so --oracle exited 1 with a traceback
    for obj, weights, opt in (("fas", (10 ** 40,) * 3, 10 ** 40),
                              ("ola", (2 ** 62, 2 ** 62, 2 ** 61), 2 ** 62)):
        p = tmp_path / f"{obj}.g"
        p.write_text("p dg 3 3 w\n" + "".join(
            f"a {u} {v} {w}\n" for (u, v), w in zip(((1, 2), (2, 3), (3, 1)),
                                                   weights)))
        code, out, _ = run(capsys, "solve", str(p), "--obj", obj,
                           "--mode", "exact", "--oracle", "--no-timing")
        assert code == 0, obj
        rec = json.loads(out)
        assert rec["opt"] == rec["value"] == opt


def test_solve_rounded_cut_past_the_grid(capsys, tmp_path):
    # 64-digit weights with eps = 1e-60 used to die in the cut's rounding
    # with ZeroDivisionError (exit 1); past the grid the cut is exact
    p = tmp_path / "big.g"
    p.write_text("p dg 4 5 w\n" + "".join(
        f"a {u} {v} {i}{'0' * 63}\n"
        for i, (u, v) in enumerate(((1, 2), (2, 3), (3, 1), (3, 4), (4, 2)), 1)))
    runs = [run(capsys, "solve", str(p), "--obj", "fas", "--mode", "2approx",
                *eps, "--no-timing") for eps in (("--eps", "1e-60"), ())]
    assert [code for code, _, _ in runs] == [0, 0]
    rounded, exact = (json.loads(out) for _, out, _ in runs)
    assert rounded["value"] == exact["value"]
    assert rounded["ordering"] == exact["ordering"]


def test_solve_is_byte_deterministic(capsys, detour_file):
    args = ("solve", detour_file, "--obj", "cutwidth", "--mode", "2approx",
            "--oracle", "--no-timing")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_out_flag_writes_file(capsys, cycle_file, tmp_path):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "solve", cycle_file, "--obj", "ola",
                       "--mode", "exact", "--no-timing", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == 2


# ----------------------------------------------------------------------- gen

def test_gen_deterministic_bytes(capsys):
    args = ("gen", "--n", "6", "--p", "0.5", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2 and out1.startswith("p dg 6 ")


def test_gen_extreme_p(capsys):
    _, out, _ = run(capsys, "gen", "--n", "4", "--p", "0", "--seed", "1")
    assert out == "p dg 4 0\n"
    _, out, _ = run(capsys, "gen", "--n", "4", "--p", "1", "--seed", "1")
    assert out.startswith("p dg 4 12\n")
    _, out, _ = run(capsys, "gen", "--n", "4", "--p", "1", "--ug", "--seed", "1")
    assert out.startswith("p ug 4 6\n")


def test_gen_weighted_column(capsys):
    _, out, _ = run(capsys, "gen", "--n", "3", "--p", "1", "--wmin", "2",
                    "--wmax", "5", "--seed", "3")
    head, first = out.splitlines()[:2]
    assert head == "p dg 3 6 w"
    assert len(first.split()) == 4


def test_gen_rejects_bad_p(capsys):
    code, _, err = run(capsys, "gen", "--n", "3", "--p", "1.5")
    assert code == 2 and "must lie in [0, 1]" in err


def no_alloc(*args, **kwargs):
    raise AssertionError("graph built for an oversized vertex count")


def test_gen_n_above_hard_cap_exits_4(capsys, monkeypatch):
    from ordercut import cli
    monkeypatch.setattr(cli, "gen_random", no_alloc)
    code, out, err = run(capsys, "gen", "--n", "50000000", "--p", "0")
    assert code == 4 and out == "" and "hard cap" in err


# -------------------------------------------------------------------- verify

def make_corpus(tmp_path, graphs):
    d = tmp_path / "corp"
    d.mkdir()
    for i, g in enumerate(graphs):
        (d / f"inst{i}.g").write_text(serialize_graph(g))
    return str(d)


def test_verify_passes_within_factor(capsys, tmp_path, triangle_with_detour):
    corp = make_corpus(tmp_path, [triangle_with_detour,
                                  Digraph(3, [(0, 1), (1, 2), (2, 0)])])
    code, out, err = run(capsys, "verify", corp, "--obj", "fas",
                         "--mode", "2approx", "--factor", "2", "--no-timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("instance,objective,mode,value,lower_bound,opt,ratio,"
                        "table_entries,triangles,calls,millis")
    assert len(lines) == 3
    assert lines[1].startswith("inst0.g,fas,2approx,")
    assert "0 violation(s)" in err


def test_verify_flags_violation(capsys, tmp_path, triangle_with_detour):
    # balanced answer is 2 on this graph, optimum 1: factor 1 must fail
    corp = make_corpus(tmp_path, [triangle_with_detour])
    code, out, err = run(capsys, "verify", corp, "--obj", "fas",
                         "--mode", "2approx", "--factor", "1", "--no-timing")
    assert code == 1
    assert "violation" in err
    assert out.splitlines()[1].split(",")[3] == "2"   # value column
    # an instance that fails to parse outranks the violation
    (tmp_path / "corp" / "inst1.g").write_text("p dg 2 1\na 1 5\n")
    code, out, err = run(capsys, "verify", corp, "--obj", "fas",
                         "--mode", "2approx", "--factor", "1", "--no-timing")
    assert code == 3 and "violation:" in err and len(out.splitlines()) == 2


def test_verify_compares_ratio_with_factor_exactly(capsys, tmp_path,
                                                   triangle_with_detour):
    # the exact ratio 1 lies 1e-13 above the factor: a violation
    corp = make_corpus(tmp_path, [triangle_with_detour])
    code, _, err = run(capsys, "verify", corp, "--obj", "fas", "--mode", "exact",
                       "--factor", "9999999999999/10000000000000", "--no-timing")
    assert code == 1 and "1 violation(s)" in err


def test_verify_flags_lower_bound_above_opt(capsys, tmp_path, monkeypatch,
                                            triangle_with_detour):
    from dataclasses import replace

    from ordercut import cli, perm_opt
    real = cli.fas_balanced_approx

    def overclaiming(g, cut_eps=None):
        rep = real(g, cut_eps)
        return replace(rep, lower_bound=perm_opt(g, "fas").opt + 1)

    monkeypatch.setattr(cli, "fas_balanced_approx", overclaiming)
    corp = make_corpus(tmp_path, [triangle_with_detour])
    code, out, err = run(capsys, "verify", corp, "--obj", "fas",
                         "--mode", "2approx", "--factor", "2", "--no-timing")
    assert code == 1
    assert out.splitlines()[1].split(",")[4:6] == ["2", "1"]   # lower_bound, opt
    assert err.splitlines() == ["violation: inst0.g lower_bound=2 opt=1",
                                "verify: 1 instance(s), 0 error(s), 1 violation(s)"]


def test_bench_parallel_rows_match_serial(capsys, tmp_path):
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(7, 0.5, seed=s) for s in range(4)])
    base = ("bench", corp, "--obj", "dpw", "--mode", "exact", "--mode",
            "2approx", "--no-timing")
    code1, out1, _ = run(capsys, *base, "--jobs", "1")
    code2, out2, _ = run(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 0
    assert len(out1.splitlines()) == 1 + 8 and out1 == out2


def test_verify_parallel_rows_match_serial(capsys, tmp_path):
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(6, 0.5, seed=s) for s in range(5)])
    base = ("verify", corp, "--obj", "cutwidth", "--mode", "2approx",
            "--factor", "2", "--no-timing")
    code1, out1, _ = run(capsys, *base, "--jobs", "1")
    code2, out2, _ = run(capsys, *base, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_jobs_below_one_exits_2(capsys, tmp_path):
    corp = make_corpus(tmp_path, [Digraph(3, [(0, 1)])])
    for cmd, extra in (("verify", ("--factor", "1")), ("bench", ())):
        for jobs in ("0", "-3"):
            code, out, err = run(capsys, cmd, corp, "--obj", "fas", *extra,
                                 "--jobs", jobs, "--no-timing")
            assert code == 2 and out == "" and "--jobs" in err


def test_jobs_clamped_to_tasks_and_cpus(capsys, tmp_path, monkeypatch):
    import concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    from ordercut import cli, gen_random
    seen = []

    def fake_pool(max_workers):
        # records the request; runs the tasks on threads, never processes
        seen.append(max_workers)
        return ThreadPoolExecutor(max_workers=1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fake_pool)
    corp = make_corpus(tmp_path, [gen_random(5, 0.5, seed=s) for s in range(3)])
    base = ("bench", corp, "--obj", "fas", "--no-timing")
    # the CPUs the process may run on, not those of the machine
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    _, serial, _ = run(capsys, *base)
    assert run(capsys, *base, "--jobs", "1000")[1] == serial   # 3 tasks
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(capsys, *base, "--jobs", "1000")[1] == serial   # 2 CPUs
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {1})
    assert run(capsys, *base, "--jobs", "2")[1] == serial      # serial path
    # without an affinity, the machine's count
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert run(capsys, *base, "--jobs", "1000")[1] == serial   # 2 CPUs
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(capsys, *base, "--jobs", "1000")[1] == serial   # serial path
    assert seen == [3, 2, 2]


def test_suite_reports_bad_instances_and_keeps_going(capsys, tmp_path,
                                                    monkeypatch):
    # n = 12 is over the oracle's byte guard: verify reports it and still
    # writes the other rows; bench (no oracle) solves it
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(8, 0.3, seed=1),
                                  gen_random(12, 0.3, seed=2)])
    base = ("verify", corp, "--obj", "cutwidth", "--mode", "2approx",
            "--factor", "2", "--no-timing")
    code1, out1, err1 = run(capsys, *base, "--jobs", "1")
    code2, out2, err2 = run(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 4
    assert out1 == out2 and err1 == err2
    rows = out1.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("inst0.g,cutwidth,2approx,")
    assert "error: inst1.g: size guard: oracle leaf bytes" in err1
    assert "verify: 2 instance(s), 1 error(s), 0 violation(s)" in err1
    code, out, _ = run(capsys, "bench", corp, "--obj", "cutwidth",
                       "--mode", "2approx", "--no-timing")
    assert code == 0 and len(out.splitlines()) == 3

    # a parse error exits 3; a guard hit outranks it; bench reports the
    # unparsable instance once for all its modes
    (tmp_path / "corp" / "inst2.g").write_text("p dg 2 1\na 1 5\n")
    code, out, err = run(capsys, *base)
    assert code == 4 and len(out.splitlines()) == 2
    assert "error: inst2.g: parse error: line 2" in err
    (tmp_path / "corp" / "inst1.g").unlink()
    code, out, _ = run(capsys, *base)
    assert code == 3 and len(out.splitlines()) == 2
    code, out, err = run(capsys, "bench", corp, "--obj", "fas", "--mode",
                         "exact", "--mode", "2approx", "--no-timing")
    assert code == 3 and len(out.splitlines()) == 3
    assert err.count("error: inst2.g:") == 1


def test_verify_exact_zero_column(capsys, tmp_path):
    corp = make_corpus(tmp_path, [Digraph(4, [(0, 1), (1, 2), (2, 3)])])
    code, out, _ = run(capsys, "verify", corp, "--obj", "fas",
                       "--mode", "exact", "--factor", "1", "--no-timing")
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "exact-zero"


# --------------------------------------------------------------------- bench

def test_bench_empty_corpus(capsys, tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    code, out, _ = run(capsys, "bench", str(d), "--obj", "fas", "--no-timing")
    assert code == 0
    assert out.splitlines() == [("instance,objective,mode,value,lower_bound,"
                                 "opt,ratio,table_entries,triangles,calls,"
                                 "millis")]


def test_bench_two_modes_two_rows(capsys, cycle_file):
    code, out, _ = run(capsys, "bench", cycle_file, "--obj", "fas",
                       "--mode", "exact", "--mode", "2approx", "--no-timing")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert [r.split(",")[2] for r in rows] == ["2approx", "exact"]
    assert all(r.split(",")[5] == "" and r.split(",")[6] == "" for r in rows)


def test_bench_counters_grow_with_n(capsys, tmp_path):
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(n, 0.5, seed=1) for n in (4, 6, 8)])
    code, out, _ = run(capsys, "bench", str(corp), "--obj", "fas",
                       "--mode", "exact", "--no-timing")
    assert code == 0
    entries = [int(r.split(",")[7]) for r in out.splitlines()[1:]]
    assert entries == sorted(entries) and entries[0] < entries[-1]


def test_bench_counts_the_balanced_cut_sets(capsys, tmp_path, kernel_cells):
    # the balanced cut of an even n examines the cells its one search hands
    # the kernel, at most every set of n/2 vertices; the exact DP and the
    # side solves examine none
    from math import comb
    from ordercut import gen_random
    sizes = (4, 6, 8, 10)
    corp = make_corpus(tmp_path, [gen_random(n, 0.5, seed=n) for n in sizes])
    code, out, _ = run(capsys, "bench", str(corp), "--obj", "fas",
                       "--mode", "2approx", "--mode", "exact", "--no-timing")
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()[1:]]
    cells = iter(kernel_cells.searches)
    assert [(r[2], int(r[8])) for r in rows] == [
        pair for _ in sizes for pair in (("2approx", next(cells)), ("exact", 0))]
    assert len(kernel_cells.searches) == len(sizes)
    assert all(0 < c <= comb(n, n // 2) for c, n in zip(kernel_cells.searches, sizes))


def test_csv_quotes_a_mode_with_two_flags(capsys, tmp_path):
    # a mode naming two flags holds a comma, so it is quoted and every row
    # reads back as the header's 11 fields; other cells are written bare
    import csv
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(8, 0.4, weight_range=(1, 9), seed=1)])
    for flags, mode in ((["--obj", "ola", "--mode", "2approx", "--alpha", "1/2",
                          "--weighted"], "2approx(alpha=1/2,weighted)"),
                        (["--obj", "fas", "--mode", "scheme", "--eps", "1",
                          "--weighted"], "scheme(eps=1,weighted)")):
        code, out, _ = run(capsys, "verify", corp, *flags, "--factor", "3",
                           "--no-timing")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(r) for r in rows] == [11, 11] and rows[1][2] == mode
        assert out.splitlines()[1].startswith(f'inst0.g,{rows[1][1]},"{mode}",')


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys, cycle_file):
    cases = [
        ("solve", cycle_file, "--obj", "fas", "--mode", "exact", "--eps", "1"),
        ("solve", cycle_file, "--obj", "dpw", "--mode", "2approx", "--weighted"),
        ("solve", cycle_file, "--obj", "cutwidth", "--mode", "scheme",
         "--eps", "1"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "scheme"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "3approx", "--eps", "1"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "2approx",
         "--alpha", "0.5"),
        ("solve", cycle_file, "--obj", "ola", "--mode", "2approx",
         "--eps", "0.5"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "2approx", "--eps", "0"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "2approx",
         "--eps", "-1"),
        ("solve", cycle_file, "--obj", "fas", "--mode", "scheme", "--eps", "-1"),
        ("solve", cycle_file, "--obj", "ola", "--mode", "2approx",
         "--alpha", "2"),
        ("solve", cycle_file, "--obj", "ola", "--mode", "2approx",
         "--alpha", "0"),
        # rejected before the (missing) instance is read, so not exit 3
        ("solve", cycle_file + ".missing", "--obj", "ola", "--mode", "2approx",
         "--alpha", "1"),
        ("verify", cycle_file, "--obj", "fas", "--mode", "2approx",
         "--eps", "0", "--factor", "2"),
        ("bench", cycle_file, "--obj", "ola", "--mode", "2approx",
         "--alpha", "3/2"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["gen", "--n", "0", "--p", "0.5"], "error: --n must be positive"),
    (["gen", "--n", "3", "--p", "0.5", "--wmin", "3", "--wmax", "1"],
     "error: need 0 <= --wmin <= --wmax"),
    (["solve", "{cycle}", "--obj", "fas", "--mode", "2approx", "--eps", "abc"],
     "error: --eps must be a rational number"),
    (["bench", "{tmp}/missing", "--obj", "fas"],
     "error: corpus path '{tmp}/missing' is neither a file nor a directory"),
    (["gen", "--n", "3", "--p", "0.5", "--out", "{tmp}/missing/g.g"], "io error: "),
])
def test_input_checks_exit_2(capsys, cycle_file, tmp_path, argv, message):
    def fill(text):
        return text.format(cycle=cycle_file, tmp=tmp_path)
    code, out, err = run(capsys, *map(fill, argv))
    assert code == 2 and out == "" and err.startswith(fill(message))


# Every --obj x --mode x subset of {--eps 1/2, --alpha 1/3, --weighted}:
# the accepted combinations and their mode labels; all others exit 2.
ACCEPTED = {
    ("fas", "exact", ()): "exact",
    ("cutwidth", "exact", ()): "exact",
    ("ola", "exact", ()): "exact",
    ("dpw", "exact", ()): "exact",
    ("fas", "2approx", ()): "2approx",
    ("fas", "2approx", ("--eps",)): "2approx(eps=1/2)",
    ("fas", "3approx", ()): "3approx",
    ("fas", "scheme", ("--eps",)): "scheme(eps=1/2)",
    ("fas", "scheme", ("--eps", "--weighted")): "scheme(eps=1/2,weighted)",
    ("cutwidth", "2approx", ()): "2approx",
    ("cutwidth", "2approx", ("--eps",)): "2approx(eps=1/2)",
    ("cutwidth", "3approx", ()): "3approx",
    ("ola", "2approx", ()): "2approx(alpha=1/2)",
    ("ola", "2approx", ("--alpha",)): "2approx(alpha=1/3)",
    ("ola", "2approx", ("--weighted",)): "2approx(alpha=1/2,weighted)",
    ("ola", "2approx", ("--alpha", "--weighted")): "2approx(alpha=1/3,weighted)",
    ("dpw", "2approx", ()): "2approx",
}
FLAG_ARGS = {"--eps": ("--eps", "1/2"), "--alpha": ("--alpha", "1/3"),
             "--weighted": ("--weighted",)}


@pytest.mark.parametrize("flags", [
    flags for r in range(4) for flags in combinations(FLAG_ARGS, r)])
@pytest.mark.parametrize("mode", ["exact", "2approx", "3approx", "scheme"])
@pytest.mark.parametrize("obj", ["fas", "cutwidth", "ola", "dpw"])
def test_flag_matrix(capsys, cycle_file, obj, mode, flags):
    extra = [arg for flag in flags for arg in FLAG_ARGS[flag]]
    code, out, err = run(capsys, "solve", cycle_file, "--obj", obj,
                         "--mode", mode, *extra, "--no-timing")
    label = ACCEPTED.get((obj, mode, flags))
    if label is None:
        assert code == 2 and out == "" and err.startswith("error:")
    else:
        assert code == 0 and json.loads(out)["mode"] == label


def test_huge_header_exits_4(capsys, tmp_path, monkeypatch):
    from ordercut import instance_io
    monkeypatch.setattr(instance_io, "Digraph", no_alloc)
    p = tmp_path / "huge.g"
    p.write_text("p dg 50000000 0\n")
    code, _, err = run(capsys, "solve", str(p), "--obj", "fas")
    assert code == 4 and "hard cap" in err


def test_parse_error_exits_3(capsys, tmp_path):
    p = tmp_path / "broken.g"
    p.write_text("p dg 2 1\na 1 5\n")
    code, _, err = run(capsys, "solve", str(p), "--obj", "fas")
    assert code == 3 and "parse error" in err


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.g"), "--obj", "fas")
    assert code == 3


UNDECODABLE = b"p dg 3 1\xff\na 1 2\n"


def test_undecodable_file_exits_3(capsys, tmp_path):
    p = tmp_path / "latin1.g"
    p.write_bytes(UNDECODABLE)
    code, out, err = run(capsys, "solve", str(p), "--obj", "fas")
    assert code == 3 and out == ""
    assert err == (f"parse error: {p}: not UTF-8 text "
                   "(invalid start byte at byte 8)\n")


def test_suite_reports_undecodable_file(capsys, tmp_path):
    from ordercut import gen_random
    corp = make_corpus(tmp_path, [gen_random(8, 0.3, seed=1)])
    (tmp_path / "corp" / "inst1.g").write_bytes(UNDECODABLE)
    for argv in (("verify", corp, "--obj", "fas", "--mode", "2approx",
                  "--factor", "2", "--no-timing"),
                 ("bench", corp, "--obj", "fas", "--mode", "2approx",
                  "--no-timing")):
        code1, out1, err1 = run(capsys, *argv, "--jobs", "1")
        code2, out2, err2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 3
        assert out1 == out2 and err1 == err2
        rows = out1.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("inst0.g,fas,2approx,")
        errors = [line for line in err1.splitlines() if line.startswith("error:")]
        assert errors == [f"error: inst1.g: parse error: {corp}/inst1.g: not "
                          "UTF-8 text (invalid start byte at byte 8)"]


def test_pair_matrix_guard_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    from ordercut import gen_random
    p = tmp_path / "wide.g"
    p.write_text(serialize_graph(gen_random(
        26, 0.3, weight_range=(10 ** 3999, 10 ** 4000 - 1), seed=1)))
    code, out, err = run(capsys, "solve", str(p), "--obj", "fas",
                         "--mode", "2approx")
    assert code == 4 and out == "" and "cut pair matrix bytes" in err


def test_guard_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ORDERCUT_GUARD_OVERRIDE", raising=False)
    from ordercut import gen_random
    p = tmp_path / "big.g"
    p.write_text(serialize_graph(gen_random(12, 0.3, seed=1)))
    code, _, err = run(capsys, "solve", str(p), "--obj", "fas",
                       "--mode", "exact", "--oracle")
    assert code == 4 and "size guard" in err


# exponents and digit runs past the interpreter's digit limit (4,300 by
# default) are refused before Fraction expands them; 1e-4300's denominator,
# of 4,301 digits, after it. No message echoes an over-long value whole.
@pytest.mark.parametrize("flag,value", [
    ("--eps", "1e-5000"), ("--eps", "1e-10000000"), ("--eps", "1e-100000000"),
    ("--eps", "1e1000000000"), ("--eps", "1e-4300"), ("--alpha", "1e-4400"),
    ("--factor", "1e-5000"),
    pytest.param("--eps", "0." + "0" * 4999 + "1", id="--eps-5001-digit-decimal"),
    pytest.param("--eps", "1/" + "7" * 5000, id="--eps-5000-digit-denominator"),
    pytest.param("--eps", "9" * 4401, id="--eps-4401-digit-integer"),
    pytest.param("--eps", "x" * 10000, id="--eps-10000-characters")])
def test_rational_past_the_digit_limit_exits_2(capsys, cycle_file, flag, value):
    obj = "ola" if flag == "--alpha" else "fas"
    cmd, mode = ("verify", "exact") if flag == "--factor" else ("solve", "2approx")
    start = time.perf_counter()
    code, out, err = run(capsys, cmd, cycle_file, "--obj", obj, "--mode", mode,
                         flag, value)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith(f"error: {flag} ")
    assert "Traceback" not in err and len(err.encode()) < 200
    if value.replace(".", "").replace("/", "").isdigit():   # an over-long number
        assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_rational_within_the_digit_limit(capsys, cycle_file):
    # a denominator of 4,300 digits prints in the mode label; with the
    # limit lifted (0), so does one of 5,001
    code, out, _ = run(capsys, "solve", cycle_file, "--obj", "fas",
                       "--mode", "2approx", "--eps", "1e-4299", "--no-timing")
    assert code == 0 and json.loads(out)["mode"] == f"2approx(eps=1/{10 ** 4299})"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, "solve", cycle_file, "--obj", "fas",
                           "--mode", "2approx", "--eps", "1e-5000", "--no-timing")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0


def test_weights_past_the_digit_limit_exit_3(capsys, tmp_path):
    # 4,299-digit weights parse, but n * total arc weight, the largest value
    # an output field can hold, has more digits than the interpreter prints
    w = 10 ** 4299 - 1
    arcs = [(u, v) for u in range(12) for v in range(12) if u != v]
    p = tmp_path / "wide.g"
    p.write_text(serialize_graph(Digraph(12, arcs, dict.fromkeys(arcs, w))))
    for obj in ("fas", "cutwidth", "ola", "dpw"):
        code, out, err = run(capsys, "solve", str(p), "--obj", obj,
                             "--mode", "2approx")
        assert code == 3 and out == ""
        assert err == (f"parse error: {p}: n * total arc weight has more "
                       "than 4300 digits\n")


def test_unknown_mode_token_exits_2(capsys, cycle_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", cycle_file, "--obj", "fas", "--mode", "approx"])
    assert exc.value.code == 2


def test_one_parser_per_process(tmp_path):
    # A usage error, a rejected flag, a help page and a solve in one process
    # print the same bytes and exit codes as each in a fresh process, and
    # the parser is built once.
    cycle = tmp_path / "cycle3.g"
    cycle.write_text(CYCLE3)
    sequence = [
        ["solve", str(cycle), "--obj", "fas", "--mode", "approx"],
        ["solve", str(cycle), "--obj", "fas", "--mode", "exact", "--eps", "1"],
        ["verify", "--help"],
        ["solve", str(cycle), "--obj", "fas", "--mode", "2approx", "--oracle",
         "--no-timing"],
    ]
    script = """if True:
        import contextlib, io, json, sys
        from ordercut import cli
        runs = []
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            runs.append([code, out.getvalue(), err.getvalue()])
        print(json.dumps([runs, cli._build_parser.cache_info().misses]))
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    one = subprocess.run([sys.executable, "-c", script, json.dumps(sequence)],
                         capture_output=True, text=True, env=env, check=True)
    runs, built = json.loads(one.stdout)
    fresh = [subprocess.run([sys.executable, "-m", "ordercut", *argv],
                            capture_output=True, text=True, env=env)
             for argv in sequence]
    assert runs == [[p.returncode, p.stdout, p.stderr] for p in fresh]
    assert [code for code, _, _ in runs] == [2, 2, 0, 0]
    assert built == 1


def test_import_leaves_the_process_pool_out():
    # only a suite with more than one worker imports concurrent.futures
    script = ("import sys, ordercut.cli; "
              "print('concurrent.futures' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True)
    assert run.stdout == "False\n"
