"""One workload inside one process: set-up, timed passes, checks.

A pass runs every operation of the workload once, in order, in a closed loop
with one client: each operation starts when the previous one ends. An
operation is what `ordercut solve` does for one (instance, objective, mode):
parse the instance text, call the solver, check the result. verify-small
goes through cli.main itself (with --oracle) and captures stdout in memory;
the other workloads call the solver functions directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from checks import Outcome, check, gap
from workloads import DEFAULT_SEED, Op, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
PINNED = HERE / "expected" / f"seed{DEFAULT_SEED}.json"
REFERENCE_S = 2.7e-3                # reference_work on the measuring machine, quiet
REFERENCE_EVERY_NS = 200_000_000    # how often a pass re-times reference_work


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solvers' inner loops: a subset
    DP over a dict and a nested list build. It never changes with ordercut,
    so its time tracks only how fast the shared machine runs Python now."""
    table = {0: 0}
    for mask in range(1, 1 << 11):
        best = -1
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            cand = table[mask ^ bit] + (mask & 0x5A5).bit_count()
            if best < 0 or cand < best:
                best = cand
        table[mask] = best
    rows = [[(i * j) % 7 for j in range(40)] for i in range(40)]
    return sum(map(sum, rows)) + len(table)


def time_reference() -> int:
    """Wall ns of one reference_work call."""
    t0 = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - t0


def pinned(name: str, seed: int) -> list | None:
    """[op name, value, lower bound, ordering digest, opt] per operation,
    committed for the default seed only."""
    if seed != DEFAULT_SEED or not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text(encoding="utf-8"))[name]


def import_ordercut(root: Path):
    """Import ordercut from root/src, never from an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import ordercut
    import ordercut.cli
    if Path(ordercut.__file__).resolve().parent != (src / "ordercut").resolve():
        raise ImportError(f"ordercut imported from {ordercut.__file__}, not {src}")
    return ordercut


def solve(oc, op: Op, g):
    """Call the solver the CLI would dispatch to, looked up at call time so
    that traced wrappers are used when installed."""
    if op.mode == "exact":
        return getattr(oc.subset_dp, f"{op.objective}_exact")(g)
    b = oc.balanced
    cut_eps = Fraction(1) if op.mode == "3approx" else op.eps
    if op.objective == "fas":
        if op.mode == "scheme":
            return b.fas_scheme(g, op.eps, weighted=op.weighted)
        return b.fas_balanced_approx(g, cut_eps=cut_eps)
    if op.objective == "cutwidth":
        return b.cutwidth_balanced_approx(g, cut_eps=cut_eps)
    if op.objective == "ola":
        alpha = op.alpha if op.alpha is not None else Fraction(1, 2)
        fn = b.ola_undirected_approx if g.undirected else b.ola_directed_approx
        return fn(g, alpha, weighted=op.weighted)
    return b.dpw_2approx(g)


class Harness:
    """Owns one workload's inputs, its instance files and the solver module."""

    def __init__(self, root: Path, workload: Workload, pins: list | None = None):
        self.root = root
        self.workload = workload
        self.pins = pins
        self.oc = None
        self.texts: list[str] = []
        self.paths: list[str] = []
        self.work_dir: Path | None = None
        self.position_matrix_s = 0.0

    def setup(self) -> None:
        """Import, generate, serialize, and fill lazy caches."""
        self.oc = import_ordercut(self.root)
        self.texts = [inst.text() for inst in self.workload.instances]
        if self.workload.via_cli:
            self.work_dir = OUT_DIR / f"work-{os.getpid()}"
            self.work_dir.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(self.texts):
                path = self.work_dir / f"i{i:03d}.g"
                path.write_text(text, encoding="utf-8")
                self.paths.append(str(path))
            t0 = time.perf_counter()
            for n in sorted({inst.n for inst in self.workload.instances}):
                self.oc.oracle._position_matrix(n)
            self.position_matrix_s = time.perf_counter() - t0

    def close(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None

    def run_op(self, op: Op) -> Outcome:
        if not self.workload.via_cli:
            g = self.oc.instance_io.parse_graph(self.texts[op.instance])
            rep = solve(self.oc, op, g)
            return Outcome(rep.value, rep.lower_bound, tuple(rep.ordering.pos))
        argv = ["solve", self.paths[op.instance], *op.cli_flags(),
                "--oracle", "--no-timing"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.oc.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ordercut solve exited with code {code}")
        rec = json.loads(buf.getvalue())
        return Outcome(rec["value"], rec["lower_bound"], tuple(rec["ordering"]),
                       rec["opt"])

    def run_pass(self, tracer=None) -> tuple[list[int], list, list[int]]:
        """Every operation once: per-operation wall ns, outcome (or the
        exception it raised), and the wall ns of the reference_work timed
        last before it (untraced passes re-time it every 0.2 s)."""
        times, outcomes, refs = [], [], []
        clock = time.perf_counter_ns
        ref, ref_at = 0, -REFERENCE_EVERY_NS
        for i, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = i
            elif clock() - ref_at >= REFERENCE_EVERY_NS:
                ref = time_reference()
                ref_at = clock()
            refs.append(ref)
            t0 = clock()
            try:
                out = self.run_op(op)
            except Exception as exc:   # a failed operation is counted, the run goes on
                out = exc
                traceback.print_exc(file=sys.stderr)
            times.append(clock() - t0)
            outcomes.append(out)
        return times, outcomes, refs

    def review(self, outcomes: list) -> dict:
        """Check one pass: own re-evaluation, bounds, and the pinned outputs
        when running the default seed."""
        problems = []
        cert_miss = zero_lb = 0
        gaps = []
        failed = [False] * len(outcomes)
        expected = self.pins
        if expected is not None:
            if [e[0] for e in expected] != [op.name for op in self.workload.ops]:
                problems.append("operation list differs from the pinned list")
                failed = [True] * len(outcomes)
                expected = None
        for i, (op, out) in enumerate(zip(self.workload.ops, outcomes)):
            if isinstance(out, Exception):
                problems.append(f"{op.name}: {type(out).__name__}: {out}")
                failed[i] = True
                continue
            found, miss = check(self.workload.instances[op.instance], op, out)
            if expected is not None and expected[i][1:] != out.key():
                found.append(f"{op.name}: {out.key()} != pinned {expected[i][1:]}")
            problems += found
            failed[i] = failed[i] or bool(found)
            cert_miss += miss
            g = gap(out)
            if g is None:
                zero_lb += 1
            else:
                gaps.append(g)
        gap_mean = float(sum(gaps) / len(gaps)) if gaps else 1.0
        return {"problems": problems, "failed": failed, "gap_mean": gap_mean,
                "cert_miss": cert_miss, "zero_lb": zero_lb}


def same_outputs(first: list, other: list) -> list[bool]:
    """Per operation: did a later pass return exactly what the first did?"""
    return [isinstance(a, Outcome) and a == b for a, b in zip(first, other)]
