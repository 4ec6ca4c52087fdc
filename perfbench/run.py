"""ordercut benchmark: one workload per call, printed as metrics with units.

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a source checkout; ordercut is imported from ./src.
The parent runs the workload in a fresh child process, so peak RSS is that
workload's alone, and samples set-up time in fresh set-up-only children
before and after it. With --trace 0 it prints the end-to-end metrics; with
--trace 1 the child follows the timed passes with one more pass in which
every public function of the layer modules is wrapped in spans, and the
per-layer metrics are printed. The last stdout line is one JSON object:
correct, attempted, failed, metrics. Exit code 0 only when every operation
passed its checks. perfbench/README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (OUT_DIR, REFERENCE_S, Harness, pinned, same_outputs,
                     time_reference)
from spans import Tracer, rollup
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 170          # every process started here ends within this
SETUP_SAMPLES = 3       # set-up-only children before and after the workload child


END_TO_END_UNITS = {"setup_s": "s", "solves_per_s": "ops/s",
                    "solve_s_p50": "s", "peak_rss_mb": "MB", "gap_mean": "ratio"}


def unit(name: str) -> str:
    """Unit of a printed metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if "ns_per" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_reuse")):
        return "ratio"
    return "count"


def pin_quietest_cpu(cpus: list[int]) -> str:
    """Pin this process, and so every child it starts, to the CPU on which
    harness.reference_work runs fastest. On a shared machine one virtual CPU
    can run far slower than another for minutes; without a pin a run's speed
    depends on where the scheduler puts it. The parent pins before starting
    children; the workload child pins again before every pass."""
    if len(cpus) < 2:
        return "cpu pinning unavailable"
    best = {cpu: math.inf for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best[cpu], time_reference() / 1e6)
    chosen = min(cpus, key=best.get)
    os.sched_setaffinity(0, {chosen})
    probes = ", ".join(f"cpu{c} {best[c]:.2f} ms" for c in cpus)
    return f"pinned to cpu{chosen} (probe: {probes})"


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _timed_passes(h, seconds: float, cpus: list[int]):
    """Whole passes until the next one would end after `seconds` (at least
    one), so every operation is sampled equally often. Each pass starts on
    the CPU that is quietest at that moment."""
    passes = []
    start = time.perf_counter()
    while True:
        pin_quietest_cpu(cpus)
        passes.append(h.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed


def measure(h, seconds: float, trace: bool, cpus: list[int] = ()) -> dict:
    """Timed passes, their checks, and with `trace` one traced pass."""
    passes, wall = _timed_passes(h, seconds, list(cpus))
    first = passes[0][1]
    review = h.review(first)
    failed = list(review["failed"])
    for _, outs, _ in passes[1:]:
        for i, same in enumerate(same_outputs(first, outs)):
            if not same and not failed[i]:
                review["problems"].append(
                    f"{h.workload.ops[i].name}: output changed between passes")
                failed[i] = True
    res = {
        "attempted": len(first) * len(passes), "failed": sum(failed) * len(passes),
        "op_ns": [t for times, _, _ in passes for t in times],
        "ref_ns": [r for _, _, refs in passes for r in refs],
        "wall_s": wall, "passes": len(passes), "ops_per_pass": len(first),
        "gap_mean": review["gap_mean"], "cert_miss": review["cert_miss"],
        "zero_lb": review["zero_lb"], "problems": review["problems"],
    }
    if trace:
        res["layers"] = _traced_pass(h, first, res)
    return res


def _traced_pass(h, first: list, res: dict) -> dict:
    """One more pass with spans recorded; its outputs must not change."""
    tracer = Tracer()
    tracer.install()
    try:
        times, outs, _ = h.run_pass(tracer)
    finally:
        tracer.uninstall()
    changed = [i for i, same in enumerate(same_outputs(first, outs)) if not same]
    res["attempted"] += len(outs)
    res["failed"] += len(changed)
    res["problems"] += [f"{h.workload.ops[i].name}: traced output differs"
                        for i in changed]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{h.workload.name}.jsonl")
    layers = rollup(tracer.spans)
    untraced_ns = sum(res["op_ns"]) / res["passes"]
    layers["trace.overhead_frac"] = sum(times) / untraced_ns - 1
    layers["trace.ops"] = len(outs)
    layers["oracle.position_matrix_s"] = h.position_matrix_s
    layers["check.cert_miss_ops"] = res["cert_miss"]
    layers["check.zero_lb_ops"] = res["zero_lb"]
    return layers


def metrics(res: dict, setups: list[float], trace: bool) -> dict[str, float]:
    """The printed metrics: per-layer when traced, else end to end."""
    if trace:
        return res["layers"]
    per_op = _scaled(res)
    good = (res["attempted"] - res["failed"]) / res["passes"]
    return {
        "setup_s": statistics.median(setups),
        "solves_per_s": good / sum(per_op),
        "solve_s_p50": statistics.median(per_op),
        "peak_rss_mb": res["rss_kib"] / 1024,
        "gap_mean": res["gap_mean"],
    }


def _harness(args) -> Harness:
    return Harness(ROOT, build(args.workload, args.seed),
                   pinned(args.workload, args.seed))


def child_run(args) -> dict:
    """The workload process: set up, then measure."""
    h = _harness(args)
    try:
        h.setup()
        ready = time.monotonic()
        res = measure(h, args.seconds, bool(args.trace),
                      [int(c) for c in args.cpus.split(",") if c])
        res["ready"] = ready         # the first pass times the reference next
        res["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return res
    finally:
        h.close()


def child_setup(args) -> tuple[float, int]:
    """Monotonic time when set-up ended, and reference_work's ns right after."""
    h = _harness(args)
    try:
        h.setup()
        return time.monotonic(), time_reference()
    finally:
        h.close()


def _child(args, role: str, cpus: list[int], deadline: float) -> tuple[float, str]:
    """Start a fresh child for `role`; return its start time and stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cpus", ",".join(map(str, cpus))]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return started, proc.stdout.strip().splitlines()[-1]


def _scaled(res: dict) -> list[float]:
    """Per operation, the median over the passes of its wall time scaled to
    reference speed: wall * REFERENCE_S / (reference_work timed just before)."""
    ops = res["ops_per_pass"]
    scaled = [t * REFERENCE_S / r for t, r in zip(res["op_ns"], res["ref_ns"])]
    return [statistics.median(scaled[i::ops]) for i in range(ops)]


def _percentile_line(res: dict) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    values = sorted(_scaled(res))
    n = len(values)
    wall = statistics.median(res["op_ns"]) / 1e9
    line = (f"solve_s_p50 {statistics.median(values):.6f} s over {n} operations, "
            f"each the median of {res['passes']} pass(es); unscaled wall "
            f"median {wall:.6f} s")
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        line += f"; p{pct} {values[int(n * pct / 100)]:.6f} s"
    return line


def parent(args, cpus: list[int]) -> int:
    if not (ROOT / "src" / "ordercut" / "__init__.py").is_file():
        print(f"no ordercut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(pin_quietest_cpu(cpus))
    deadline = time.monotonic() + BUDGET_S
    setups = []

    def sample_setup():
        # Samples on both sides of the timed phase, so one slow spell of the
        # shared machine does not set the median.
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            started, line = _child(args, "setup", cpus, deadline)
            ready, ref = line.split()
            setups.append((float(ready) - started) * REFERENCE_S * 1e9 / int(ref))

    try:
        sample_setup()
        started, line = _child(args, "run", cpus, deadline)
        res = json.loads(line)
        setups.append((res["ready"] - started) * REFERENCE_S * 1e9 / res["ref_ns"][0])
        sample_setup()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in res["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {res['passes']} pass(es) of "
          f"{res['ops_per_pass']} operations in {res['wall_s']:.2f} s; "
          f"{res['cert_miss']} operation(s) with value > factor * lower_bound "
          f"(counted, not failed, where the bound does not certify the "
          f"factor); {res['zero_lb']} with lower_bound 0 < value")
    found = metrics(res, setups, bool(args.trace))
    if not args.trace:
        print(_percentile_line(res))
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, value in found.items():
        print(f"  {name:32s} {value:>16.6f} {unit(name)}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in found.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    ap.add_argument("--cpus", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child == "setup":
        ready, ref = child_setup(args)
        print(f"{ready!r} {ref}")
        return 0
    if args.child == "run":
        print(json.dumps(child_run(args)))
        return 0
    cpus = allowed_cpus()
    if args.workload != "all":
        return parent(args, cpus)
    codes = [parent(argparse.Namespace(**{**vars(args), "workload": name}), cpus)
             for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
