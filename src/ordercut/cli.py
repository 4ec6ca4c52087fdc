"""Command-line front end.

Four subcommands: `solve` one instance to a JSON record, `gen` seeded
random instances, `verify` a corpus against the brute-force oracle, each
row holding lower_bound <= opt <= value <= factor * opt for the declared
factor (exit 1 on any violation), and `bench` a corpus without oracles.
Both suites share one runner; their rows are sorted by instance id so
--jobs never changes the emitted bytes. --no-timing zeroes the wall-clock
field for byte-reproducible output.

Exit codes: 0 ok, 1 verify violation, 2 usage, 3 instance parse error,
4 size guard exceeded. In `verify` and `bench` an instance that fails to
parse or hits a guard is reported on stderr and the other rows are still
written; the exit code is then 4 if any instance hit a guard, else 3.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

from .balanced import (cutwidth_balanced_approx, dpw_2approx, fas_balanced_approx,
                       fas_scheme, ola_directed_approx, ola_undirected_approx)
from .graph import OBJECTIVES, Digraph, gen_random
from .guards import SizeGuardError, check_universe, value_bound
from .instance_io import ParseError, _shown, parse_graph, serialize_graph
from .oracle import perm_opt
from .subset_dp import cutwidth_exact, dpw_exact, fas_exact, ola_exact

CSV_HEADER = ("instance,objective,mode,value,lower_bound,opt,ratio,"
              "table_entries,triangles,calls,millis")

_EXACT = {"fas": fas_exact, "cutwidth": cutwidth_exact,
          "ola": ola_exact, "dpw": dpw_exact}


class UsageError(Exception):
    pass


def _past(x: int, limit: int) -> bool:
    """Whether x >= 0 has more than limit digits (0: no limit); x below
    8**limit is not, and skips building 10**limit."""
    return bool(limit) and x.bit_length() > 3 * limit and x >= 10 ** limit


def _frac(text: str, what: str) -> Fraction:
    """text as a Fraction whose exponent, digit runs, numerator and denominator
    each stay within sys.get_int_max_str_digits() digits (0: no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and any(sum(map(str.isdecimal, run)) > limit
                     for run in re.split("[./eE]", text)):
        raise UsageError(f"{what} has a term of more than {limit} digits")
    try:
        _, e, exp = text.lower().rpartition("e")
        if limit and e and abs(int(exp)) > limit:
            raise UsageError(f"{what} has an exponent past {limit}, got {_shown(text)}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational number, got {_shown(text)}")
    if _past(max(abs(value.numerator), value.denominator), limit):
        raise UsageError(f"{what} has a term of more than {limit} digits")
    return value


def _params(ns: argparse.Namespace) -> tuple:
    """(eps, alpha, weighted) as the solvers take them; eps must be positive
    and alpha must lie in (0, 1)."""
    eps = alpha = None
    if ns.eps is not None:
        eps = _frac(ns.eps, "--eps")
        if eps <= 0:
            raise UsageError(f"--eps must be positive, got {_shown(ns.eps)}")
    if ns.alpha is not None:
        alpha = _frac(ns.alpha, "--alpha")
        if not 0 < alpha < 1:
            raise UsageError(f"--alpha must lie in (0, 1), got {_shown(ns.alpha)}")
    return eps, alpha, ns.weighted


# (obj, mode) -> (the flags the solver takes, call(g, eps, alpha, weighted)).
# The calls look solvers up when they run, so patched or traced ones are used.
_SOLVERS = {
    **{(obj, "exact"): ((), lambda g, e, a, w, obj=obj: _EXACT[obj](g))
       for obj in _EXACT},
    ("fas", "2approx"): (("eps",), lambda g, e, a, w: fas_balanced_approx(g, e)),
    ("fas", "3approx"): ((), lambda g, e, a, w: fas_balanced_approx(g, 1)),
    ("fas", "scheme"): (("eps", "weighted"),
                        lambda g, e, a, w: fas_scheme(g, e, weighted=w)),
    ("cutwidth", "2approx"): (("eps",),
                              lambda g, e, a, w: cutwidth_balanced_approx(g, e)),
    ("cutwidth", "3approx"): ((), lambda g, e, a, w: cutwidth_balanced_approx(g, 1)),
    ("ola", "2approx"): (("alpha", "weighted"), lambda g, e, a, w: (
        ola_undirected_approx if g.undirected else ola_directed_approx)(
            g, a, weighted=w)),
    ("dpw", "2approx"): ((), lambda g, e, a, w: dpw_2approx(g)),
}


def _solver(obj: str, mode: str, eps, alpha, weighted: bool):
    """The mode label and the call of the (obj, mode) solver; UsageError
    when there is none or it does not take a flag given. ola's alpha
    defaults to 1/2; --mode scheme needs --eps."""
    if (obj, mode) not in _SOLVERS:
        raise UsageError(f"--mode {mode} does not apply to --obj {obj}")
    takes, call = _SOLVERS[obj, mode]
    if "alpha" in takes and alpha is None:
        alpha = Fraction(1, 2)
    given = {"eps": eps, "alpha": alpha, "weighted": weighted or None}
    for flag, value in given.items():
        if value is not None and flag not in takes:
            raise UsageError(f"--obj {obj} --mode {mode} does not take --{flag}")
    if mode == "scheme" and eps is None:
        raise UsageError("--mode scheme requires --eps")
    params = [flag if value is True else f"{flag}={value}"
              for flag, value in given.items() if value is not None]
    label = mode + (f"({','.join(params)})" if params else "")
    return label, lambda g: call(g, eps, alpha, weighted)


def _record(instance: str, g: Digraph, obj: str, label: str, rep,
            want_opt: bool, no_timing: bool) -> dict:
    rec = {"instance": instance, "objective": obj, "mode": label,
           "value": rep.value, "lower_bound": rep.lower_bound}
    if want_opt:
        orc = perm_opt(g, obj)
        rec["opt"] = orc.opt
        if orc.opt > 0:
            rec["ratio"] = rep.value / orc.opt
        elif rep.value > 0:
            rec["ratio"] = "inf"
        # opt = 0 and value = 0: exact-zero, no ratio field
    rec["ordering"] = list(rep.ordering.pos)
    rec["stats"] = rep.stats.as_dict()
    rec["millis"] = 0.0 if no_timing else round(rep.millis, 3)
    return rec


def _csv_row(rec: dict) -> list:
    stats = rec["stats"]
    return [rec["instance"], rec["objective"], rec["mode"], rec["value"],
            rec["lower_bound"], rec.get("opt", ""),
            rec.get("ratio", "exact-zero" if "opt" in rec else ""),
            stats["table_entries"], stats["triangles"], stats["calls"], rec["millis"]]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str) -> Digraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})")
    g, limit = parse_graph(text), sys.get_int_max_str_digits()
    if _past(value_bound(g, "ola"), limit):   # no output field holds more
        raise ParseError(f"{path}: n * total arc weight has more than {limit} digits")
    return g


def _corpus(path: str) -> list[tuple[str, str]]:
    """(instance id, file path) pairs, sorted by id."""
    if os.path.isfile(path):
        return [(os.path.basename(path), path)]
    if not os.path.isdir(path):
        raise UsageError(f"corpus path {path!r} is neither a file nor a directory")
    pairs = [(name, os.path.join(path, name))
             for name in os.listdir(path) if name.endswith(".g")]
    return sorted(pairs)


def _run_task(task: tuple) -> dict:
    """Solve one instance into its record; suite workers re-parse it
    in-process."""
    instance, path, obj, mode, eps, alpha, weighted, want_opt, no_timing = task
    label, solve = _solver(obj, mode, eps, alpha, weighted)
    g = _load(path)
    return _record(instance, g, obj, label, solve(g), want_opt, no_timing)


def _suite_task(task: tuple) -> tuple[int, dict | str]:
    """(0, record), or (exit code, error line) when the instance fails to
    parse or hits a size guard, so one bad instance does not end the suite."""
    try:
        return 0, _run_task(task)
    except ParseError as exc:
        return 3, f"error: {task[0]}: parse error: {exc}"
    except SizeGuardError as exc:
        return 4, f"error: {task[0]}: size guard: {exc}"


def _cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    reports one (taskset, cgroup cpusets), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_suite(tasks: list[tuple], jobs: int) -> tuple[list[dict], int]:
    """Records sorted by (instance, mode), and 4 if any instance hit a size
    guard, else 3 if any failed to parse, else 0. Failures go to stderr in
    task order, so neither output depends on --jobs."""
    if jobs < 1:
        raise UsageError("--jobs must be at least 1")
    workers = min(jobs, len(tasks), _cpus())
    if workers <= 1:
        results = [_suite_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_suite_task, tasks))
    # one line per message: every mode of an unparsable instance fails alike
    for line in dict.fromkeys(out for code, out in results if code):
        print(line, file=sys.stderr)
    records = [out for code, out in results if not code]
    failed = max((code for code, _ in results), default=0)
    return sorted(records, key=lambda r: (r["instance"], r["mode"])), failed


def cmd_solve(ns: argparse.Namespace) -> int:
    rec = _run_task((ns.instance, ns.instance, ns.obj, ns.mode, *_params(ns),
                     ns.oracle, ns.no_timing))
    _emit(json.dumps(rec, indent=2) + "\n", ns.out)
    return 0


def cmd_gen(ns: argparse.Namespace) -> int:
    if not 0.0 <= ns.p <= 1.0:
        raise UsageError("--p must lie in [0, 1]")
    if ns.n <= 0:
        raise UsageError("--n must be positive")
    check_universe(ns.n)
    if not 0 <= ns.wmin <= ns.wmax:
        raise UsageError("need 0 <= --wmin <= --wmax")
    g = gen_random(ns.n, ns.p, weight_range=(ns.wmin, ns.wmax),
                   seed=ns.seed, undirected=ns.ug)
    _emit(serialize_graph(g), ns.out)
    return 0


def _suite(ns: argparse.Namespace, modes: list[str], factor: str | None = None) -> int:
    """Run every mode on every corpus instance and write the CSV rows. With
    a factor (verify), each row also gets the oracle optimum and must hold
    lower_bound <= opt <= value <= factor * opt; exit 1 on a violation."""
    params = _params(ns)
    for mode in modes:
        _solver(ns.obj, mode, *params)
    if factor is not None:
        factor = _frac(factor, "--factor")
    tasks = [(inst, path, ns.obj, mode, *params, factor is not None, ns.no_timing)
             for inst, path in _corpus(ns.corpus) for mode in modes]
    records, failed = _run_suite(tasks, ns.jobs)
    import csv   # only the suites write CSV
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")   # quotes a mode holding a comma
    rows.writerow(CSV_HEADER.split(","))
    rows.writerows(_csv_row(r) for r in records)
    _emit(text.getvalue(), ns.out)
    if factor is None:
        return failed
    violations = []
    for rec in records:
        inst, value, opt = rec["instance"], rec["value"], rec["opt"]
        if not opt <= value <= factor * opt:
            violations.append(f"{inst} value={value} opt={opt} factor={factor}")
        if rec["lower_bound"] > opt:
            violations.append(f"{inst} lower_bound={rec['lower_bound']} opt={opt}")
    for line in violations:
        print(f"violation: {line}", file=sys.stderr)
    print(f"verify: {len(tasks)} instance(s), {len(tasks) - len(records)} "
          f"error(s), {len(violations)} violation(s)", file=sys.stderr)
    return failed or (1 if violations else 0)


def _add_mode_flags(p: argparse.ArgumentParser, multi_mode: bool = False) -> None:
    p.add_argument("--obj", required=True, choices=sorted(OBJECTIVES))
    modes = list(dict.fromkeys(mode for _, mode in _SOLVERS))
    if multi_mode:
        p.add_argument("--mode", action="append", choices=modes,
                       help="may be repeated; default exact")
    else:
        p.add_argument("--mode", default="exact", choices=modes)
    p.add_argument("--eps", help="rational, e.g. 0.5 or 1/3")
    p.add_argument("--alpha", help="rational in (0,1); ola approximations only")
    p.add_argument("--weighted", action="store_true",
                   help="weighted variant (fas scheme, ola)")
    p.add_argument("--no-timing", action="store_true",
                   help="report millis as 0 for byte-reproducible output")
    p.add_argument("--out", help="write to this path instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Each subcommand's func looks its
    command up when it runs, so patched or traced ones are used."""
    parser = argparse.ArgumentParser(
        prog="ordercut",
        description="Exact and approximate vertex-ordering solvers "
                    "(fas, cutwidth, ola, dpw).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance, print a JSON record")
    p.add_argument("instance", help="instance file")
    _add_mode_flags(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle (byte-guarded: n <= 11)")
    p.set_defaults(func=lambda ns: cmd_solve(ns))

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=1)
    p.add_argument("--ug", action="store_true", help="undirected instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=lambda ns: cmd_gen(ns))

    p = sub.add_parser("verify",
                       help="run a corpus against the oracle; exit 1 on violation")
    p.add_argument("corpus", help="directory of .g files (or one file)")
    _add_mode_flags(p)
    p.add_argument("--factor", required=True,
                   help="declared approximation factor (rational)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=lambda ns: _suite(ns, [ns.mode], ns.factor))

    p = sub.add_parser("bench", help="run a corpus, emit CSV (no oracle)")
    p.add_argument("corpus", help="directory of .g files (or one file)")
    _add_mode_flags(p, multi_mode=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=lambda ns: _suite(ns, ns.mode or ["exact"]))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
