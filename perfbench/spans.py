"""Span recorder around ordercut's public functions, for traced runs only.

Tracer.install wraps every public function of each layer module and swaps
the wrapper into every place that holds the function: module globals (names
imported into balanced, cli and the package) and dicts kept in module globals
(cli._EXACT, graph.EVALUATORS). Calls made through a module global, such as
subset_dp._exact calling fas_table, are therefore traced too. Spans are kept
in memory as [layer, function, start_ns, end_ns, parent, op, info] and
rolled up into per-layer self times and cost-per-unit ratios.

guards is not wrapped: its checks are a few comparisons and land in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("cli", "instance_io", "balanced", "kcut", "subset_dp", "oracle",
          "report", "graph")
_EVALUATORS = ("backward_weight", "cutwidth_of", "ola_of", "dpw_of")
_APPROX = ("fas_balanced_approx", "cutwidth_balanced_approx",
           "ola_directed_approx", "ola_undirected_approx", "dpw_2approx",
           "fas_scheme")
_PAIRS = ((0, 1), (0, 2), (1, 2))

LAYER, FUNC, START, END, PARENT, OP, INFO = range(7)


def _info(layer: str, name: str, args, result):
    """Work counts read at the span boundary from arguments and results."""
    if layer == "subset_dp":
        if name.endswith("_exact"):
            return result.stats.table_entries
        return (result.entries, result.size_cap < result.n)
    if layer == "kcut" and name == "build_aux":
        g, parts, sizes = args[:3]
        mats = (result.e01, result.e02, result.e12)
        cells = sum(len(m) * len(m[0]) for m in mats if m)
        key = hash(g)
        return cells, tuple((key, a, b, sizes[a], sizes[b]) for a, b in _PAIRS)
    if layer == "graph" and name in _EVALUATORS:
        return len(args[0].arc_items)
    if layer == "instance_io" and name == "parse_graph":
        return result.m
    if layer == "oracle" and name == "perm_opt":
        return math.factorial(args[0].n)
    if layer == "balanced" and name in _APPROX:
        trace = result.trace
        fallback = bool(trace) and str(trace[0][0]).startswith("exact-fallback")
        return result.stats.triangles, fallback
    return None


class Tracer:
    """Records spans while installed; uninstall() puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[dict, object, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[INFO] = _info(layer, name, args, result)
            return result

        return traced

    def install(self, package: str = "ordercut") -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))

        def swap(container: dict, key, value) -> None:
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._restore.append((container, key, value))
                container[key] = hit[1]

        for modname in sorted(sys.modules):
            if modname != package and not modname.startswith(package + "."):
                continue
            namespace = vars(sys.modules[modname])
            for key, value in list(namespace.items()):
                swap(namespace, key, value)
                if isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        swap(value, k2, v2)

    def uninstall(self) -> None:
        for container, key, value in reversed(self._restore):
            container[key] = value
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:INFO]) + "\n")


def rollup(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, counts and cost-per-unit ratios.

    A span's self time is its duration minus the time its child spans cover.
    """
    child_ns = [0] * len(spans)
    child_entries = [0] * len(spans)    # tables built by traced child spans
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
            if rec[LAYER] == "subset_dp" and not rec[FUNC].endswith("_exact"):
                child_entries[rec[PARENT]] += rec[INFO][0]
    self_ns = {layer: 0 for layer in LAYERS}
    full_ns = capped_ns = build_ns = tri_ns = induced_ns = eval_ns = 0
    parse_ns = finish_ns = 0
    dp_calls = full_entries = capped_entries = 0
    cut_calls = cells = built = triangles = 0
    entries = fallbacks = side_solves = 0
    induced_calls = eval_calls = eval_arcs = parse_arcs = 0
    oracle_calls = perms = 0
    distinct = set()
    for i, rec in enumerate(spans):
        layer, name, info = rec[LAYER], rec[FUNC], rec[INFO]
        own = rec[END] - rec[START] - child_ns[i]
        self_ns[layer] += own
        parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
        parent_layer = parent[LAYER] if parent else None
        if layer == "subset_dp":
            dp_calls += 1
            if name.endswith("_exact"):
                full_entries += info - child_entries[i]
                full_ns += own
                side_solves += parent_layer == "balanced"
            elif info[1]:
                capped_entries += info[0]
                capped_ns += own
            else:
                full_entries += info[0]
                full_ns += own
        elif layer == "kcut":
            if name.startswith("dkmc_"):
                cut_calls += 1
            elif name == "build_aux":
                build_ns += own
                cells += info[0]
                built += len(info[1])
                distinct.update((rec[OP],) + key for key in info[1])
            elif name == "min_weight_triangle":
                tri_ns += own
        elif layer == "balanced" and name in _APPROX and parent_layer != "balanced":
            entries += 1
            triangles += info[0]
            fallbacks += info[1]
        elif layer == "graph":
            if name == "induced":
                induced_calls += 1
                induced_ns += own
            elif name in _EVALUATORS:
                eval_calls += 1
                eval_arcs += info
                eval_ns += own
        elif layer == "instance_io" and name == "parse_graph":
            parse_ns += own
            parse_arcs += info
        elif layer == "oracle" and name == "perm_opt":
            oracle_calls += 1
            perms += info
        elif layer == "report" and name == "finish":
            finish_ns += own

    def per(ns: int, count: int) -> float:
        return ns / count if count else 0.0

    s = 1e-9
    return {
        "subset_dp.calls": dp_calls,
        "subset_dp.self_s": self_ns["subset_dp"] * s,
        "subset_dp.table_entries": full_entries,
        "subset_dp.ns_per_entry": per(full_ns, full_entries),
        "subset_dp.capped_entries": capped_entries,
        "subset_dp.capped_ns_per_entry": per(capped_ns, capped_entries),
        "kcut.calls": cut_calls,
        "kcut.self_s": self_ns["kcut"] * s,
        "kcut.build_aux_s": build_ns * s,
        "kcut.aux_cells": cells,
        "kcut.ns_per_aux_cell": per(build_ns, cells),
        "kcut.triangle_s": tri_ns * s,
        "kcut.triangles": triangles,
        "kcut.ns_per_triangle": per(tri_ns, triangles),
        "kcut.aux_matrices": built,
        "kcut.aux_matrix_reuse": len(distinct) / built if built else 0.0,
        "balanced.calls": entries,
        "balanced.self_s": self_ns["balanced"] * s,
        "balanced.side_solves": side_solves,
        "balanced.fallback_frac": fallbacks / entries if entries else 0.0,
        "graph.self_s": self_ns["graph"] * s,
        "graph.induced_calls": induced_calls,
        "graph.induced_s": induced_ns * s,
        "graph.eval_calls": eval_calls,
        "graph.eval_arcs": eval_arcs,
        "graph.eval_ns_per_arc": per(eval_ns, eval_arcs),
        "instance_io.parse_s": parse_ns * s,
        "instance_io.parse_arcs": parse_arcs,
        "instance_io.parse_ns_per_arc": per(parse_ns, parse_arcs),
        "oracle.calls": oracle_calls,
        "oracle.self_s": self_ns["oracle"] * s,
        "oracle.perms": perms,
        "oracle.ns_per_perm": per(self_ns["oracle"], perms),
        "report.finish_s": finish_ns * s,
        "cli.self_s": self_ns["cli"] * s,
        "trace.spans": len(spans),
    }
