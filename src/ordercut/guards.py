"""Desk-scale size guards.

Every exponential entry point raises SizeGuardError instead of silently
degrading, on one rule: the subset DPs, the cut search and the permutation
oracle each check the bytes they will allocate against TABLE_BYTE_GUARD,
which only this module reads, through check and (for batch sizes) fits.
ORDERCUT_GUARD_OVERRIDE=1 lifts these soft guards (a warning goes to stderr
once); the mask-encoding hard cap of 32 vertices stays in force regardless.

Every exponential array takes its width from int_dtype(bound), bound covering
every value and partial sum (value_bound for subset tables and oracle scores).
An object entry is an 8-byte pointer, plus a Python int only in arrays whose
operation makes one (entry_bytes). Graphs solved as one batch share a key,
and a batch holds as many as its byte model admits (batches, batch_views).
"""

from __future__ import annotations

import os
import sys

import numpy as np

SUBSET_HARD_CAP = 32          # bitmask universe; never lifted
TABLE_BYTE_GUARD = 1 << 30    # subset tables (int16 to n=28), cut pair and rank tables, oracle leaves (to n=11)

OVERRIDE_ENV = "ORDERCUT_GUARD_OVERRIDE"
_warned = False


class SizeGuardError(RuntimeError):
    """Request exceeds a desk-scale guard."""


def _overridden() -> bool:
    global _warned
    if os.environ.get(OVERRIDE_ENV, "") != "1":
        return False
    if not _warned:
        print(f"warning: {OVERRIDE_ENV}=1 lifts desk-scale size guards; "
              "runtime and memory are now unbounded", file=sys.stderr)
        _warned = True
    return True


def check(actual: int, what: str) -> None:
    """Raise SizeGuardError when actual > TABLE_BYTE_GUARD, unless overridden."""
    if actual <= TABLE_BYTE_GUARD or _overridden():
        return
    raise SizeGuardError(
        f"{what}: {actual} exceeds the desk-scale guard {TABLE_BYTE_GUARD} "
        f"(set {OVERRIDE_ENV}=1 to override)")


def fits(each: int, shared: int = 0) -> int:
    """How many items of each bytes fit the guard beside shared ones, override or not."""
    return (TABLE_BYTE_GUARD - shared) // each


def check_universe(n: int) -> None:
    """Hard cap for subset-mask universes; not overridable."""
    if n > SUBSET_HARD_CAP:
        raise SizeGuardError(
            f"vertex count {n} exceeds the subset-mask hard cap {SUBSET_HARD_CAP}")


def value_bound(g, objective: str) -> int:
    """The largest value of objective on g, of any partial sum (fas, ola) or
    running maximum (cutwidth, dpw) of its non-negative costs, each at most
    W = g.total_arc_weight (n for dpw): fas W, ola n*W, cutwidth W, dpw n."""
    if objective == "dpw":       # dpw counts arcs and ignores weights
        return g.n
    return g.total_arc_weight * (g.n if objective == "ola" else 1)


def int_dtype(bound: int):
    """The narrowest of int16/int32/int64 holding every value of magnitude
    at most bound, and Python ints (object) from 2**62 up."""
    if bound >= 1 << 62:
        return object
    return np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64


def batches(keys, room):
    """Split members 0..len(keys)-1 into batches of one key, in order;
    room(members), asked of groups of two or more, is how many of those
    members fit one batch (at least one runs, so a member alone is refused
    only by its own check)."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for group in groups.values():
        size = max(1, room(group)) if len(group) > 1 else 1
        for lo in range(0, len(group), size):
            yield group[lo:lo + size]


def batch_views(a, count: int) -> list:
    """Each member's view of an array stacked on a last axis over a batch of
    count members; a lone member's array has no such axis."""
    return [a[..., i] for i in range(count)] if count > 1 else [a]


def entry_bytes(dtype, bound: int | None = None) -> int:
    """Bytes per array entry of dtype; an object entry adds a Python int
    about as large as bound, if given (where the array's operation makes one)."""
    made = 0 if bound is None else sys.getsizeof(bound)
    return 8 + made if dtype is object else np.dtype(dtype).itemsize
