"""Desk-scale size guards.

Every exponential entry point checks its input size and raises SizeGuardError
instead of silently degrading. ORDERCUT_GUARD_OVERRIDE=1 lifts the soft guards
(a warning goes to stderr once); the mask-encoding hard cap of 32 vertices
stays in force regardless.

The exact engines store integers as int64 while every value and partial sum
stays below 2**62, and as Python ints (dtype=object) beyond that; their byte
models count an object entry as its 8-byte pointer plus the int it points to.
"""

from __future__ import annotations

import os
import sys

import numpy as np

SUBSET_HARD_CAP = 32          # bitmask universe; never lifted
EXACT_DP_GUARD = 26           # full exact DPs and kcut enumerations
TABLE_BYTE_GUARD = 1 << 30    # subset table, cut pair and rank tables; n=26 table ~0.8 GiB
SCHEME_BUDGET = 48            # fas_scheme: level * n
ORACLE_GUARD = 9              # perm_opt: n! enumeration
DKMC_ORACLE_GUARD = 1 << 20   # dkmc_oracle: C(n, k) subsets

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


def check(actual: int, limit: int, what: str) -> None:
    """Raise SizeGuardError when actual > limit and the override is not set."""
    if actual <= limit:
        return
    if _overridden():
        return
    raise SizeGuardError(
        f"{what}: {actual} exceeds the desk-scale guard {limit} "
        f"(set {OVERRIDE_ENV}=1 to override)")


def check_universe(n: int) -> None:
    """Hard cap for subset-mask universes; not overridable."""
    if n > SUBSET_HARD_CAP:
        raise SizeGuardError(
            f"vertex count {n} exceeds the subset-mask hard cap {SUBSET_HARD_CAP}")


def int_dtype(bound: int):
    """int64 when every value and every partial sum stays below bound."""
    return np.int64 if bound < 2 ** 62 else object


def entry_bytes(dtype, bound: int) -> int:
    """Bytes per array entry of dtype; an object entry adds a Python int
    about as large as bound."""
    return 8 + sys.getsizeof(bound) if dtype is object else np.dtype(dtype).itemsize
