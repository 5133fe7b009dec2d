"""Kernel dispatch: compiled speedups when built and applicable, pure Python otherwise.

Constraint pairs are (i, j, kind) with kind 0: f[i] <= f[j], 1: f[i] == f[j],
2: f[i] < f[j], interpreted in the target relation.  Set POSCAT_KERNEL=pure to
force the fallback.

Counting is split in two, with one pure implementation for every backend:
`count_plan(n_slots, pairs)` fixes everything that does not depend on the
target (the branching order and the slots closed at each level), and
`run_plan(plan, up_rows, down_rows)` runs that plan against one target, given
its rows and columns (a `FinPoset` caches the latter as `down_rows`).  A
caller counting one constraint set into many targets builds the plan once.
"""

from __future__ import annotations

import os

from . import pure
from .pure import count_plan, run_plan, transpose  # noqa: F401  (one implementation for every backend)

try:
    from . import _speedups
except ImportError:  # extension not built
    _speedups = None

_FORCE_PURE = os.environ.get("POSCAT_KERNEL") == "pure"

LEQ = 0
EQ = 1
LT = 2


def backend() -> str:
    return "pure" if (_speedups is None or _FORCE_PURE) else "compiled"


def _fits(n_slots, n_tgt):
    return n_slots <= 64 and n_tgt <= 64


def transitive_closure(rows):
    rows = list(rows)
    if _speedups is not None and not _FORCE_PURE and len(rows) <= 64:
        return _speedups.transitive_closure(rows)
    return pure.transitive_closure(rows)


def count_maps(n_slots, n_tgt, up_rows, pairs):
    pairs = list(pairs)
    if _speedups is not None and not _FORCE_PURE and _fits(n_slots, n_tgt):
        return _speedups.count_maps(n_slots, n_tgt, list(up_rows), pairs)
    return pure.count_maps(n_slots, n_tgt, list(up_rows), pairs)


def list_maps(n_slots, n_tgt, up_rows, pairs):
    pairs = list(pairs)
    if _speedups is not None and not _FORCE_PURE and _fits(n_slots, n_tgt):
        return _speedups.list_maps(n_slots, n_tgt, list(up_rows), pairs)
    return pure.list_maps(n_slots, n_tgt, list(up_rows), pairs)
