"""Bitmask kernels: relation closure and order-constrained function search.

Relations on k elements are handled as k row bitmasks (bit j of row i set iff
i relates to j).  Constraint pairs are (i, j, kind) with kind LEQ: f[i] <= f[j],
EQ: f[i] == f[j], LT: f[i] < f[j], interpreted in the target relation.  The
searches keep their state in explicit stacks, so their depth is not bounded by
the interpreter's recursion limit.

Everything the searches read about a target relation is its view,
`target_view(up_rows, down_rows)`: the mask of all values, the mask of
reflexive values and the row tables by constraint code.  A `FinPoset` caches
its view as `kernel_view`, so counting into it builds nothing per call.

Counting is split in two: `count_plan(n_slots, pairs)` fixes everything that
does not depend on the target (the branching order and the slots closed at
each level), and `run_plan(plan, view, domains)` runs that plan against one
target view, optionally with a mask of allowed values per slot.  A caller
counting one constraint set into many targets builds the plan once.
"""

from __future__ import annotations

import functools
import operator

LEQ = 0
EQ = 1
LT = 2


def backend() -> str:
    """Name of the kernel implementation: always "pure" (pure Python)."""
    return "pure"


def transitive_closure(rows):
    """Reflexive-transitive closure of a relation given as row bitmasks."""
    n = len(rows)
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bit = 1 << k
        row_k = out[k]
        for i in range(n):
            if out[i] & bit:
                out[i] |= row_k
    return out


def transpose(rows, n_cols):
    """Column bitmasks of a relation given as row bitmasks: bit i of column j
    is set iff bit j of row i is."""
    cols = [0] * n_cols
    for i, row in enumerate(rows):
        bit = 1 << i
        m = row
        while m:
            b = m & -m
            cols[b.bit_length() - 1] |= bit
            m ^= b
    return cols


def meet_rows(tables, at):
    """Row bitmasks of the relation that holds in each of `tables` (row-bitmask
    tables over one index set, at least one), read through `at`: bit j of row
    i is set iff bit at[j] of row at[i] is set in every table."""
    meet = [functools.reduce(operator.and_, rows) for rows in zip(*tables)]
    return [sum(1 << j for j, b in enumerate(at) if meet[a] >> b & 1) for a in at]


def _neighbours(n_slots, pairs):
    """Per-slot constraint lists for `pairs`, or None when they are unsatisfiable.

    Returns (reflexive, nbrs): reflexive[s] is true when a pair f[s] <= f[s]
    restricts s to reflexive target points, and nbrs[s] lists (o, code) for
    every pair between s and another slot o.  The code names the row table
    (see `target_view`) that, indexed by the value of o, gives the values
    allowed for s.
    """
    reflexive = [False] * n_slots
    nbrs = [[] for _ in range(n_slots)]
    for i, j, kind in pairs:
        if i == j:
            if kind == LT:
                return None
            if kind == LEQ:
                reflexive[i] = True
            continue
        if kind == EQ:
            nbrs[i].append((j, 2))
            nbrs[j].append((i, 2))
        elif kind == LEQ:
            nbrs[i].append((j, 0))
            nbrs[j].append((i, 1))
        else:
            nbrs[i].append((j, 3))
            nbrs[j].append((i, 4))
    return reflexive, nbrs


def target_view(up_rows, down_rows):
    """What the searches read about a target relation with rows `up_rows`
    and columns `down_rows`: (full, diag, tables).

    full masks every value and diag the reflexive ones.  tables[code][w] is
    the mask of values v allowed for a slot whose neighbour holds w, for
    v <= w (0), w <= v (1), v == w (2), v < w (3) and w < v (4).
    """
    n = len(up_rows)
    bits = [1 << w for w in range(n)]
    diag = sum(bit for row, bit in zip(up_rows, bits) if row & bit)
    tables = (
        tuple(down_rows),
        tuple(up_rows),
        tuple(bits),
        tuple(row & ~bit for row, bit in zip(down_rows, bits)),
        tuple(row & ~bit for row, bit in zip(up_rows, bits)),
    )
    return (1 << n) - 1, diag, tables


def count_plan(n_slots, pairs):
    """The target-independent part of `count_maps`, or None when `pairs` are
    unsatisfiable.

    The search branches on one slot per level, always the unassigned slot
    with most assigned neighbours (ties to the lower index).  A slot whose
    neighbours are all assigned is closed instead: it contributes its number
    of allowed values as a factor, so tree-shaped constraint graphs are
    counted without enumerating every function.  Which slots are assigned
    at each level does not depend on the values, so the whole order is fixed
    here.  The plan is (free, loops, levels): the isolated slots without and
    with a reflexivity constraint, and per level the branch slot and the
    slots closed after it, each as (slot, reflexive, cons) with cons the
    (level, code) pairs it must satisfy.
    """
    built = _neighbours(n_slots, pairs)
    if built is None:
        return None
    reflexive, nbrs = built
    level_of = [-1] * n_slots
    todo = set()
    free = []
    loops = []
    for s in range(n_slots):
        if nbrs[s]:
            todo.add(s)
        elif reflexive[s]:
            loops.append(s)
        else:
            free.append(s)

    def entry(s):
        cons = tuple((level_of[o], code) for o, code in nbrs[s] if level_of[o] >= 0)
        return s, reflexive[s], cons

    levels = []
    while todo:
        s = min(todo, key=lambda t: (-sum(1 for o, _ in nbrs[t] if level_of[o] >= 0), t))
        branch = entry(s)
        level_of[s] = len(levels)
        todo.discard(s)
        closed = [t for t in sorted(todo) if all(level_of[o] >= 0 for o, _ in nbrs[t])]
        todo.difference_update(closed)
        levels.append((branch, tuple(entry(t) for t in closed)))
    return tuple(free), tuple(loops), tuple(levels)


def run_plan(plan, view, domains=None):
    """Number of functions satisfying the constraints `plan` was built from,
    into the target relation whose `target_view` is `view`.

    When `domains` is given, slot s may take only the values in the mask
    domains[s].  Runs the plan depth first with an explicit stack, one level
    per branch slot.
    """
    free, loops, levels = plan
    full, diag, tables = view
    if domains is None:
        prod = full.bit_count() ** len(free) * diag.bit_count() ** len(loops)
    else:
        prod = 1
        for s in free:
            prod *= (domains[s] & full).bit_count()
        for s in loops:
            prod *= (domains[s] & diag).bit_count()
    if not levels or not prod:
        return prod
    depth = len(levels)
    values = [0] * depth
    masks = [0] * depth
    prods = [0] * depth

    def allowed(s, reflexive, cons):
        mask = diag if reflexive else full
        if domains is not None:
            mask &= domains[s]
        for level, code in cons:
            mask &= tables[code][values[level]]
        return mask

    total = 0
    k = 0
    masks[0] = allowed(*levels[0][0])
    prods[0] = prod
    while k >= 0:
        mask = masks[k]
        if not mask:
            k -= 1
            continue
        bit = mask & -mask
        masks[k] = mask ^ bit
        values[k] = bit.bit_length() - 1
        p = prods[k]
        for s, reflexive, cons in levels[k][1]:
            p *= allowed(s, reflexive, cons).bit_count()
            if not p:
                break
        if not p:
            continue
        if k + 1 == depth:
            total += p
            continue
        k += 1
        prods[k] = p
        masks[k] = allowed(*levels[k][0])
    return total


def count_maps(n_slots, n_tgt, up_rows, pairs):
    """Number of functions {0..n_slots-1} -> {0..n_tgt-1} satisfying `pairs`:
    `count_plan` and `run_plan` run together."""
    plan = count_plan(n_slots, pairs)
    if plan is None:
        return 0
    return run_plan(plan, target_view(up_rows, transpose(up_rows, n_tgt)))


def list_maps(n_slots, n_tgt, up_rows, pairs):
    """All satisfying functions as value tuples, in lexicographic order.

    Slots are assigned in index order, each checked against its constraints
    to earlier slots, with an explicit stack.
    """
    built = _neighbours(n_slots, pairs)
    if built is None:
        return []
    if n_slots == 0:
        return [()]
    reflexive, nbrs = built
    full, diag, tables = target_view(up_rows, transpose(up_rows, n_tgt))
    back = [[(o, code) for o, code in nbrs[s] if o < s] for s in range(n_slots)]
    values = [0] * n_slots
    masks = [0] * n_slots

    def allowed(s):
        mask = diag if reflexive[s] else full
        for o, code in back[s]:
            mask &= tables[code][values[o]]
        return mask

    out = []
    s = 0
    masks[0] = allowed(0)
    while s >= 0:
        mask = masks[s]
        if not mask:
            s -= 1
            continue
        bit = mask & -mask
        masks[s] = mask ^ bit
        values[s] = bit.bit_length() - 1
        if s + 1 == n_slots:
            out.append(tuple(values))
            continue
        s += 1
        masks[s] = allowed(s)
    return out
