"""Pure-Python bitmask kernels: relation closure and order-constrained function search.

Relations on k elements are handled as k row bitmasks (bit j of row i set iff
i relates to j).  Constraint pairs use kinds 0: f[i] <= f[j], 1: f[i] == f[j],
2: f[i] < f[j].
"""

from __future__ import annotations


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


def _mask(code, w, up_rows, down_rows):
    if code == 0:
        return down_rows[w]
    if code == 1:
        return up_rows[w]
    if code == 2:
        return 1 << w
    if code == 3:
        return down_rows[w] & ~(1 << w)
    return up_rows[w] & ~(1 << w)


def count_maps(n_slots, n_tgt, up_rows, pairs):
    """Number of functions {0..n_slots-1} -> {0..n_tgt-1} satisfying `pairs`.

    Slots whose remaining constraints all point at assigned slots are closed
    by multiplying their choice count, so tree-shaped constraint graphs are
    counted without enumerating every function.
    """
    if n_slots == 0:
        return 1
    if n_tgt == 0:
        return 0
    full = (1 << n_tgt) - 1
    down_rows = transpose(up_rows, n_tgt)
    diag = sum(1 << v for v in range(n_tgt) if up_rows[v] & (1 << v))
    base = [full] * n_slots
    nbrs = [[] for _ in range(n_slots)]
    for i, j, kind in pairs:
        if i == j:
            if kind == 2:
                return 0
            if kind == 0:
                base[i] &= diag
            continue
        if kind == 1:
            nbrs[i].append((j, 2))
            nbrs[j].append((i, 2))
        elif kind == 0:
            nbrs[i].append((j, 0))
            nbrs[j].append((i, 1))
        else:
            nbrs[i].append((j, 3))
            nbrs[j].append((i, 4))

    values = [-1] * n_slots

    def allowed(s):
        mask = base[s]
        for o, code in nbrs[s]:
            w = values[o]
            if w >= 0:
                mask &= _mask(code, w, up_rows, down_rows)
                if not mask:
                    break
        return mask

    def count(todo):
        if not todo:
            return 1
        prod = 1
        closed = []
        progress = True
        while progress:
            progress = False
            for s in sorted(todo):
                if all(values[o] >= 0 for o, _ in nbrs[s]):
                    c = allowed(s).bit_count()
                    if c == 0:
                        todo.update(closed)
                        return 0
                    prod *= c
                    todo.discard(s)
                    closed.append(s)
                    progress = True
        if not todo:
            todo.update(closed)
            return prod
        s = min(todo, key=lambda t: (-sum(1 for o, _ in nbrs[t] if values[o] >= 0), t))
        todo.discard(s)
        total = 0
        mask = allowed(s)
        while mask:
            bit = mask & -mask
            values[s] = bit.bit_length() - 1
            total += count(todo)
            mask ^= bit
        values[s] = -1
        todo.add(s)
        todo.update(closed)
        return prod * total

    return count(set(range(n_slots)))


def list_maps(n_slots, n_tgt, up_rows, pairs):
    """All satisfying functions as value tuples, in lexicographic order."""
    if n_tgt == 0:
        return [()] if n_slots == 0 else []
    full = (1 << n_tgt) - 1
    down_rows = transpose(up_rows, n_tgt)
    diag = sum(1 << v for v in range(n_tgt) if up_rows[v] & (1 << v))
    base = [full] * n_slots
    back = [[] for _ in range(n_slots)]  # constraints to earlier slots only
    for i, j, kind in pairs:
        if i == j:
            if kind == 2:
                return []
            if kind == 0:
                base[i] &= diag
            continue
        lo, hi = (i, j) if i < j else (j, i)
        if kind == 1:
            back[hi].append((lo, 2))
        elif kind == 0:
            # f[i] <= f[j]
            if hi == j:
                back[hi].append((lo, 1))
            else:
                back[hi].append((lo, 0))
        else:
            if hi == j:
                back[hi].append((lo, 4))
            else:
                back[hi].append((lo, 3))

    out = []
    values = [0] * n_slots

    def rec(s):
        if s == n_slots:
            out.append(tuple(values))
            return
        mask = base[s]
        for o, code in back[s]:
            mask &= _mask(code, values[o], up_rows, down_rows)
            if not mask:
                return
        while mask:
            bit = mask & -mask
            values[s] = bit.bit_length() - 1
            rec(s + 1)
            mask ^= bit

    rec(0)
    return out
