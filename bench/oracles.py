"""Reference computations that share no code with poscat.

Every function here works on plain Python data: an order is a pair
(elements, leq) where `leq` is a set of (x, y) pairs, reflexive and
transitive.  The benchmark checks poscat's outputs against these functions,
so nothing in this module may import poscat.
"""

from __future__ import annotations

import itertools


def closure(elements, pairs):
    """Reflexive-transitive closure of `pairs` on `elements`, as a set of pairs."""
    up = {x: {x} for x in elements}
    for x, y in pairs:
        up[x].add(y)
    for k in elements:
        for x in elements:
            if k in up[x]:
                up[x] |= up[k]
    return {(x, y) for x in elements for y in up[x]}


def is_partial_order(elements, leq):
    elements = list(elements)
    for x in elements:
        if (x, x) not in leq:
            return False
    for x, y in leq:
        if x != y and (y, x) in leq:
            return False
    return closure(elements, leq) == set(leq)


def height(elements, leq):
    """Number of covers in a longest chain (0 for antichains)."""
    longest = {}
    for x in sorted(elements, key=lambda e: sum(1 for a in elements if (a, e) in leq)):
        below = [longest[y] for y in longest if y != x and (y, x) in leq]
        longest[x] = 1 + max(below, default=-1)
    return max(longest.values(), default=0)


def count_weak_chains(elements, leq, n):
    """Number of weakly increasing (n+1)-tuples, by enumerating every one of them."""
    up = {x: [y for y in elements if (x, y) in leq] for x in elements}
    stack = [(x, 0) for x in elements]
    count = 0
    while stack:
        x, depth = stack.pop()
        if depth == n:
            count += 1
            continue
        stack.extend((y, depth + 1) for y in up[x])
    return count


def count_monotone(src_elements, src_leq, tgt_elements, tgt_leq):
    """Number of monotone functions, by testing every function."""
    src = list(src_elements)
    strict = [(src.index(x), src.index(y)) for x, y in src_leq if x != y]
    count = 0
    for values in itertools.product(list(tgt_elements), repeat=len(src)):
        if all((values[i], values[j]) in tgt_leq for i, j in strict):
            count += 1
    return count


def monotone_functions(src_elements, src_leq, tgt_elements, tgt_leq):
    """Every monotone function as a dict, by testing every function."""
    src = list(src_elements)
    strict = [(x, y) for x, y in src_leq if x != y]
    out = []
    for values in itertools.product(list(tgt_elements), repeat=len(src)):
        f = dict(zip(src, values))
        if all((f[x], f[y]) in tgt_leq for x, y in strict):
            out.append(f)
    return out


def count_linear_extensions(elements, leq):
    """Number of permutations that list every element after everything below it."""
    elements = list(elements)
    count = 0
    for perm in itertools.permutations(elements):
        pos = {x: k for k, x in enumerate(perm)}
        if all(pos[x] <= pos[y] for x, y in leq):
            count += 1
    return count


def is_linear_extension(sequence, elements, leq):
    if sorted(sequence) != sorted(elements):
        return False
    pos = {x: k for k, x in enumerate(sequence)}
    return all(pos[x] <= pos[y] for x, y in leq)


def find_isomorphism(a_elements, a_leq, b_elements, b_leq):
    """An order isomorphism as a dict, or None, by backtracking over bijections."""
    a = list(a_elements)
    b = list(b_elements)
    if len(a) != len(b) or len(a_leq) != len(b_leq):
        return None

    def degrees(elements, leq):
        return {
            x: (sum(1 for y in elements if (y, x) in leq), sum(1 for y in elements if (x, y) in leq))
            for x in elements
        }

    da, db = degrees(a, a_leq), degrees(b, b_leq)
    assign = {}
    used = set()

    def extend(k):
        if k == len(a):
            return True
        x = a[k]
        for y in b:
            if y in used or db[y] != da[x]:
                continue
            if all(
                ((x, x2) in a_leq) == ((y, y2) in b_leq) and ((x2, x) in a_leq) == ((y2, y) in b_leq)
                for x2, y2 in assign.items()
            ):
                assign[x] = y
                used.add(y)
                if extend(k + 1):
                    return True
                del assign[x]
                used.discard(y)
        return False

    return dict(assign) if extend(0) else None


def check_order_bijection(mapping, a_elements, a_leq, b_elements, b_leq):
    """Why `mapping` is not a bijection that preserves and reflects order, or ''."""
    if set(mapping) != set(a_elements):
        return "not defined on every element"
    if sorted(mapping.values(), key=repr) != sorted(b_elements, key=repr):
        return "not a bijection onto the target"
    for x in a_elements:
        for y in a_elements:
            if ((x, y) in a_leq) != ((mapping[x], mapping[y]) in b_leq):
                return f"order differs at {x!r}, {y!r}"
    return ""


def product_order(a_elements, a_leq, b_elements, b_leq):
    """Componentwise order on pairs."""
    elements = [(x, y) for x in a_elements for y in b_elements]
    leq = {
        (p, q)
        for p in elements
        for q in elements
        if (p[0], q[0]) in a_leq and (p[1], q[1]) in b_leq
    }
    return elements, leq


def chain_order(n):
    """The chain 0 < 1 < ... < n on the strings '0'..'n'."""
    elements = [str(i) for i in range(n + 1)]
    return elements, {(str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)}


class Colimit:
    """Colimit of a diagram of orders, by union-find, closure and condensation.

    nodes: node id -> (elements, leq); edges: (src, dst, mapping dict).
    `cell_class[(node, x)]` is the apex element hit by x, and apex elements are
    frozensets of cells.
    """

    def __init__(self, nodes, edges):
        parent = {}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for nid, (elements, _) in nodes.items():
            for x in elements:
                parent[(nid, x)] = (nid, x)
        for src, dst, mapping in edges:
            for x, y in mapping.items():
                ra, rb = find((src, x)), find((dst, y))
                if ra != rb:
                    parent[rb] = ra
        stage_one = {}
        for cell in parent:
            stage_one.setdefault(find(cell), set()).add(cell)
        self.stage_one = [frozenset(c) for c in stage_one.values()]
        of = {cell: k for k, c in enumerate(self.stage_one) for cell in c}
        self.stage_one_of = of
        self.stage_one_pairs = {
            (of[(nid, x)], of[(nid, y)])
            for nid, (_, leq) in nodes.items()
            for x, y in leq
        }
        k = len(self.stage_one)
        pre = closure(range(k), self.stage_one_pairs)
        groups = {}
        for c in range(k):
            key = frozenset(d for d in range(k) if (c, d) in pre and (d, c) in pre)
            groups.setdefault(key, set()).update(self.stage_one[c])
        self.elements = [frozenset(g) for g in groups.values()]
        rep = {}
        for g in self.elements:
            for cell in g:
                rep[cell] = g
        self.cell_class = rep
        first = {g: of[next(iter(g))] for g in self.elements}
        self.leq = {(g, h) for g in self.elements for h in self.elements if (first[g], first[h]) in pre}


def count_cocones(colimit, target_elements, target_leq):
    """Number of cocones into the target: functions on stage-one classes that
    respect every node relation, found by backtracking over assignments."""
    k = len(colimit.stage_one)
    relations = [(a, b) for a, b in colimit.stage_one_pairs if a != b]
    values = [None] * k
    tgt = list(target_elements)
    reflexive = all((t, t) in target_leq for t in tgt)
    if not reflexive:
        return 0

    def count(slot):
        if slot == k:
            return 1
        total = 0
        for t in tgt:
            values[slot] = t
            if all(
                (values[a], values[b]) in target_leq
                for a, b in relations
                if max(a, b) == slot
            ):
                total += count(slot + 1)
        values[slot] = None
        return total

    return count(0)


def check_cocone_against(colimit, apex_elements, apex_leq, legs):
    """Compare a computed cocone with the reference colimit through its legs.

    legs[(node, x)] is the apex element the computed cocone sends x to.
    Returns '' when the induced map from reference apex elements to the
    computed apex is a bijection that preserves and reflects order.
    """
    mapping = {}
    for cell, g in colimit.cell_class.items():
        got = legs.get(cell)
        if got is None:
            return f"no leg value for {cell!r}"
        if mapping.setdefault(g, got) != got:
            return f"legs split the identified class of {cell!r}"
    return check_order_bijection(mapping, colimit.elements, colimit.leq, apex_elements, apex_leq)


def simplicial_identity_instances(max_n):
    """Every instance of the five simplicial identities whose ordinals lie in
    [0]..[max_n], each checked by composing value tables.  Returns
    (instances, failures)."""

    def face(n, i):  # [n-1] -> [n]
        return tuple(j if j < i else j + 1 for j in range(n))

    def deg(n, i):  # [n+1] -> [n]
        return tuple(j if j <= i else j - 1 for j in range(n + 2))

    def after(g, f):
        return tuple(g[v] for v in f)

    instances = failures = 0

    def record(lhs, rhs):
        nonlocal instances, failures
        instances += 1
        failures += lhs != rhs

    for m in range(2, max_n + 1):  # faces [m-2] -> [m]
        for j in range(m + 1):
            for i in range(j):
                record(after(face(m, j), face(m - 1, i)), after(face(m, i), face(m - 1, j - 1)))
    for m in range(0, max_n - 1):  # degeneracies [m+2] -> [m]
        for j in range(m + 1):
            for i in range(j + 1):
                record(after(deg(m, j), deg(m + 1, i)), after(deg(m, i), deg(m + 1, j + 1)))
    for m in range(0, max_n):  # sigma_j delta_i on [m] through [m+1]
        for j in range(m + 1):
            for i in range(m + 2):
                lhs = after(deg(m, j), face(m + 1, i))
                if i < j:
                    record(lhs, after(face(m, i), deg(m - 1, j - 1)))
                elif i in (j, j + 1):
                    record(lhs, tuple(range(m + 1)))
                else:
                    record(lhs, after(face(m, i - 1), deg(m - 1, j)))
    return instances, failures
