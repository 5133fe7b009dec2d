"""Bitmask kernels: relation closure, counting and listing monotone maps into
a poset, growing chains, and the one depth-first walker of every listing.

Relations on k elements are handled as k row bitmasks (bit j of row i set iff
i relates to j).  A target poset is read through two such tables: its up-rows
(bit w of row v set iff v <= w) and its down-rows, their transpose; every
`FinPoset` caches both.  The maps searched for send slots 0..n-1 into the
target with f[i] <= f[j] for each constraint pair (i, j).  The searches keep
their state in explicit stacks, so their depth is not bounded by the
interpreter's recursion limit.

Every listing search walks `depth_first(n, options)`, which yields each tuple
whose k-th entry is one of options(k, values): `list_maps` here, and
`posets.linear_extensions`, `posets.coloured_isomorphisms` and the simplicial
map search, each stating only its candidate rule.  `run_plan` is the one
counting loop.  It eliminates leaves first (bucket elimination, Dechter
1999): a slot with at most one neighbour is summed out into it as one weight
per target value, so a forest is counted in O(slots x n^2) per target, and
only the 2-core left, the slots on or between cycles, is walked.

`count_plan(n_slots, pairs)` fixes what does not depend on the target (the
elimination order, and the core's branching order, closed slots and memo
frontiers); `run_plan(plan, union)` runs that plan against a batch of
targets read as one poset, their `DisjointUnion`, built from items that
each hold a target's up- and down-rows and, optionally, a mask of allowed
values per slot.  A caller counting one constraint set into many targets
builds the plan once and passes every target in one call, and each fold of
a peeled slot is one pass over the rows of every target.
`condense` lists the classes of equivalent slots of a preorder, from which
a colimit's apex and `make_poset`'s cycle check are read.

Chains are not searched for: `chain_levels` grows the (n+1)-tuples of a
relation from its n-tuples, one successor at a time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator


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


def condense(closed):
    """The classes of mutually related slots of a reflexive-transitive
    relation given as row bitmasks: each class lists its members ascending,
    and the classes come in the order of their least members."""
    cols = transpose(closed, len(closed))
    classes = {}
    for s, row in enumerate(closed):
        classes.setdefault(row & cols[s], []).append(s)
    return list(classes.values())


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
    i is set iff bit at[j] of row at[i] is set in every table.  Each row is
    read off the set bits of its meet through the inverse of `at`, one mask
    per index of the positions that `at` sends there (`at` need not be
    injective), so a row costs its popcount, not a pass over `at`."""
    meet = list(functools.reduce(functools.partial(map, operator.and_), tables))
    inverse = [0] * len(meet)
    for j, b in enumerate(at):
        inverse[b] |= 1 << j
    rows = []
    for a in at:
        m = meet[a]
        row = 0
        while m:
            low = m & -m
            row |= inverse[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return rows


def _neighbours(n_slots, pairs):
    """Per-slot constraint lists: nbrs[s] lists (o, code) for every pair
    between s and another slot o, where code 0 (s <= o) or 1 (o <= s) picks
    the row table, down-rows or up-rows, that gives the values allowed for s
    once o holds a value.  A self-pair holds in every poset and is left out."""
    nbrs = [[] for _ in range(n_slots)]
    for i, j in pairs:
        if i != j:
            nbrs[i].append((j, 0))
            nbrs[j].append((i, 1))
    return nbrs


def count_plan(n_slots, pairs):
    """The target-independent part of counting the maps that satisfy `pairs`.

    Slots without constraints are free.  The others are peeled leaves first:
    a slot with at most one distinct neighbour left is eliminated into it,
    its parent (-1 if none is left: a root), from a first-in first-out queue
    that starts in index order, so no order depends on set iteration.  A
    forest is peeled whole.  What is left, the 2-core, is searched one
    branch slot per level: the unassigned core slot with most assigned core
    neighbours, ties going to the one with most core neighbours (the hub),
    then to the lower index, so the depth follows the shape of the core,
    not the names of its slots.  A core slot whose core neighbours are all
    assigned is closed instead, a factor of the count.

    The plan is (free, peeled, levels): the free slots; per peeled slot, in
    elimination order, (slot, parent, codes), with the code of each pair to
    the parent, 0 (slot <= parent) or 1 (parent <= slot); and per core level
    (branch, closed, frontier): the branch slot and the slots closed after
    it, each as (slot, cons) with cons the (level, code) pairs it must
    satisfy, and the levels before it that this level or a later one reads.
    The count of the remaining levels depends only on the frontier's values,
    so `run_plan` memoizes it by them; the frontier is None where it holds
    every earlier level, since each prefix of values is then met once.
    """
    nbrs = _neighbours(n_slots, pairs)
    free = tuple(s for s in range(n_slots) if not nbrs[s])
    left = [{o for o, _ in nbr} for nbr in nbrs]  # per slot, its unpeeled neighbours
    queue = collections.deque(s for s in range(n_slots) if len(left[s]) == 1)
    peeled = []
    while queue:
        s = queue.popleft()
        parent = left[s].pop() if left[s] else -1
        peeled.append((s, parent, tuple(code for o, code in nbrs[s] if o == parent)))
        if parent >= 0:
            left[parent].discard(s)
            if len(left[parent]) == 1:
                queue.append(parent)

    core = [[(o, code) for o, code in nbr if left[o]] for nbr in nbrs]
    assigned = [0] * n_slots  # per slot, its constraints to assigned slots
    level_of = [-1] * n_slots
    todo = {s for s in range(n_slots) if left[s]}

    def entry(s):
        return s, tuple((level_of[o], code) for o, code in core[s] if level_of[o] >= 0)

    levels = []
    while todo:
        s = min(todo, key=lambda t: (-assigned[t], -len(left[t]), t))
        branch = entry(s)
        level_of[s] = len(levels)
        todo.discard(s)
        for o, _ in core[s]:
            assigned[o] += 1
        closed = [t for t in sorted(todo) if assigned[t] == len(core[t])]
        todo.difference_update(closed)
        levels.append((branch, tuple(entry(t) for t in closed)))

    read = set()  # the levels read by level k or a later one
    planned = []
    for k in reversed(range(len(levels))):
        branch, closed = levels[k]
        read.update(level for _, cons in (branch, *closed) for level, _ in cons)
        frontier = tuple(sorted(j for j in read if j < k))
        planned.append((branch, closed, frontier if len(frontier) < k else None))
    return free, tuple(peeled), tuple(reversed(planned))


def _constant_key(values):
    """The memo key of an empty frontier: the count of the remaining levels
    is then the same after every prefix."""
    return None


def _weighted_count(mask, weights, offset):
    """The sum of weights[offset + v] over the set bits v of mask, one step
    per set bit, so that a mask over a wide target costs only its popcount."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[offset + low.bit_length() - 1]
        mask ^= low
    return total


class DisjointUnion:
    """A batch of targets read as one poset, their disjoint union, so that
    `run_plan` folds a slot over every target in one pass.

    It is built from items (up_rows, down_rows, domains): a target poset's
    rows and, unless domains is None, a mask of the values allowed for each
    slot.  `up` and `down` hold every target's rows in turn, row r being
    value r - offset[r] of its target and still a mask over that target's
    values; target t holds rows starts[t] to ends[t].  `domains` is None
    when no item has any; otherwise it holds, per slot, one mask per row:
    the values the row's target allows the slot (all of them for an item
    without domains), clipped to the target, as an item's mask may hold bits
    beyond it; and `bit` holds, per row, the mask of the row's own value, so
    that a slot allows row r's value iff domains[s][r] & bit[r].
    """

    def __init__(self, items):
        self.up, self.down, self.offset, self.starts, self.ends = [], [], [], [], []
        given = []
        for up_rows, down_rows, domains in items:
            start = len(self.up)
            self.up += up_rows
            self.down += down_rows
            self.offset += [start] * len(up_rows)
            self.starts.append(start)
            self.ends.append(len(self.up))
            given.append(domains)
        self.domains = self.bit = None
        n_slots = next((len(d) for d in given if d is not None), None)
        if n_slots is None:
            return
        by_row = []  # per row, its target's masks, clipped to the target
        for domains, start, end in zip(given, self.starts, self.ends):
            full = (1 << end - start) - 1
            if domains is None:
                masks = (full,) * n_slots
            else:
                masks = tuple(map(operator.and_, domains, itertools.repeat(full)))
            by_row += [masks] * (end - start)
        # transposed to one mask per row for each slot; with no rows, zip
        # gives no slot at all
        self.domains = list(zip(*by_row)) or [()] * n_slots
        values = map(operator.sub, range(len(self.up)), self.offset)
        self.bit = list(map(operator.lshift, itertools.repeat(1), values))

    def __len__(self):
        return len(self.starts)


def run_plan(plan, union):
    """Number of maps into each target of `union` (a `DisjointUnion`) that
    satisfy the constraints `plan` was built from, one count per target.

    The free slots are counted per target, as products of their numbers of
    allowed values.  Each peeled slot folds into its parent once for the
    whole union: one weight per row, the number of the slot's values that
    its pairs allow beside the row's value, each weighted by the trees
    folded into the slot before (a popcount when there are none); a row
    whose value the parent's domain excludes weighs 0 and is not summed.  A
    root multiplies each target's count by the sum of its weights over the
    target's rows.  A peeled slot's weights are dropped once read, so a
    call holds only a few lists as long as the union.  Last, the core is
    walked per target, on the target's rows and its rows of the weights,
    depth first with an explicit stack, one level per branch slot, each
    branch value and closed slot weighted by the trees peeled into it.  At
    a level with a frontier, the count of the remaining levels is memoized
    by the frontier's values, in one dict per level that is cleared for
    each target.  The plan is unpacked and the search state allocated once
    per call.
    """
    free, peeled, levels = plan
    n_free = len(free)
    starts, ends, domains = union.starts, union.ends, union.domains
    if domains is None:
        counts = [n**n_free for n in map(operator.sub, ends, starts)]
    else:
        counts = [
            math.prod(domains[s][start].bit_count() for s in free) if start < end else 0**n_free
            for start, end in zip(starts, ends)
        ]
    if not (peeled or levels):  # every slot is free: nothing to fold or walk
        return counts
    depth = len(levels)
    n_slots = n_free + len(peeled) + depth + sum(len(after) for _, after, _ in levels)
    tables = (union.down, union.up)
    weights = [None] * n_slots  # per weighted slot and row, its trees' count
    for s, parent, codes in peeled:
        # a slot is weighted once a tree is folded into it, and a root is:
        # it is peeled when its last neighbour is folded into it
        w, weights[s] = weights[s], None
        if parent < 0:
            sums = map(sum, map(w.__getitem__, map(slice, starts, ends)))
            counts = list(map(operator.mul, counts, sums))
            continue
        rows = tables[codes[0]]
        for other in codes[1:]:
            rows = map(operator.and_, rows, tables[other])
        if domains is not None:  # rows of values the parent excludes are zeroed
            allowed = map(bool, map(operator.and_, domains[parent], union.bit))
            rows = map(operator.mul, map(operator.and_, rows, domains[s]), allowed)
        if w is None:
            passed = map(int.bit_count, rows)
        else:
            passed = [m and _weighted_count(m, w, o) for m, o in zip(rows, union.offset)]
        below = weights[parent]
        weights[parent] = list(passed) if below is None else list(map(operator.mul, below, passed))
    if not depth:
        return counts

    branches = [branch for branch, _, _ in levels]
    closed = [after for _, after, _ in levels]
    getters = [
        None if f is None else operator.itemgetter(*f) if f else _constant_key
        for _, _, f in levels
    ]
    memo_of = [None if get is None else {} for get in getters]
    memos = [memo for memo in memo_of if memo is not None]
    stop = depth - 1
    values = [0] * depth
    masks = [0] * depth
    facs = [0] * depth
    sums = [0] * depth
    keys = [None] * depth
    for i, (start, end) in enumerate(zip(starts, ends)):
        count = counts[i]
        if not count:
            continue
        if start == end:  # the core has a slot, and the target no value for it
            counts[i] = 0
            continue
        full = (1 << end - start) - 1
        tables = (union.down[start:end], union.up[start:end])
        allow = (full,) * n_slots if domains is None else [d[start] for d in domains]
        for memo in memos:
            memo.clear()
        k = 0
        masks[0] = allow[branches[0][0]]  # the first branch slot has no constraint yet
        sums[0] = 0
        while True:
            mask = masks[k]
            if mask:
                bit = mask & -mask
                masks[k] = mask ^ bit
                v = values[k] = bit.bit_length() - 1
                w = weights[branches[k][0]]
                p = 1 if w is None else w[start + v]
                for s, cons in closed[k]:
                    if not p:
                        break
                    m = allow[s]
                    for level, code in cons:
                        m &= tables[code][values[level]]
                    w = weights[s]
                    p *= m.bit_count() if w is None else _weighted_count(m, w, start)
                if not p:
                    continue
                if k == stop:
                    sums[k] += p
                    continue
                j = k + 1
                get = getters[j]
                if get is not None:
                    key = get(values)
                    known = memo_of[j].get(key)
                    if known is not None:
                        sums[k] += p * known
                        continue
                    keys[j] = key
                s, cons = branches[j]
                m = allow[s]
                for level, code in cons:
                    m &= tables[code][values[level]]
                facs[k] = p
                sums[j] = 0
                masks[j] = m
                k = j
            elif k:
                below = sums[k]
                if getters[k] is not None:
                    memo_of[k][keys[k]] = below
                k -= 1
                sums[k] += facs[k] * below
            else:
                break
        counts[i] = count * sums[0]
    return counts


def list_maps(n_slots, up_rows, down_rows, pairs):
    """All maps into the poset with rows `up_rows` and `down_rows` that
    satisfy `pairs`, as value tuples in lexicographic order: slot s may take
    each value that its constraints to slots before it allow."""
    tables = (down_rows, up_rows)
    full = (1 << len(up_rows)) - 1
    nbrs = _neighbours(n_slots, pairs)
    back = [[(o, tables[code]) for o, code in nbrs[s] if o < s] for s in range(n_slots)]

    def options(s, values):
        mask = full
        for o, rows in back[s]:
            mask &= rows[values[o]]
        return set_bits(mask)

    return list(depth_first(n_slots, options))


def depth_first(n, options):
    """Every tuple (v_0, ..., v_{n-1}) in which each v_k is one of
    options(k, values), lazily, in the order the options list them, and
    once, when n == 0, the empty tuple.  `values` holds v_0..v_{k-1} in its
    first k entries; options may write values[k] as scratch, since the walk
    sets it before reading it.  options(k, values) is asked for right after
    values[k - 1] is set, and the last call at each depth j < k was for the
    prefix values[:j] it still holds, so options may keep state per depth,
    each grown from the depth before.  Each depth's iterator over its options
    is kept on an explicit stack, so the depth is not bounded by the
    recursion limit."""
    values = [None] * n
    if not n:
        yield ()
        return
    last = n - 1
    its = [None] * n
    its[0] = iter(options(0, values))
    k = 0
    while k >= 0:
        for v in its[k]:
            values[k] = v
            if k == last:
                yield tuple(values)
                continue
            k += 1
            its[k] = iter(options(k, values))
            break
        else:
            k -= 1


@functools.lru_cache(maxsize=1 << 12)
def set_bits(mask):
    """The indices of the set bits of mask, ascending.  The same few masks
    recur across the thousands of small posets the corpus colours and the
    maps `list_maps` and the simplicial map search list; the cache is
    bounded, not a table of all 2^n masks, as a poset may be large."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def chain_levels(above, K):
    """Levels 0..K of the tuples in which each entry is followed by one of
    its successors: above[v] lists, in order, the values that may follow v,
    and level 0 holds the 1-tuples of the keys of `above`, in their order.
    Level n + 1 extends each tuple of level n by each successor of its last
    entry, so when the successor lists follow the key order every level is
    in lexicographic order."""
    levels = [[(v,) for v in above]]
    for _ in range(K):
        levels.append([t + (v,) for t in levels[-1] for v in above[t[-1]]])
    return levels
