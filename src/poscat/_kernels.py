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
counting loop: it multiplies the counts of closed slots instead of listing
them.  A slot closed at a level whose constraints all point at that level's
branch is a leaf; when the last level closes only leaves, `run_plan` turns
them into one weight per target value and counts that level in one pass, as
the sum of the weights over the branch's allowed values, so a one-level plan
is one sum per target.  A plan without levels, whose slots are all free, is
answered in one pass over the batch: per target, the product of the free
slots' numbers of allowed values.

Counting is split in two: `count_plan(n_slots, pairs)` fixes everything that
does not depend on the target (the branching order, the slots closed at each
level and where the count of the remaining levels may be memoized), and
`run_plan(plan, items)` runs that plan against a batch of targets, each item
holding a target's up- and down-rows and, optionally, a mask of allowed
values per slot.  A caller counting one constraint set into many targets
builds the plan once and passes every target in one call, so the plan is
unpacked and the search state allocated once per batch.  `hasse_plan`
builds the plan of a preorder from its Hasse diagram.

Chains are not searched for: `chain_levels` grows the (n+1)-tuples of a
relation from its n-tuples, one successor at a time.
"""

from __future__ import annotations

import functools
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

    The search branches on one slot per level, always the unassigned slot
    with most assigned neighbours; ties go to the slot with most neighbours
    (the hub, whose value closes its leaves), then to the lower index, so
    the depth of a plan follows the shape of the constraint graph, not the
    names of its slots.  A slot whose neighbours are all assigned is closed
    instead: it contributes its number of allowed values as a factor, so a
    star is counted in one level, its leaves never enumerated.  Which slots
    are assigned at each level does not depend on the values, so the whole
    order is fixed here.

    The plan is (free, levels): the unconstrained slots, and per level
    (branch, closed, frontier): the branch slot and the slots closed after
    it, each as (slot, cons) with cons the (level, code) pairs it must
    satisfy, and the levels before it that this level or a later one reads.
    The count of the remaining levels depends only on the frontier's values,
    so `run_plan` memoizes it by them; the frontier is None where it holds
    every earlier level, since each prefix of values is then met once.
    """
    nbrs = _neighbours(n_slots, pairs)
    degree = [len({o for o, _ in nbr}) for nbr in nbrs]
    assigned = [0] * n_slots  # per slot, its constraints to assigned slots
    level_of = [-1] * n_slots
    todo = {s for s in range(n_slots) if nbrs[s]}
    free = tuple(s for s in range(n_slots) if not nbrs[s])

    def entry(s):
        return s, tuple((level_of[o], code) for o, code in nbrs[s] if level_of[o] >= 0)

    levels = []
    while todo:
        s = min(todo, key=lambda t: (-assigned[t], -degree[t], t))
        branch = entry(s)
        level_of[s] = len(levels)
        todo.discard(s)
        for o, _ in nbrs[s]:
            assigned[o] += 1
        closed = [t for t in sorted(todo) if assigned[t] == len(nbrs[t])]
        todo.difference_update(closed)
        levels.append((branch, tuple(entry(t) for t in closed)))

    read = set()  # the levels read by level k or a later one
    planned = []
    for k in reversed(range(len(levels))):
        branch, closed = levels[k]
        read.update(level for _, cons in (branch, *closed) for level, _ in cons)
        frontier = tuple(sorted(j for j in read if j < k))
        planned.append((branch, closed, frontier if len(frontier) < k else None))
    return free, tuple(reversed(planned))


def hasse_plan(closed):
    """The plan of a reflexive-transitive relation on slots (row bitmasks),
    compiled from its Hasse diagram.  Into a poset, a map satisfies such a
    relation exactly when it is constant on each class of equivalent slots
    and monotone on the poset of classes, that is, on its cover pairs; so
    the plan has one slot per class, in the order of their least members,
    and one pair per cover, and counts as a plan of `closed` itself would."""
    n = len(closed)
    cols = transpose(closed, n)
    above = [row & ~col for row, col in zip(closed, cols)]  # strictly above
    reps = [s for s in range(n) if not closed[s] & cols[s] & ((1 << s) - 1)]
    index = {r: k for k, r in enumerate(reps)}
    pairs = []
    for k, r in enumerate(reps):
        beyond = 0
        for s in set_bits(above[r]):
            beyond |= above[s]
        pairs += [(k, index[t]) for t in set_bits(above[r] & ~beyond) if t in index]
    return count_plan(len(reps), pairs)


def _constant_key(values):
    """The memo key of an empty frontier: the count of the remaining levels
    is then the same after every prefix."""
    return None


def _weighted_count(mask, weights):
    """The sum of weights[v] over the set bits v of mask, or the number of
    set bits when weights is None, one step per set bit, so that a mask over
    a wide target costs only its popcount."""
    if weights is None:
        return mask.bit_count()
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def run_plan(plan, items):
    """Number of maps into each target that satisfy the constraints `plan`
    was built from, one count per item of `items`.

    Each item is (up_rows, down_rows, domains): the target poset's rows and,
    unless domains is None, a mask of the values allowed for each slot.  The
    plan is unpacked and the search state allocated once for the batch; each
    item is then run depth first with an explicit stack, one level per branch
    slot, each level summing the counts below its values.  At a level with a
    frontier, the count of the remaining levels is memoized by the
    frontier's values, in one dict per level that is cleared for each item;
    so a path or a tree of constraints costs O(levels x n^2) per target, not
    one step per map.

    A leaf of a level is a slot it closes whose every constraint points at
    that level's branch.  When every slot the last level closes is a leaf,
    that level is not walked: each item turns its leaves into one weight per
    target value, W[v] = prod over the leaves of the number of values the
    leaf may take when the branch holds v, and the level's count under a
    mask of branch values is the sum of W over the mask (its popcount, if
    it has no leaves), memoized by the frontier like a walked level's
    count.  A one-level plan is then one sum per target.

    A plan without levels has only free slots, so it is not walked at all:
    the whole batch is answered in one pass, each item's count being
    len(up_rows) ** len(free), or with domains the product over the free
    slots of the number of allowed values inside the target.
    """
    free, levels = plan
    depth = len(levels)
    if not depth:  # every slot is free: a product of the slots' counts
        n_free = len(free)
        return [
            len(up_rows) ** n_free
            if domains is None
            else math.prod((((1 << len(up_rows)) - 1) & domains[s]).bit_count() for s in free)
            for up_rows, _, domains in items
        ]
    branches = [branch for branch, _, _ in levels]
    closed = [after for _, after, _ in levels]
    getters = [
        None if f is None else operator.itemgetter(*f) if f else _constant_key
        for _, _, f in levels
    ]
    memo_of = [None if get is None else {} for get in getters]
    memos = [memo for memo in memo_of if memo is not None]
    n_slots = len(free) + depth + sum(map(len, closed))
    # the last level's leaves as (slot, code, further cons): a closed slot's
    # constraints point at its own level or earlier ones, so it is a leaf
    # when its least level is its own
    leaves = [
        (s, cons[0][1], cons[1:])
        for s, cons in closed[-1]
        if min(cons)[0] == depth - 1
    ]
    summed = len(leaves) == len(closed[-1])
    # the walk either counts the visits of its last level, `stop`, or sums
    # the level below `tail` at each descent from it; the other is -1
    stop = -1 if summed else depth - 1
    tail = depth - 2 if summed else -1
    values = [0] * depth
    masks = [0] * depth
    facs = [0] * depth
    sums = [0] * depth
    keys = [None] * depth
    out = []
    for up_rows, down_rows, domains in items:
        full = (1 << len(up_rows)) - 1
        if domains is None:
            start = (full,) * n_slots
            prod = len(up_rows) ** len(free)
        else:
            start = [full & d for d in domains]
            prod = 1
            for s in free:
                prod *= start[s].bit_count()
        if not prod:
            out.append(0)
            continue
        tables = (down_rows, up_rows)
        weights = None
        if summed:
            for s, code, more in leaves:
                rows = tables[code]
                for _, other in more:
                    rows = map(operator.and_, rows, tables[other])
                if domains is not None:
                    rows = map(start[s].__and__, rows)
                w = map(int.bit_count, rows)
                weights = list(w) if weights is None else list(map(operator.mul, weights, w))
            if tail < 0:  # one level, which closes at least one leaf
                mask = start[branches[0][0]]
                below = sum(weights) if mask == full else _weighted_count(mask, weights)
                out.append(prod * below)
                continue
        for memo in memos:
            memo.clear()
        k = 0
        masks[0] = start[branches[0][0]]  # the first branch slot has no constraint yet
        sums[0] = 0
        while True:
            mask = masks[k]
            if mask:
                bit = mask & -mask
                masks[k] = mask ^ bit
                values[k] = bit.bit_length() - 1
                p = 1
                for s, cons in closed[k]:
                    m = start[s]
                    for level, code in cons:
                        m &= tables[code][values[level]]
                    p *= m.bit_count()
                    if not p:
                        break
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
                m = start[s]
                for level, code in cons:
                    m &= tables[code][values[level]]
                if k == tail:
                    below = _weighted_count(m, weights)
                    if get is not None:
                        memo_of[j][key] = below
                    sums[k] += p * below
                    continue
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
        out.append(prod * sums[0])
    return out


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
    sets it before reading it.  Each depth's iterator over its options is
    kept on an explicit stack, so the depth is not bounded by the recursion
    limit."""
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
    maps `list_maps` lists; the cache is bounded, not a table of all 2^n
    masks, as a poset may be large."""
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
