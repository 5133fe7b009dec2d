"""Kernel correctness against brute-force oracles."""

import functools
import itertools
import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from poscat import FinPoset, ordinal_poset, product_poset
from poscat._kernels import (
    DisjointUnion,
    backend,
    chain_levels,
    condense,
    count_plan,
    depth_first,
    list_maps,
    meet_rows,
    run_plan,
    transitive_closure,
)
from poscat.corpus import all_posets

from helpers import digest, shuffled


def run(plan, items):
    """`run_plan` on the disjoint union of `items`."""
    return run_plan(plan, DisjointUnion(items))


def naive_closure(rows):
    n = len(rows)
    mat = [[bool(rows[i] & (1 << j)) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                mat[i][j] = mat[i][j] or (mat[i][k] and mat[k][j])
    return [sum(1 << j for j in range(n) if mat[i][j]) for i in range(n)]


def naive_maps(n_slots, target, pairs):
    up = target.up_rows
    return [
        f
        for f in itertools.product(range(target.n), repeat=n_slots)
        if all(up[f[i]] >> f[j] & 1 for i, j in pairs)
    ]


def naive_count(n_slots, pairs, target, domains):
    """The maps of `naive_maps` whose every value is in its slot's domain
    (all of them when domains is None)."""
    return sum(
        domains is None or all(domains[s] >> v & 1 for s, v in enumerate(f))
        for f in naive_maps(n_slots, target, pairs)
    )


def random_relation(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.3:
                rows[i] |= 1 << j
    return rows


def random_pairs(rng, n_slots):
    return [(rng.randrange(n_slots), rng.randrange(n_slots)) for _ in range(rng.randint(0, 2 * n_slots))]


def poset_targets(rng):
    """Every poset of `all_posets(4)`, and a copy of each whose index order is
    shuffled."""
    base = all_posets(4)
    return list(base) + [shuffled(p, rng) for p in base]


def sparse_relations(rng):
    """Antichains, matchings, stars (centre below and above its leaves),
    chains in a shuffled order and random sparse relations, each with a few
    self-pairs, on up to 64 points."""
    for n in (0, 1, 2, 5, 17, 64):
        points = list(range(n))
        rng.shuffle(points)
        relations = [
            [],
            list(zip(points[::2], points[1::2])),
            [(points[0], p) for p in points[1:]],
            [(p, points[0]) for p in points[1:]],
            list(zip(points, points[1:])),
            [(rng.randrange(n), rng.randrange(n)) for _ in range(n)] if n else [],
        ]
        for relation in relations:
            rows = [0] * n
            for i, j in relation + [(p, p) for p in points[:2]]:
                rows[i] |= 1 << j
            yield rows


def test_closure_against_naive():
    rng = random.Random(7)
    relations = [random_relation(rng, rng.randint(0, 8)) for _ in range(50)]
    for rows in relations + list(sparse_relations(rng)):
        assert transitive_closure(rows) == naive_closure(rows)


def test_maps_against_naive():
    rng = random.Random(11)
    targets = poset_targets(rng)
    for _ in range(80):
        n_slots = rng.randint(0, 6)
        pairs = random_pairs(rng, n_slots) if n_slots else []
        if n_slots and rng.random() < 0.5:
            s = rng.randrange(n_slots)
            pairs.append((s, s))  # a self-pair, which every poset satisfies
        plan = count_plan(n_slots, pairs)
        for target in rng.sample(targets, 4):
            up, down = target.up_rows, target.down_rows
            expected = naive_maps(n_slots, target, pairs)
            got = list_maps(n_slots, up, down, pairs)
            assert got == expected  # lexicographic order matches itertools.product
            assert run(plan, [(up, down, None)]) == [len(expected)]
            # one random mask of allowed values per slot
            domains = [rng.randrange(1 << target.n) for _ in range(n_slots)]
            inside = [f for f in expected if all(domains[s] >> v & 1 for s, v in enumerate(f))]
            assert run(plan, [(up, down, domains)]) == [len(inside)]


@st.composite
def constraint_graphs(draw):
    """A slot count up to 6 and constraint pairs among the slots, self-pairs
    included."""
    n_slots = draw(st.integers(0, 6))
    if not n_slots:
        return 0, []
    slot = st.integers(0, n_slots - 1)
    return n_slots, draw(st.lists(st.tuples(slot, slot), max_size=2 * n_slots))


@st.composite
def random_posets(draw):
    """The empty poset, a one-point poset, or the closure of a random relation
    on up to 4 elements that only goes up in a random order of the indices."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4]))
    order = draw(st.permutations(range(n)))
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            rows[order[a]] |= 1 << order[b]
    return FinPoset([str(i) for i in range(n)], naive_closure(rows))


@st.composite
def batches(draw, n_slots):
    """1-5 items (target, domains), domains None half the time and otherwise
    one random mask per slot, which may hold bits beyond the target."""
    items = []
    for target in draw(st.lists(random_posets(), min_size=1, max_size=5)):
        mask = st.integers(0, (1 << target.n + 2) - 1)
        domains = draw(st.none() | st.lists(mask, min_size=n_slots, max_size=n_slots))
        items.append((target, domains))
    return items


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_runs_match_the_naive_count(data):
    n_slots, pairs = data.draw(constraint_graphs())
    batch = data.draw(batches(n_slots))
    expected = [naive_count(n_slots, pairs, target, domains) for target, domains in batch]
    plan = count_plan(n_slots, pairs)
    items = [(t.up_rows, t.down_rows, domains) for t, domains in batch]
    assert run(plan, items) == expected
    assert [run(plan, [item])[0] for item in items] == expected


def tree_count(n_slots, pairs, target, domains):
    """Independent oracle for a forest of constraints: eliminate one leaf at
    a time, folding into its neighbour's weight per value the number of the
    leaf's values that the pair between them allows."""
    up = target.up_rows
    weight = [
        [int(domains is None or domains[s] >> v & 1) for v in range(target.n)]
        for s in range(n_slots)
    ]
    edges = {s: [] for s in range(n_slots)}
    for i, j in pairs:
        edges[i].append((j, i, j))
        edges[j].append((i, i, j))
    total = 1
    while edges:
        leaf = next(s for s in edges if len(edges[s]) <= 1)
        if not edges[leaf]:
            total *= sum(weight[leaf])
        else:
            ((u, i, j),) = edges[leaf]
            for x in range(target.n):
                weight[u][x] *= sum(
                    w
                    for y, w in enumerate(weight[leaf])
                    if (up[y] >> x if i == leaf else up[x] >> y) & 1
                )
            edges[u].remove((leaf, i, j))
        del edges[leaf]
    return total


def crown(k):
    """The cover pairs of the crown on 2k elements: minima 0..k-1, maxima
    k..2k-1, minimum i below maxima k+i and k+(i+1 mod k), a 2k-cycle."""
    return [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)]


def test_memoized_runs_count_paths_and_trees():
    # paths and random trees of 6-10 slots under shuffled names, with and
    # without domains, are peeled whole: their plans have no levels, so no
    # count enumerates their maps
    rng = random.Random(29)
    targets = poset_targets(rng)
    for round_ in range(60):
        path = round_ % 2
        n_slots = rng.randint(6, 10)
        names = rng.sample(range(n_slots), n_slots)
        pairs = []
        for s in range(1, n_slots):
            other = s - 1 if path else rng.randrange(s)
            i, j = (other, s) if rng.random() < 0.5 else (s, other)
            pairs.append((names[i], names[j]))
        free, peeled, levels = count_plan(n_slots, pairs)
        assert (free, levels) == ((), ())
        assert sorted(s for s, _, _ in peeled) == list(range(n_slots))
        assert [parent for _, parent, _ in peeled].count(-1) == 1  # one tree, one root
        batch = []
        for target in rng.sample(targets, 6):
            masks = [rng.randrange(1 << target.n) for _ in range(n_slots)]
            batch.append((target, None if rng.random() < 0.5 else masks))
        expected = [tree_count(n_slots, pairs, t, d) for t, d in batch]
        items = [(t.up_rows, t.down_rows, d) for t, d in batch]
        assert run((free, peeled, levels), items) == expected
    # cycles are walked: ladders (the cover graphs of [n] x [1]) and crowns
    # of six or eight elements reach a frontier level, where the memo holds
    # the count of the remaining levels; a diamond ([1] x [1], a 4-cycle)
    # with trees hung on it keeps its four corners as the core and weights
    # them by the trees
    small = [t for t in targets if t.n <= 3]

    def ladder(n):
        return 2 * n + 2, list(product_poset(ordinal_poset(n), ordinal_poset(1)).cover_pairs)

    diamond = ladder(1)[1] + [(4, 0), (5, 4), (3, 6)]  # a path of two and a leaf hung on
    shapes = [(*ladder(n), 0, n > 1) for n in (1, 2, 3)]
    shapes += [(2 * k, crown(k), 0, k > 2) for k in (2, 3, 4)]
    shapes.append((7, diamond, 3, False))
    for n_slots, pairs, n_peeled, memoized in shapes:
        names = rng.sample(range(n_slots), n_slots)
        pairs = [(names[i], names[j]) for i, j in pairs]
        free, peeled, levels = count_plan(n_slots, pairs)
        assert (len(free), len(peeled)) == (0, n_peeled)
        assert n_peeled + len(levels) + sum(len(closed) for _, closed, _ in levels) == n_slots
        assert any(frontier is not None for _, _, frontier in levels) == memoized
        batch = []
        for target in rng.sample(small if n_slots > 6 else targets, 4):
            masks = [rng.randrange(1 << target.n) for _ in range(n_slots)]
            batch.append((target, None if rng.random() < 0.5 else masks))
        expected = [naive_count(n_slots, pairs, t, d) for t, d in batch]
        items = [(t.up_rows, t.down_rows, d) for t, d in batch]
        assert run((free, peeled, levels), items) == expected


def test_a_union_of_every_small_poset_counts_each_target_alone():
    # every poset of all_posets(4), the empty one included, and a shuffled
    # copy of each side by side: targets of 0 to 4 elements in one union,
    # every other one with domains, some masks wider than their target
    rng = random.Random(43)
    targets = poset_targets(rng)
    assert [t.n for t in targets].count(0) == 2
    forest = (5, [(0, 1), (2, 1), (1, 3)])  # a tree and a free slot
    # a diamond, with a leaf hung on its first branch slot and one on its
    # closed corner
    cored = (6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 0)])
    for (n_slots, pairs), has_core in [(forest, False), (cored, True)]:
        plan = count_plan(n_slots, pairs)
        assert bool(plan[2]) == has_core
        batch = []
        for k, target in enumerate(targets):
            width = target.n + rng.randint(0, 2)
            masks = [rng.randrange(1 << width) for _ in range(n_slots)]
            batch.append((target, masks if k % 2 else None))
        expected = [naive_count(n_slots, pairs, t, d) for t, d in batch]
        items = [(t.up_rows, t.down_rows, d) for t, d in batch]
        assert run(plan, items) == expected
        assert [run(plan, [item])[0] for item in items] == expected
        assert 0 < sum(map(bool, expected)) < len(expected)


def meet_rows_reference(tables, at):
    """The pass over `at` per row that `meet_rows` reads off set bits."""
    meet = list(functools.reduce(functools.partial(map, operator.and_), tables))
    return [sum(1 << j for j, b in enumerate(at) if meet[a] >> b & 1) for a in at]


def test_meet_rows_against_a_pass_per_row():
    # one table or several, read through the identity, a permutation, or a
    # map that need not be injective nor onto, as `class_to_apex` is
    rng = random.Random(47)
    for round_ in range(300):
        n = rng.randint(0, 8)
        tables = [random_relation(rng, n) for _ in range(rng.randint(1, 3))]
        if round_ % 3 == 0:
            at = list(range(n))
        elif round_ % 3 == 1:
            at = rng.sample(range(n), n)
        else:
            at = [rng.randrange(n) for _ in range(rng.randint(0, n + 3))] if n else []
        assert meet_rows(tables, at) == meet_rows_reference(tables, at)


def test_list_maps_runs_deep_chains():
    # 3000 chained slots into a one-element target: deeper than the recursion limit
    pairs = [(k, k + 1) for k in range(2999)]
    assert list_maps(3000, (1,), (1,), pairs) == [(0,) * 3000]


def test_depth_first_walks_the_options_in_order():
    # independent option lists: the walk is itertools.product
    for opts in ([[2, 0], [5, 3, 4], [1]], [["a"]] * 4, [[0, 1], [0, 1, 2]]):
        got = list(depth_first(len(opts), lambda k, values: opts[k]))
        assert got == list(itertools.product(*opts))
    # options that depend on the values before them: strictly decreasing
    # triples below 5, each entry tried from the top down
    got = list(depth_first(3, lambda k, values: range(values[k - 1] - 1 if k else 4, -1, -1)))
    assert got == sorted((c[::-1] for c in itertools.combinations(range(5), 3)), reverse=True)
    # no slots: the one empty tuple; an empty option list: nothing
    assert list(depth_first(0, lambda k, values: [1])) == [()]
    assert list(depth_first(3, lambda k, values: [] if k == 1 else [0, 1])) == []


def test_depth_first_runs_deeper_than_the_recursion_limit():
    got = list(depth_first(5000, lambda k, values: (values[k - 1] + 1 if k else 0,)))
    assert got == [tuple(range(5000))]


def test_count_handles_disconnected_slots():
    # ten unconstrained slots over a three-element target: counted, not enumerated
    assert run(count_plan(10, []), [((1, 2, 4), (1, 2, 4), None)]) == [3**10]


def test_chain_levels_grow_every_walk_in_order():
    # the chain condition grows the tuples of an edge relation that need be
    # neither reflexive nor transitive
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(0, 5)
        rows = random_relation(rng, n)
        above = {a: [b for b in range(n) if rows[a] >> b & 1] for a in range(n)}
        K = rng.randint(0, 3)
        levels = chain_levels(above, K)
        assert len(levels) == K + 1
        for k, level in enumerate(levels):
            assert level == [
                t
                for t in itertools.product(range(n), repeat=k + 1)
                if all(rows[a] >> b & 1 for a, b in zip(t, t[1:]))
            ]


def test_backend_reports_a_known_name():
    assert backend() == "pure"


def same_closure(rng, n_slots, pairs):
    """Another pair list with the reflexive-transitive closure of `pairs`:
    every pair of the closure, some self-pairs, a few repeats, shuffled."""
    rows = [0] * n_slots
    for i, j in pairs:
        rows[i] |= 1 << j
    closed = naive_closure(rows)
    out = [
        (i, j)
        for i in range(n_slots)
        for j in range(n_slots)
        if closed[i] >> j & 1 and (i != j or rng.random() < 0.2)
    ]
    out += rng.choices(out, k=min(2, len(out)))
    rng.shuffle(out)
    return out


def naive_classes(closed):
    """The classes of mutual reachability, each ascending, by least member."""
    n = len(closed)
    classes = []
    for s in range(n):
        if not any(s in c for c in classes):
            classes.append([t for t in range(n) if closed[s] >> t & 1 and closed[t] >> s & 1])
    return classes


def test_condense_against_naive():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(0, 7)
        closed = naive_closure(random_relation(rng, n))
        assert condense(closed) == naive_classes(closed)
    assert condense([0b011, 0b011, 0b100]) == [[0, 1], [2]]
    assert condense([0b101, 0b111, 0b101]) == [[0, 2], [1]]


def test_equal_closures_count_alike_into_posets():
    # a plan counts a pair list's solutions, within any per-slot domains;
    # into a poset, a list with the same closure has as many: the plan of a
    # poset's cover pairs counts the maps out of any preorder it condenses
    rng = random.Random(17)
    targets = poset_targets(rng)
    items = [(t.up_rows, t.down_rows, None) for t in targets]
    for _ in range(40):
        n_slots = rng.choice([1, 2, 2, 3, 3, 4, 5])
        pairs = []
        for _ in range(rng.randint(0, 2 * n_slots)):
            i, j = rng.randrange(n_slots), rng.randrange(n_slots)
            # an identification is two pairs, one in each direction
            pairs += [(i, j), (j, i)] if rng.random() < 0.5 else [(i, j)]
        other = same_closure(rng, n_slots, pairs)
        plan = count_plan(n_slots, pairs)
        assert run(count_plan(n_slots, other), items) == run(plan, items)
        for target in targets:
            expected = naive_maps(n_slots, target, pairs)
            domains = [rng.randrange(1 << target.n) for _ in range(n_slots)]
            inside = [f for f in expected if all(domains[s] >> v & 1 for s, v in enumerate(f))]
            assert run(plan, [(target.up_rows, target.down_rows, domains)]) == [len(inside)]


def test_plans_without_levels_match_the_naive_count():
    # no slot, only free slots, or only self-pairs: every slot is free, so
    # the plan has no level; into the empty poset too (0 ** 0 == 1), with
    # empty domains and domains with bits beyond the target
    targets = all_posets(3)
    assert targets[0].n == 0
    for n_slots, pairs in [(0, []), (1, []), (3, []), (1, [(0, 0)]), (2, [(1, 1), (0, 0)])]:
        plan = count_plan(n_slots, pairs)
        assert plan == (tuple(range(n_slots)), (), ())
        assert run(plan, []) == []
        batch = []
        for target in targets:
            wide = (1 << target.n + 2) - 1
            for masks in itertools.product((0, 0b1, 0b101, wide), repeat=n_slots):
                batch.append((target, list(masks)))
            batch.append((target, None))
        expected = [naive_count(n_slots, pairs, t, domains) for t, domains in batch]
        items = [(t.up_rows, t.down_rows, domains) for t, domains in batch]
        assert run(plan, items) == expected
        assert set(expected[: 4**n_slots + 1]) == {0**n_slots}  # into the empty poset


def depth(plan):
    return len(plan[2])


def is_forest(n, pairs):
    """Whether the graph of `pairs`, which has no parallel pairs, on n slots
    has no cycle: no pair joins two slots already connected."""
    root = list(range(n))

    def find(s):
        while root[s] != s:
            s = root[s]
        return s

    for i, j in pairs:
        a, b = find(i), find(j)
        if a == b:
            return False
        root[a] = b
    return True


def test_plan_depth_ignores_names():
    # a forest is peeled whole, so its plan has no levels; the rest is
    # walked hub first, in an order that follows the shape, so every
    # relabelling of a poset's cover pairs gets a plan of one depth
    forests = 0
    for poset in all_posets(5):
        depths = {
            depth(count_plan(poset.n, [(perm[i], perm[j]) for i, j in poset.cover_pairs]))
            for perm in itertools.permutations(range(poset.n))
        }
        assert len(depths) == 1, poset.name
        assert (depths == {0}) == is_forest(poset.n, poset.cover_pairs), poset.name
        forests += depths == {0}
    assert 0 < forests < len(all_posets(5))
    assert depth(count_plan(3, [(0, 2), (1, 2)])) == 0  # the V
    # a chain's plan follows its cover pairs, a path
    for n in (3, 4):
        assert depth(ordinal_poset(n - 1).count_plan) == 0
    # the diamond: a branch, two more, and the last corner closed
    assert depth(count_plan(4, [(0, 1), (0, 2), (1, 3), (2, 3)])) == 3


# `digest` of the `repr` of each row below, in `all_posets` order; the same
# under PYTHONHASHSEED 1, 2 and 3
HOM_TABLE_DIGEST = "43aeaefafad0dbf8013f60daabba6dd919a6221fbbce9f2d558011e06b9def1d"


def test_hom_table_of_four_points_into_six_points_is_pinned():
    """Same counts, from one batched run per source: hom(F, T) for the 25
    posets F of at most four points and the 406 posets T of at most six.
    Its columns are pairwise distinct, Lovasz's certificate that no two
    classes of the corpus are isomorphic (sources of at most three points
    leave only 381 distinct columns)."""
    targets = all_posets(6)
    union = DisjointUnion((t.up_rows, t.down_rows, None) for t in targets)
    rows = []
    for source in all_posets(4):
        rows.append(run_plan(count_plan(source.n, source.cover_pairs), union))
    assert len(set(zip(*rows))) == len(targets) == 406
    assert digest(repr(row) for row in rows) == HOM_TABLE_DIGEST
