"""Poset construction, chains, extensions, retractions, isomorphism search."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poscat import (
    CycleError,
    MonotoneMap,
    NotSplitMonoError,
    PosetError,
    count_monotone_maps,
    find_isomorphism,
    intersection_of_extensions,
    isomorphisms,
    linear_extensions,
    make_poset,
    monotone_maps,
    ordinal_poset,
    product_poset,
    split_retraction,
)
from poscat import _kernels
from poscat._kernels import transitive_closure
from poscat.corpus import all_posets
from poscat.posets import FinPoset, chain_counts, colour_ranks, signatures

from helpers import (
    chains,
    colour_rounds,
    nested_colours,
    pairwise_order_error,
    shuffled,
    singleton,
    three_chain,
    two_antichain,
    two_chain,
    v_poset,
)


def test_make_poset_closure():
    p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")
    assert p.leq("a", "a")


def test_make_poset_antichain():
    p = make_poset(["a", "b"], [])
    assert not p.leq("a", "b") and not p.leq("b", "a")


def test_make_poset_cycle_error_reports_cycle():
    with pytest.raises(CycleError) as err:
        make_poset(["a", "b"], [("a", "b"), ("b", "a")])
    assert set(err.value.cycle) == {"a", "b"}
    with pytest.raises(CycleError):
        make_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    # of two cycles, the one through the least element on any cycle: the
    # declared path from that element to the next least on its cycle and
    # back, whatever the order of the names along it
    with pytest.raises(CycleError) as err:
        make_poset(
            "abcdef", [("e", "d"), ("d", "e"), ("f", "b"), ("b", "c"), ("c", "f"), ("a", "b")]
        )
    assert err.value.cycle == ("b", "c", "f")
    assert str(err.value) == "antisymmetry violation: b <= c <= f <= b"
    with pytest.raises(CycleError) as err:
        make_poset("wxyz", [("z", "y"), ("y", "x"), ("x", "z"), ("w", "x")])
    assert err.value.cycle == ("x", "z", "y")


def test_make_poset_rejects_duplicates_and_unknowns():
    with pytest.raises(PosetError):
        make_poset(["a", "a"], [])
    with pytest.raises(PosetError):
        make_poset(["a"], [("a", "z")])


def test_chains_two_chain():
    assert chains(two_chain(), 1) == [("0", "0"), ("0", "1"), ("1", "1")]


def test_chains_singleton():
    for n in range(4):
        assert len(chains(singleton(), n)) == 1


def test_chains_antichain():
    assert chains(two_antichain(), 1) == [("a", "a"), ("b", "b")]


def brute_chains(poset, n, strict=False):
    out = []
    for t in itertools.product(poset.elements, repeat=n + 1):
        ok = all(poset.leq(a, b) for a, b in zip(t, t[1:]))
        if strict:
            ok = ok and all(a != b for a, b in zip(t, t[1:]))
        if ok:
            out.append(t)
    return sorted(out)


def test_chains_against_brute_force():
    # in order, not after sorting: the nerve lists its simplices in this order.
    # The shuffled copies and [10] (where "10" < "2") list their elements in
    # an index order that is not their name order.
    rng = random.Random(5)
    base = all_posets(4)
    for poset in [*base, *(shuffled(p, rng) for p in base), ordinal_poset(10)]:
        for n in range(4):
            assert chains(poset, n) == brute_chains(poset, n)
            assert chains(poset, n, strict=True) == brute_chains(poset, n, strict=True)


def test_chain_count_equals_monotone_map_count():
    # chains of length n are the monotone maps out of the (n+1)-chain
    for poset in all_posets(4):
        for n in range(3):
            assert len(chains(poset, n)) == count_monotone_maps(ordinal_poset(n), poset)


def test_cover_pairs_against_brute_force():
    # (i, j) with i strictly below j and nothing strictly between, in index
    # order, also where the index order is not an order of the poset
    rng = random.Random(31)
    for base in all_posets(5):
        for p in (base, shuffled(base, rng)):
            lt = [[i != j and p.up_rows[i] >> j & 1 for j in range(p.n)] for i in range(p.n)]
            want = [
                (i, j)
                for i in range(p.n)
                for j in range(p.n)
                if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(p.n))
            ]
            assert list(p.cover_pairs) == want, p.name


def test_linear_extensions_counts():
    assert len(linear_extensions(two_antichain())) == 2
    assert len(linear_extensions(three_chain())) == 1
    exts = linear_extensions(v_poset())
    assert [e.sorted_by_order() for e in exts] == [("a", "b", "c"), ("b", "a", "c")]


def test_linear_extensions_in_lexicographic_order():
    # every permutation of the indices that puts nothing after an element
    # below it, in itertools.permutations order; over every poset of at most
    # five elements and a seeded sample of the seven-element classes
    rng = random.Random(29)
    sevens = random.Random(7).sample([p for p in all_posets(7) if p.n == 7], 12)
    for base in (*all_posets(5), *sevens):
        for p in (base, shuffled(base, rng)):
            want = [
                seq
                for seq in itertools.permutations(range(p.n))
                if not any(p.up_rows[b] >> a & 1 for a, b in itertools.combinations(seq, 2))
            ]
            got = [tuple(map(p.index, ext.sorted_by_order())) for ext in linear_extensions(p)]
            assert got == want


def test_linear_extensions_are_extensions():
    p = v_poset()
    for ext in linear_extensions(p):
        assert ext.is_total
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    assert ext.leq(x, y)


def test_intersection_of_extensions_small():
    for p in (two_antichain(), three_chain(), v_poset()):
        assert intersection_of_extensions(p).up_rows == p.up_rows


def test_split_retraction_paper_example():
    src = make_poset(["x0", "x1"], [("x0", "x1")])
    tgt = ordinal_poset(3)
    f = MonotoneMap(src, tgt, ("1", "3"))
    g = split_retraction(f)
    assert tuple(g(t) for t in ("0", "1", "2", "3")) == ("x0", "x0", "x0", "x1")


def test_split_retraction_identity_and_face():
    p = ordinal_poset(2)
    assert split_retraction(MonotoneMap.identity(p)).values == p.elements
    f = MonotoneMap(ordinal_poset(1), ordinal_poset(2), ("0", "2"))
    g = split_retraction(f)
    assert tuple(g(t) for t in ("0", "1", "2")) == ("0", "0", "1")


def test_split_retraction_is_left_inverse():
    # all injective monotone maps between small chains
    for n in range(3):
        for m in range(n, 4):
            src, tgt = ordinal_poset(n), ordinal_poset(m)
            for f in monotone_maps(src, tgt):
                if not f.is_injective:
                    continue
                g = split_retraction(f)
                assert all(g(f(x)) == x for x in src.elements)


def test_split_retraction_is_the_least_retraction():
    # brute force over every injective monotone map [a] -> [b] with a <= 4 and
    # b <= 5: g is the pointwise least monotone map [b] -> [a] with g(f(x)) = x
    swept = 0
    for a in range(5):
        for b in range(a, 6):
            for image in itertools.combinations(range(b + 1), a + 1):
                f = MonotoneMap(ordinal_poset(a), ordinal_poset(b), tuple(map(str, image)))
                retractions = [
                    g
                    for g in itertools.combinations_with_replacement(range(a + 1), b + 1)
                    if all(g[image[x]] == x for x in range(a + 1))
                ]
                least = tuple(str(min(g[t] for g in retractions)) for t in range(b + 1))
                assert split_retraction(f).values == least
                swept += 1
    assert swept == 119


def test_split_retraction_preconditions():
    with pytest.raises(NotSplitMonoError):
        split_retraction(MonotoneMap(ordinal_poset(1), ordinal_poset(0), ("0", "0")))
    v = v_poset()
    with pytest.raises(NotSplitMonoError):
        split_retraction(MonotoneMap.identity(v))


def test_find_isomorphism_examples():
    p = two_chain()
    q = make_poset(["lo", "hi"], [("lo", "hi")])
    iso = find_isomorphism(p, q)
    assert iso is not None and iso("0") == "lo" and iso("1") == "hi"
    assert find_isomorphism(p, two_antichain()) is None
    relabeled = make_poset(["x", "y", "z"], [("x", "z"), ("y", "z")])
    assert len(isomorphisms(v_poset(), relabeled)) == 2
    assert find_isomorphism(v_poset(), relabeled) is not None


def test_find_isomorphism_symmetry():
    posets = all_posets(4)
    for p in posets:
        for q in posets:
            assert (find_isomorphism(p, q) is None) == (find_isomorphism(q, p) is None)


def test_isomorphism_is_order_isomorphism():
    iso = find_isomorphism(v_poset(), make_poset(["x", "y", "z"], [("x", "z"), ("y", "z")]))
    assert iso.is_order_isomorphism()
    assert iso.inverse().is_order_isomorphism()


def test_product_poset():
    p = product_poset(two_chain(), two_antichain())
    assert p.n == 4
    assert p.leq("0,a", "1,a") and not p.leq("0,a", "1,b")


def test_monotone_map_validation():
    with pytest.raises(PosetError):
        MonotoneMap(two_chain(), two_chain(), ("1", "0"))


def test_height():
    assert three_chain().height == 2
    assert two_antichain().height == 0
    assert v_poset().height == 1


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((str(i), str(j)))
    return make_poset([str(i) for i in range(n)], pairs)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_intersection_property_randomized(p):
    assert intersection_of_extensions(p).up_rows == p.up_rows


@settings(max_examples=40, deadline=None)
@given(small_posets(), st.integers(min_value=0, max_value=2))
def test_chains_brute_force_randomized(p, n):
    assert chains(p, n) == brute_chains(p, n)


@st.composite
def relabelled_pairs(draw):
    """A poset on at most five elements, a copy of it with new names and the
    elements shuffled, the shuffle, and another poset of the same size."""
    n = draw(st.integers(min_value=0, max_value=5))

    def poset():
        pairs = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
        return make_poset([str(i) for i in range(n)], pairs)

    p, other = poset(), poset()
    perm = draw(st.permutations(range(n)))  # p's element i becomes the copy's element perm[i]
    inverse = [perm.index(k) for k in range(n)]
    rows = [sum(1 << perm[j] for j in range(n) if p.up_rows[inverse[k]] >> j & 1) for k in range(n)]
    return p, FinPoset([f"x{inverse[k]}" for k in range(n)], rows), perm, other


def brute_isomorphisms(p, q):
    """Every order isomorphism p -> q as the tuple of target indices of p's
    elements, sorted by its images in the search's placement order: fewest
    same-colour candidates first, then index, with p and q coloured through
    one `signatures` table."""
    if p.n != q.n:
        return []
    table = {}
    sp, sq = signatures(p, table), signatures(q, table)
    order = sorted(range(p.n), key=lambda i: (sq.count(sp[i]), i))
    return sorted(
        (
            perm
            for perm in itertools.permutations(range(q.n))
            if all(
                bool(p.up_rows[i] >> j & 1) == bool(q.up_rows[perm[i]] >> perm[j] & 1)
                for i in range(p.n)
                for j in range(p.n)
            )
        ),
        key=lambda perm: [perm[i] for i in order],
    )


@settings(max_examples=80, deadline=None)
@given(relabelled_pairs())
def test_relabelling_permutes_colours(case):
    p, copy, perm, _ = case
    table = {}
    colours, copy_colours = signatures(p, table), signatures(copy, table)
    assert [copy_colours[perm[i]] for i in range(p.n)] == colours


@settings(max_examples=80, deadline=None)
@given(relabelled_pairs())
def test_isomorphisms_match_brute_force(case):
    p, copy, _, other = case
    for q in (copy, other):
        got = [tuple(map(q.index, iso.values)) for iso in isomorphisms(p, q)]
        assert got == brute_isomorphisms(p, q)


@settings(max_examples=40, deadline=None)
@given(relabelled_pairs())
def test_intersection_property_on_shuffled_elements(case):
    # the copy lists its elements out of name order, unlike its extensions
    _, copy, _, _ = case
    assert intersection_of_extensions(copy).up_rows == copy.up_rows


def nested_signatures(p):
    """Reference colouring without interning: the nested tuples themselves."""
    sig = [(bin(p.down_rows[i]).count("1"), bin(p.up_rows[i]).count("1")) for i in range(p.n)]
    for _ in range(3):
        sig = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in range(p.n) if p.up_rows[j] >> i & 1 and j != i)),
                tuple(sorted(sig[j] for j in range(p.n) if p.up_rows[i] >> j & 1 and j != i)),
            )
            for i in range(p.n)
        ]
    return sig


def test_nested_colours_rebuild_the_refinement():
    table = {}
    colours = [signatures(p, table) for p in all_posets(5)]
    values = nested_colours(table)
    for p, cs in zip(all_posets(5), colours):
        assert [values[c] for c in cs] == nested_signatures(p)


@settings(max_examples=80, deadline=None)
@given(relabelled_pairs())
def test_colour_ranks_order_each_round_by_value(case):
    # three posets through one table, so that each round's colours are not
    # numbered in the order of their values
    p, copy, _, other = case
    table = {}
    for q in (other, p, copy):
        signatures(q, table)
    values = nested_colours(table)
    rank = colour_ranks(table)
    for colours in colour_rounds(values):
        by_value = sorted(colours, key=values.__getitem__)
        assert [rank[c] for c in by_value] == list(range(len(colours)))


@st.composite
def reflexive_relations(draw):
    """Reflexive row masks on at most six elements, transitively closed half
    of the time, so that every check of FinPoset is reached."""
    n = draw(st.integers(min_value=0, max_value=6))
    rows = [draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n)]
    if draw(st.booleans()):
        rows = transitive_closure(rows)
    return tuple(f"e{i}" for i in range(n)), tuple(rows)


@settings(max_examples=300, deadline=None)
@given(reflexive_relations())
def test_poset_validation_matches_the_pairwise_check(case):
    elements, rows = case
    expected = pairwise_order_error(elements, rows)
    if expected is None:
        assert FinPoset(elements, rows).up_rows == rows
    else:
        with pytest.raises(PosetError) as err:
            FinPoset(elements, rows)
        assert str(err.value) == expected


def test_chain_counts_match_the_chains():
    for p in all_posets(4):
        assert list(chain_counts(p, 3)) == [len(chains(p, n)) for n in range(4)]
        assert list(chain_counts(p, 3, strict=True)) == [
            len(chains(p, n, strict=True)) for n in range(4)
        ]



def _renamed(poset):
    """A copy with renamed elements listed in reverse index order, so that its
    cover pairs are not the original's."""
    n = poset.n
    rows = [
        sum(1 << (n - 1 - j) for j in range(n) if poset.up_rows[i] >> j & 1)
        for i in reversed(range(n))
    ]
    return FinPoset([f"r{e}" for e in reversed(poset.elements)], rows, name=f"r{poset.name}")


def _brute_count(p, q):
    pairs = [(i, j) for i in range(p.n) for j in range(p.n) if p.up_rows[i] >> j & 1]
    return sum(
        all(q.up_rows[f[i]] >> f[j] & 1 for i, j in pairs)
        for f in itertools.product(range(q.n), repeat=p.n)
    )


def test_count_monotone_maps_builds_one_plan_per_poset(monkeypatch):
    """The plan is built on a poset's first count and kept by that object;
    counts match brute force on all_posets(3) and on renamed copies."""
    built = []
    count_plan = _kernels.count_plan

    def counted(n, pairs):
        built.append(pairs)
        return count_plan(n, pairs)

    monkeypatch.setattr(_kernels, "count_plan", counted)
    posets = [FinPoset(p.elements, p.up_rows, name=p.name) for p in all_posets(3)]
    posets += [_renamed(p) for p in posets]
    for p in posets:
        for q in posets:
            assert count_monotone_maps(p, q) == _brute_count(p, q), (p.name, q.name)
    assert built == [p.cover_pairs for p in posets]
