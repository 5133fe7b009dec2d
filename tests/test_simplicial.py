"""Nerves, presheaf action through normal forms, simplicial map enumeration."""

import itertools
import math

import pytest

from poscat import (
    DeltaMap,
    SimplicialError,
    SimplicialIdentityError,
    chain_poset,
    check_continuity,
    compose,
    count_monotone_maps,
    count_simplicial_maps,
    degeneracy,
    evaluate,
    face,
    fully_faithful_witness,
    identity_delta,
    make_poset,
    make_sset,
    monotone_maps,
    nerve,
    nerve_map,
    ordinal_poset,
    simplicial_maps,
)
from poscat.posets import MonotoneMap
from poscat.corpus import all_posets
from poscat import simplicial
from poscat.simplicial import SimplicialMap, TruncatedSimplicialSet

from helpers import digest, flag_sset, singleton, three_chain, two_antichain, two_chain, v_poset


def test_nerve_two_chain():
    X = nerve(two_chain(), 1)
    assert X.levels[0] == (("0",), ("1",))
    assert X.levels[1] == (("0", "0"), ("0", "1"), ("1", "1"))


def test_nerve_singleton():
    X = nerve(singleton(), 3)
    assert all(len(level) == 1 for level in X.levels)


def test_nerve_antichain_level_two():
    X = nerve(two_antichain(), 2)
    assert X.levels[2] == (("a", "a", "a"), ("b", "b", "b"))


def test_nerve_faces_and_degeneracies_by_position():
    X = nerve(three_chain(), 2)
    assert X.faces[(2, 1)][("0", "1", "2")] == ("0", "2")
    assert X.degeneracies[(1, 0)][("0", "2")] == ("0", "0", "2")


def test_nerve_tables_hold_the_simplices_of_their_levels():
    X = nerve(v_poset(), 3)
    own = [{id(t) for t in level} for level in X.levels]
    for (n, i), table in X.faces.items():
        assert all(id(t) in own[n] and id(s) in own[n - 1] for t, s in table.items()), (n, i)
    for (n, i), table in X.degeneracies.items():
        assert all(id(t) in own[n] and id(s) in own[n + 1] for t, s in table.items()), (n, i)


def test_nerves_pass_validation():
    for poset in all_posets(4):
        X = nerve(poset, 3)
        make_sset(X.levels, X.faces, X.degeneracies)  # raises on any violation


def test_make_sset_names_broken_identity():
    X = nerve(two_chain(), 1)
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    degs[(0, 0)][("1",)] = ("0", "1")  # d_1 s_0 now misses the identity
    with pytest.raises(SimplicialIdentityError) as err:
        make_sset(X.levels, X.faces, degs)
    assert "sigma_j delta_i = id" in str(err.value)


def test_make_sset_rejects_partial_tables():
    X = nerve(two_chain(), 1)
    faces = {key: dict(t) for key, t in X.faces.items()}
    del faces[(1, 0)][("0", "1")]
    with pytest.raises(SimplicialError):
        make_sset(X.levels, faces, X.degeneracies)


def test_identity_violations_list_every_family_in_order():
    X = nerve(ordinal_poset(1), 3)
    faces = {key: dict(t) for key, t in X.faces.items()}
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    faces[(1, 0)][("0", "1")] = ("0",)
    degs[(2, 0)][("0", "1", "1")] = ("0", "0", "0", "1")
    Y = TruncatedSimplicialSet(X.levels, faces, degs, validate=False)
    found = [(v.family, v.level, v.i, v.j, v.simplex) for v in Y.identity_violations()]
    dd = 'd_i d_j = d_{j-1} d_i (dual of "delta_j delta_i = delta_i delta_{j-1}")'
    ss = 's_i s_j = s_{j+1} s_i (dual of "sigma_j sigma_i = sigma_i sigma_{j+1}")'
    below = 'd_i s_j = s_{j-1} d_i (dual of "sigma_j delta_i = delta_i sigma_{j-1}")'
    ident = 'd_i s_j = id (dual of "sigma_j delta_i = id")'
    above = 'd_i s_j = s_j d_{i-1} (dual of "sigma_j delta_i = delta_{i-1} sigma_j")'
    assert found == [
        (dd, 2, 0, 1, ("0", "1", "1")),
        (dd, 2, 0, 2, ("0", "1", "1")),
        (ss, 1, 0, 1, ("0", "1")),
        (below, 1, 0, 1, ("0", "1")),
        (ident, 2, 0, 0, ("0", "1", "1")),
        (ident, 2, 1, 0, ("0", "1", "1")),
        (above, 2, 3, 0, ("0", "1", "1")),
    ]


def test_level_zero_data_is_vacuously_valid():
    X = make_sset([["p", "q"]], {}, {})
    assert X.K == 0 and X.identity_violations() == []


def test_evaluate_identity_and_generators():
    X = nerve(two_chain(), 2)
    ident = evaluate(X, identity_delta(1))
    assert all(ident[x] == x for x in X.levels[1])
    act = evaluate(X, face(2, 1))
    assert act[("0", "0", "1")] == ("0", "1")
    act0 = evaluate(X, degeneracy(0, 0))
    assert act0[("1",)] == ("1", "1")


def test_evaluate_respects_composition():
    X = nerve(v_poset(), 3)
    fs = [face(2, 1), degeneracy(1, 0), face(3, 0), DeltaMap(2, 2, (0, 0, 2))]
    gs = [face(3, 2), degeneracy(2, 1), DeltaMap(1, 3, (1, 3))]
    for f in fs:
        for g in gs:
            if f.target != g.source:
                continue
            composite = evaluate(X, compose(g, f))
            step = {x: evaluate(X, f)[y] for x, y in evaluate(X, g).items()}
            assert composite == step


def test_evaluate_truncation_error():
    X = nerve(two_chain(), 1)
    with pytest.raises(SimplicialError):
        evaluate(X, face(2, 0))


def test_nerve_map_identity_and_constant():
    p = two_chain()
    ident = nerve_map(MonotoneMap.identity(p), 2)
    assert all(ident(n, x) == x for n in range(3) for x in ident.source.levels[n])
    to_point = MonotoneMap(p, singleton(), ("x", "x"))
    collapsed = nerve_map(to_point, 2)
    assert set(collapsed.components[2].values()) == {("x", "x", "x")}


def test_nerve_map_inclusion_commutes():
    p, q = two_chain(), three_chain()
    inc = MonotoneMap(p, q, ("0", "1"))
    nerve_map(inc, 2)  # constructor validates commutation with d and s


def test_simplicial_maps_counts():
    X = nerve(two_chain(), 2)
    assert len(simplicial_maps(X, X)) == 3
    a1 = nerve(two_antichain(), 1)
    pt = nerve(singleton(), 1)
    assert len(simplicial_maps(a1, pt)) == 1
    assert len(simplicial_maps(pt, a1)) == 2


def test_simplicial_maps_match_monotone_counts():
    for p in all_posets(3):
        for q in all_posets(3):
            expected = len(monotone_maps(p, q))
            got = len(simplicial_maps(nerve(p, 1), nerve(q, 1)))
            assert got == expected, (p.name, q.name)


def test_simplicial_maps_respect_nerve_functoriality():
    p, q = two_chain(), v_poset()
    for f in monotone_maps(p, q):
        image = nerve_map(f, 2)
        assert image in simplicial_maps(nerve(p, 2), nerve(q, 2))


def test_nerve_map_respects_composition():
    p, q, r = two_chain(), v_poset(), singleton()
    for f in monotone_maps(p, q):
        for g in monotone_maps(q, r):
            direct = nerve_map(g.compose(f), 2)
            nf, ng = nerve_map(f, 2), nerve_map(g, 2)
            stepped = [
                {x: ng(n, y) for x, y in nf.components[n].items()} for n in range(3)
            ]
            assert list(direct.components) == stepped


def _slots(X):
    return [(n, x) for n in range(X.K + 1) for x in X.levels[n]]


def _brute_force_maps(X, Y):
    """Every level-wise function X -> Y that commutes with the face and
    degeneracy tables, as its tuple of values over the slots of X (level by
    level, X.levels order), in itertools.product order."""
    slots = _slots(X)
    out = []
    for values in itertools.product(*(Y.levels[n] for n, _ in slots)):
        comps = [dict() for _ in range(X.K + 1)]
        for (n, x), y in zip(slots, values):
            comps[n][x] = y
        if all(
            comps[n - 1][fx] == Y.faces[(n, i)][comps[n][x]]
            for (n, i), table in X.faces.items()
            for x, fx in table.items()
        ) and all(
            comps[n + 1][sx] == Y.degeneracies[(n, i)][comps[n][x]]
            for (n, i), table in X.degeneracies.items()
            for x, sx in table.items()
        ):
            out.append(values)
    return out


def _loops(k):
    """One vertex with its degenerate edge and k further loops (truncation 1):
    several edges share one boundary, so a boundary bucket holds many."""
    edges = ["vv"] + [f"e{j}" for j in range(k)]
    faces = {(1, i): {e: "v" for e in edges} for i in range(2)}
    return make_sset([["v"], edges], faces, {(0, 0): {"v": "vv"}})


def _broken():
    """Two truncation-1 sets that break d_i s_0 = id: in the first, s_0 sends
    both vertices to one loop; in the second, s_0 a is the edge from b to a.
    Only on such sets can degeneracies clash or force an image whose boundary
    is wrong."""
    loop = {(1, i): {"e": "a"} for i in range(2)}
    clash = TruncatedSimplicialSet(
        [["a", "b"], ["e"]], loop, {(0, 0): {"a": "e", "b": "e"}}, validate=False
    )
    edges = {(1, 0): {"aa": "a", "bb": "b", "ba": "a"}, (1, 1): {"aa": "a", "bb": "b", "ba": "b"}}
    skew = TruncatedSimplicialSet(
        [["a", "b"], ["aa", "bb", "ba"]], edges, {(0, 0): {"a": "ba", "b": "bb"}}, validate=False
    )
    return [clash, skew]


def _oracle_pairs():
    """Pairs at K = 0 (the top level is level 0 and the head is empty), at
    K = 1 and 2, and at K = 3, where the head runs three levels deep, plus
    the truncation-1 fixtures whose top-level buckets hold many simplices or
    whose degeneracies clash; only pairs the brute force can afford."""
    nerves = [nerve(p, K) for K in (0, 1, 2) for p in all_posets(3)]
    nerves += [nerve(p, 3) for p in all_posets(2)] + [make_sset([["p", "q"]], {}, {})]
    pairs = [(X, Y) for X in nerves for Y in nerves if X.K == Y.K]
    level_one = [_loops(k) for k in range(3)] + _broken() + [nerve(p, 1) for p in all_posets(2)]
    pairs += [(X, Y) for X in level_one for Y in level_one]
    return [
        (X, Y)
        for X, Y in pairs
        if math.prod(len(Y.levels[n]) ** len(X.levels[n]) for n in range(X.K + 1)) <= 20_000
    ]


def test_simplicial_maps_match_brute_force_in_order():
    pairs = _oracle_pairs()
    assert len(pairs) > 100
    for X, Y in pairs:
        want = _brute_force_maps(X, Y)
        got = [tuple(m(n, x) for n, x in _slots(X)) for m in simplicial_maps(X, Y)]
        assert got == want, (X, Y)
        assert count_simplicial_maps(X, Y) == len(want), (X, Y)


def test_simplicial_maps_are_the_nerves_of_the_monotone_maps_in_order():
    """Full faithfulness, order included: the simplicial maps N p -> N q are
    the monotone maps p -> q, in the order `monotone_maps` lists them, each
    applied pointwise to every simplex."""
    for K, posets in ((1, all_posets(4)), (2, all_posets(3))):
        nerves = [(p, nerve(p, K)) for p in posets]
        for p, X in nerves:
            for q, Y in nerves:
                want = [
                    tuple({t: tuple(map(f, t)) for t in level} for level in X.levels)
                    for f in monotone_maps(p, q)
                ]
                assert [m.components for m in simplicial_maps(X, Y)] == want, (K, p.name, q.name)


def test_counts_between_chains_at_truncation_three():
    """The monotone maps from an a-chain into a b-chain are the multisets of
    size a from b values, C(a + b - 1, a) of them."""
    nerves = {k: nerve(chain_poset([str(i) for i in range(k)]), 3) for k in range(1, 7)}
    for a in range(1, 7):
        for b in range(1, 7):
            assert count_simplicial_maps(nerves[a], nerves[b]) == math.comb(a + b - 1, a), (a, b)


def test_simplicial_maps_run_deeper_than_the_recursion_limit():
    X, Y = nerve(chain_poset("0123"), 10), nerve(singleton(), 10)
    assert sum(len(level) for level in X.levels) == 1364  # beyond the default limit of 1000
    maps = simplicial_maps(X, Y)
    assert len(maps) == count_simplicial_maps(X, Y) == 1


def test_truncation_mismatch():
    with pytest.raises(SimplicialError):
        simplicial_maps(nerve(two_chain(), 1), nerve(two_chain(), 2))
    with pytest.raises(SimplicialError):
        count_simplicial_maps(nerve(two_chain(), 1), nerve(two_chain(), 2))


def test_restrict_keeps_lower_levels():
    X = nerve(v_poset(), 3)
    Y = X.restrict(1)
    assert Y.K == 1 and Y.levels == X.levels[:2]
    assert Y.identity_violations() == []


def test_count_monotone_agrees_with_enumeration():
    for p in all_posets(3):
        for q in all_posets(3):
            assert count_monotone_maps(p, q) == len(monotone_maps(p, q))


def _mapping_rejection(X, Y, comps):
    with pytest.raises(SimplicialError) as err:
        SimplicialMap(X, Y, comps)
    return str(err.value)


def test_simplicial_map_rejections_name_the_first_failure():
    X = nerve(two_chain(), 1)
    ident = [dict(zip(level, level)) for level in X.levels]
    assert _mapping_rejection(X, nerve(two_chain(), 2), ident) == (
        "source and target truncations differ"
    )
    assert _mapping_rejection(X, X, ident[:1]) == "one component per level required"
    partial = [ident[0], {x: y for x, y in ident[1].items() if x != ("0", "1")}]
    assert _mapping_rejection(X, X, partial) == "component at level 1 is not total"
    extra = [{**ident[0], ("2",): ("0",)}, ident[1]]
    assert _mapping_rejection(X, X, extra) == "component at level 0 is not total"
    outside = [{**ident[0], ("1",): ("2",)}, ident[1]]
    assert _mapping_rejection(X, X, outside) == "component at level 0 maps outside the target"
    collapsed = [ident[0], {**ident[1], ("0", "1"): ("0", "0")}]
    assert _mapping_rejection(X, X, collapsed) == "does not commute with d_0 at level 1"
    # every edge of a loop set has the same faces, so only s_0 can catch
    # the degenerate edge sent to a non-degenerate loop
    L = _loops(1)
    loop = [{"v": "v"}, {"vv": "e0", "e0": "e0"}]
    assert _mapping_rejection(L, L, loop) == "does not commute with s_0 at level 0"


def _sset_rejection(levels, faces, degeneracies):
    with pytest.raises(SimplicialError) as err:
        TruncatedSimplicialSet(levels, faces, degeneracies, validate=False)
    return str(err.value)


def test_truncated_simplicial_set_rejections_name_the_first_failure():
    X = nerve(two_chain(), 1)

    def faces():
        return {key: dict(t) for key, t in X.faces.items()}

    def degs():
        return {key: dict(t) for key, t in X.degeneracies.items()}

    assert _sset_rejection([], {}, {}) == "a truncated simplicial set needs at least level 0"
    twice = [X.levels[0], X.levels[1] + (("0", "1"),)]
    assert _sset_rejection(twice, faces(), degs()) == "duplicate simplex identifiers at level 1"
    missing = faces()
    del missing[(1, 1)]
    assert _sset_rejection(X.levels, missing, degs()) == "missing face table d_1 at level 1"
    assert _sset_rejection(X.levels, faces(), {}) == "missing degeneracy table s_0 at level 0"
    partial = faces()
    del partial[(1, 0)][("0", "1")]
    assert _sset_rejection(X.levels, partial, degs()) == "d_0 at level 1 is not total on X_1"
    partial = degs()
    del partial[(0, 0)][("1",)]
    assert _sset_rejection(X.levels, faces(), partial) == "s_0 at level 0 is not total on X_0"
    outside = faces()
    outside[(1, 1)][("1", "1")] = ("2",)
    assert _sset_rejection(X.levels, outside, degs()) == "d_1 at level 1 maps outside X_0"
    outside = degs()
    outside[(0, 0)][("0",)] = ("0", "2")
    assert _sset_rejection(X.levels, faces(), outside) == "s_0 at level 0 maps outside X_1"
    beyond = {**faces(), (2, 0): {}}
    assert _sset_rejection(X.levels, beyond, degs()) == "table indices outside the truncation"
    beyond = {**degs(), (1, 0): {}}
    assert _sset_rejection(X.levels, faces(), beyond) == "table indices outside the truncation"


def test_listed_maps_own_their_components():
    """Mutating one listed map's component changes no other map, whether the
    maps share an empty head (K = 0) or a non-empty one (K = 1: v, and vv
    by s_0, are forced, and e0 takes each of the three edges)."""
    A = nerve(two_antichain(), 0)
    for X, Y, count in ((A, A, 4), (_loops(1), _loops(2), 3)):
        before = repr([m.components for m in simplicial_maps(X, Y)])
        maps = simplicial_maps(X, Y)
        assert len(maps) == count
        for comp in maps[0].components:
            for x in comp:
                comp[x] = "mutated"
        assert repr([m.components for m in maps]) != before
        assert [repr(m.components) for m in maps[1:]] == [
            repr(m.components) for m in simplicial_maps(X, Y)[1:]
        ]
        assert repr([m.components for m in simplicial_maps(X, Y)]) == before


# `digest` of the `repr` of every map's components, one line each, in order;
# the same under PYTHONHASHSEED 1, 2 and 3
MAPS_DIGEST = "87ef7fe63fec59b81e1bc9bc3ea2f3e2563748c1a1ef70d71747ccb5a41d078e"


def test_simplicial_maps_between_nerves_of_four_points_are_pinned():
    """Same answers, order included: every map between the truncation-1
    nerves of the 25 posets of at most four points (625 ordered pairs)."""
    nerves = [nerve(p, 1) for p in all_posets(4)]
    maps = [m for X in nerves for Y in nerves for m in simplicial_maps(X, Y)]
    assert len(maps) == 19_727
    assert digest(repr(m.components) for m in maps) == MAPS_DIGEST


@pytest.fixture
def no_nerves():
    """An empty nerve cache, emptied again afterwards."""
    simplicial._NERVES.clear()
    yield
    simplicial._NERVES.clear()


def test_equal_posets_with_equal_names_share_one_nerve(no_nerves):
    rebuilt = make_poset(["c", "b", "a"], [("b", "c"), ("a", "c")], name="V")
    assert rebuilt is not v_poset() and rebuilt == v_poset()
    assert nerve(rebuilt, 2) is nerve(v_poset(), 2)


def test_another_name_or_truncation_gives_another_nerve(no_nerves):
    X = nerve(v_poset(), 2)
    renamed = make_poset(["a", "b", "c"], [("a", "c"), ("b", "c")], name="W")
    unnamed = make_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    for other, name, K in ((renamed, "N(W)", 2), (unnamed, "", 2), (v_poset(), "N(V)", 1)):
        Y = nerve(other, K)
        assert Y is not X and (Y.name, Y.K) == (name, K)
        assert Y is nerve(other, K)
    assert nerve(renamed, 2) == X  # equality ignores names, like FinPoset's


def test_the_least_recently_used_nerve_is_evicted(no_nerves):
    points = [make_poset(["x"], [], name=f"p{k}") for k in range(simplicial.NERVE_CACHE_SIZE + 1)]
    kept = [nerve(p, 1) for p in points[:-1]]
    assert nerve(points[0], 1) is kept[0]  # now the most recently used
    nerve(points[-1], 1)  # the 33rd key evicts points[1]'s nerve
    assert len(simplicial._NERVES) == simplicial.NERVE_CACHE_SIZE == 32
    assert nerve(points[0], 1) is kept[0]
    rebuilt = nerve(points[1], 1)
    assert rebuilt is not kept[1] and rebuilt == kept[1]
    assert all(nerve(p, 1) is X for p, X in zip(points[3:], kept[3:]))


def test_a_nerve_over_the_simplex_cap_is_not_kept(no_nerves):
    ten = chain_poset("0123456789")
    small, large = nerve(ten, 4), nerve(ten, 5)
    sizes = [sum(len(level) for level in X.levels) for X in (small, large)]
    assert sizes == [3002, 8007] and simplicial.NERVE_CACHE_MAX_SIMPLICES == 4096
    assert nerve(ten, 4) is small
    again = nerve(ten, 5)
    assert again is not large and again == large
    assert len(simplicial._NERVES) == 1


def test_reconstruction_reuses_the_nerve_it_was_handed(no_nerves):
    unnamed = make_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    X = nerve(unnamed, 2)
    assert check_continuity(X).iso.target is X


def test_shared_nerves_are_left_as_they_were_built(no_nerves):
    """What reads a cached nerve changes none of it: after every consumer has
    run, each cached nerve equals one built afresh."""
    pairs = [(two_chain(), v_poset()), (v_poset(), three_chain()), (two_antichain(), singleton())]
    for p, q in pairs:
        X, Y = nerve(p, 2), nerve(q, 2)
        simplicial_maps(X, Y)
        check_continuity(X)
        for f in monotone_maps(p, q):
            nerve_map(f, 2)
        X.restrict(1)
        fully_faithful_witness(p, q, 2)
    shared = [(p, nerve(p, 2)) for pair in pairs for p in pair]
    simplicial._NERVES.clear()
    for p, X in shared:
        fresh = nerve(p, 2)
        assert fresh is not X and fresh == X and fresh.name == X.name


# What a map search compiles and keeps on a simplicial set: the slot program
# of a source, the tables of a target.
COMPILED = ("_slot_program", "_target_index", "_lookahead", "_top_candidates")


def _compiled(X):
    return {name: vars(X)[name] for name in COMPILED if name in vars(X)}


def _fresh(X):
    """An equal set that no search has used: the same levels and tables."""
    return TruncatedSimplicialSet(X.levels, X.faces, X.degeneracies, name=X.name, validate=False)


def test_a_second_search_reuses_the_compiled_forms(no_nerves):
    X, Y = nerve(v_poset(), 2), nerve(three_chain(), 2)
    assert _compiled(X) == _compiled(Y) == {}
    maps = simplicial_maps(X, Y)
    source, target = _compiled(X), _compiled(Y)
    assert list(source) == ["_slot_program"] and list(target) == list(COMPILED[1:])
    assert simplicial_maps(X, Y) == maps and count_simplicial_maps(X, Y) == len(maps)
    assert _compiled(X).keys() == source.keys() and _compiled(Y).keys() == target.keys()
    assert all(_compiled(X)[name] is table for name, table in source.items())
    assert all(_compiled(Y)[name] is table for name, table in target.items())
    # a restricted set and an equal set built afresh compile their own
    for Z in (X.restrict(1), Y.restrict(2), _fresh(X), _fresh(Y)):
        assert _compiled(Z) == {}
        simplicial_maps(Z, Z)
        assert all(_compiled(Z)[name] is not table for name, table in source.items())
        assert all(_compiled(Z)[name] is not table for name, table in target.items())


def _warm_and_fresh_sets():
    """Per truncation, the nerves of all_posets(3) and the flag sets of the
    four reflexive relations on two vertices."""
    loops = [(0, 0), (1, 1)]
    relations = [loops, loops + [(0, 1)], loops + [(1, 0)], loops + [(0, 1), (1, 0)]]
    return {
        K: [simplicial._build_nerve(p, K) for p in all_posets(3)]
        + [flag_sset(2, R, K) for R in relations]
        for K in (1, 2)
    }


def test_warm_sets_list_the_maps_of_fresh_copies_in_order():
    """A set that searches have used as source and as target lists, and
    counts, the maps that an equal set built afresh does, order included."""
    for K, sets in _warm_and_fresh_sets().items():
        for X in sets:
            for Y in sets:
                count_simplicial_maps(X, Y)
                simplicial_maps(Y, X)
        assert all("_slot_program" in vars(X) and "_target_index" in vars(X) for X in sets)
        for X in sets:
            for Y in sets:
                warm = [m.components for m in simplicial_maps(X, Y)]
                fresh = [m.components for m in simplicial_maps(_fresh(X), _fresh(Y))]
                assert warm == fresh, (K, X.name, Y.name)
                assert count_simplicial_maps(X, Y) == len(fresh), (K, X.name, Y.name)


def test_truncation_mismatch_after_both_sets_are_warm():
    X, Y = nerve(two_chain(), 1), nerve(two_chain(), 2)
    for Z in (X, Y):
        simplicial_maps(Z, Z)
        count_simplicial_maps(Z, Z)
    with pytest.raises(SimplicialError):
        simplicial_maps(X, Y)
    with pytest.raises(SimplicialError):
        count_simplicial_maps(Y, X)
