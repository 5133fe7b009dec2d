"""Nerves, presheaf action through normal forms, simplicial map enumeration."""

import itertools
import math

import pytest

from poscat import (
    DeltaMap,
    SimplicialError,
    SimplicialIdentityError,
    chain_poset,
    compose,
    count_monotone_maps,
    count_simplicial_maps,
    degeneracy,
    evaluate,
    face,
    identity_delta,
    make_sset,
    monotone_maps,
    nerve,
    nerve_map,
    simplicial_maps,
)
from poscat.posets import MonotoneMap
from poscat.corpus import all_posets
from poscat.simplicial import TruncatedSimplicialSet

from helpers import singleton, three_chain, two_antichain, two_chain, v_poset


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
    assert X.face(2, 1, ("0", "1", "2")) == ("0", "2")
    assert X.deg(1, 0, ("0", "2")) == ("0", "0", "2")


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
    nerves = [nerve(p, K) for K in (1, 2) for p in all_posets(3)]
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
