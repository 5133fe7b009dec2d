"""Continuity checks, corruption detection, reconstruction, density, full faithfulness."""

import collections
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poscat.continuity
from poscat import (
    BoundError,
    ContinuityError,
    MonotoneMap,
    check_continuity,
    density_colimit,
    find_isomorphism,
    fully_faithful_witness,
    nerve,
    reconstruct,
)
from poscat.cli import CONFIG_ERRORS, _continuity_rows
from poscat.continuity import non_monotone_witness
from poscat.corpus import all_posets
from poscat.formats import parse_sset, serialize_sset
from poscat.simplicial import TruncatedSimplicialSet

from helpers import (
    digest,
    flag_sset,
    singleton,
    three_chain,
    two_antichain,
    two_chain,
    v_poset,
)


def unvalidated(X, levels=None, faces=None, degeneracies=None):
    return TruncatedSimplicialSet(
        levels if levels is not None else X.levels,
        faces if faces is not None else X.faces,
        degeneracies if degeneracies is not None else X.degeneracies,
        validate=False,
    )


def with_duplicate_edge(base=None):
    """Extra 1-simplex covering the same ordered pair as ('0','1')."""
    X = base or nerve(two_chain(), 1)
    levels = [X.levels[0], X.levels[1] + ("dup",)]
    faces = {key: dict(t) for key, t in X.faces.items()}
    faces[(1, 0)]["dup"] = X.faces[(1, 0)][("0", "1")]
    faces[(1, 1)]["dup"] = X.faces[(1, 1)][("0", "1")]
    return unvalidated(X, levels=levels, faces=faces)


def with_broken_identity():
    X = nerve(two_chain(), 1)
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    degs[(0, 0)][("1",)] = ("0", "1")
    return unvalidated(X, degeneracies=degs)


def without_reflexive_edge():
    """Drop ('1','1') from level 1; s_0 of vertex 1 must point somewhere else."""
    X = nerve(two_chain(), 1)
    levels = [X.levels[0], tuple(t for t in X.levels[1] if t != ("1", "1"))]
    faces = {
        key: {x: y for x, y in t.items() if x != ("1", "1")} for key, t in X.faces.items()
    }
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    degs[(0, 0)][("1",)] = ("0", "1")
    return unvalidated(X, levels=levels, faces=faces, degeneracies=degs)


def with_rewired_face():
    X = nerve(two_chain(), 2)
    faces = {key: dict(t) for key, t in X.faces.items()}
    faces[(2, 1)][("0", "0", "1")] = ("1", "1")
    return unvalidated(X, faces=faces)


def with_symmetric_pair():
    X = nerve(two_antichain(), 1)
    levels = [X.levels[0], X.levels[1] + ("ab", "ba")]
    faces = {key: dict(t) for key, t in X.faces.items()}
    faces[(1, 1)]["ab"] = ("a",)
    faces[(1, 0)]["ab"] = ("b",)
    faces[(1, 1)]["ba"] = ("b",)
    faces[(1, 0)]["ba"] = ("a",)
    return unvalidated(X, levels=levels, faces=faces)


def verdict(X, name):
    return check_continuity(X).verdicts[name]


def test_relation_injective_on_nerves():
    assert verdict(nerve(two_chain(), 1), "relation_injective").passed
    empty = TruncatedSimplicialSet([[], []], {(1, 0): {}, (1, 1): {}}, {(0, 0): {}})
    assert verdict(empty, "relation_injective").passed  # vacuous with no 1-simplices


def test_relation_injective_fails_on_duplicate():
    found = verdict(with_duplicate_edge(), "relation_injective")
    assert not found.passed
    assert "0" in found.detail and "1" in found.detail
    assert found.detail == "1-simplices 0,1 and dup both cover (0, 1)"


def test_extract_order_two_chain():
    rel = check_continuity(nerve(two_chain(), 1)).relation
    # rows[i] has bit j set iff labels[i] <= labels[j]: 0 <= 0, 0 <= 1, 1 <= 1
    assert rel.labels == ("0", "1") and rel.rows == (0b11, 0b10)


def test_extract_order_antichain_is_diagonal():
    rel = check_continuity(nerve(two_antichain(), 1)).relation
    assert rel.labels == ("a", "b") and rel.rows == (0b01, 0b10)


def test_chain_condition_on_nerves():
    X = nerve(three_chain(), 3)
    assert verdict(X, "chain_condition_n2").passed
    assert verdict(X, "chain_condition_n3").passed


def test_chain_condition_fails_on_shared_tuple():
    X = nerve(two_chain(), 2)
    levels = list(X.levels)
    levels[2] = levels[2] + ("ghost",)
    faces = {key: dict(t) for key, t in X.faces.items()}
    for i in range(3):
        faces[(2, i)]["ghost"] = X.faces[(2, i)][("0", "0", "1")]
    broken = unvalidated(X, levels=levels, faces=faces)
    found = verdict(broken, "chain_condition_n2")
    assert not found.passed and "share" in found.detail


def test_chain_condition_fails_on_missing_simplex():
    X = nerve(two_chain(), 2)
    levels = list(X.levels)
    levels[2] = tuple(t for t in levels[2] if t != ("0", "0", "1"))
    faces = {
        key: {x: y for x, y in t.items() if x != ("0", "0", "1")}
        for key, t in X.faces.items()
    }
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    degs[(1, 0)][("0", "1")] = ("0", "1", "1")  # keep the table total
    broken = unvalidated(X, levels=levels, faces=faces, degeneracies=degs)
    report = check_continuity(broken)
    found = report.verdicts["chain_condition_n2"]
    assert not found.passed and "missing" in found.detail
    assert not report.verdicts["validation"].passed  # the removal also breaks identities


def test_face_formulas_on_nerve():
    assert verdict(nerve(v_poset(), 3), "face_formulas").passed


def test_face_formulas_vacuous_below_two():
    found = verdict(nerve(two_chain(), 1), "face_formulas")
    assert found.passed and "no levels" in found.detail


def test_degeneracy_formulas_on_nerve():
    assert verdict(nerve(two_chain(), 2), "degeneracy_formulas").passed
    assert verdict(nerve(singleton(), 2), "degeneracy_formulas").passed


def test_antisymmetry_on_nerves():
    assert verdict(nerve(v_poset(), 1), "antisymmetry").passed


@pytest.mark.parametrize(
    "n, R, details",
    [
        (
            # six failing triples; 0 <= 1 reaches both 4 and 5, and 0 <= 3
            # reaches 2, a smaller c behind a larger b
            6,
            {(0, 1), (1, 4), (1, 5), (5, 1), (0, 3), (3, 2), (2, 4), (4, 2), (3, 4)},
            (
                "30 simplices vs 36 weakly increasing tuples; missing (0,1,4)",
                "relation not transitive: 0 <= 1 <= 4 without 0 <= 4",
                "both (1, 5) and the reverse are edges",
            ),
        ),
        (
            # seven failing triples, the first behind a b (1) that fails none;
            # 0 has edges both ways with 1 and with 4
            5,
            {(4, 3), (3, 1), (1, 0), (0, 1), (0, 4), (2, 3), (3, 2), (4, 0)},
            (
                "27 simplices vs 34 weakly increasing tuples; missing (0,4,3)",
                "relation not transitive: 0 <= 4 <= 3 without 0 <= 3",
                "both (0, 1) and the reverse are edges",
            ),
        ),
    ],
)
def test_witnesses_of_relations_with_several_failures_are_pinned(n, R, details):
    """Each failing check names its first witness: the first missing tuple in
    lexicographic order, the least failing triple (a, b, c) and the least
    pair (a, b) of edges both ways, over a relation with at least three
    failing triples and two such pairs."""
    report = check_continuity(flag_sset(n, R | {(v, v) for v in range(n)}, 2))
    names = ("chain_condition_n2", "face_formulas", "antisymmetry")
    assert [v.name for v in report.failing()] == list(names)
    assert tuple(report.verdicts[name].detail for name in names) == details


def test_check_continuity_passes_on_nerves():
    for poset in all_posets(4):
        report = check_continuity(nerve(poset, 3))
        assert report.passed, (poset.name, [v.name for v in report.failing()])


def test_corruptions_fail_exactly_the_named_check():
    report = check_continuity(with_duplicate_edge())
    assert [v.name for v in report.failing()] == ["relation_injective"]

    report = check_continuity(with_symmetric_pair())
    assert [v.name for v in report.failing()] == ["antisymmetry"]

    report = check_continuity(with_rewired_face())
    assert not report.passed
    assert not report.verdicts["face_formulas"].passed

    report = check_continuity(without_reflexive_edge())
    assert not report.passed
    assert not report.verdicts["degeneracy_formulas"].passed
    assert "reflexive" in report.verdicts["degeneracy_formulas"].detail

    report = check_continuity(with_broken_identity())
    assert not report.verdicts["validation"].passed


@st.composite
def corrupted_nerves(draw):
    """The nerve of a poset on at most five elements at truncation at most 3,
    with up to two face or degeneracy entries pointed at another simplex."""
    X = nerve(draw(st.sampled_from(all_posets(5))), draw(st.integers(0, 3)))
    tables = {("d", key): table for key, table in X.faces.items()}
    tables.update({("s", key): table for key, table in X.degeneracies.items()})
    keys = sorted(key for key, table in tables.items() if table)
    faces = {key: dict(t) for key, t in X.faces.items()}
    degs = {key: dict(t) for key, t in X.degeneracies.items()}
    for _ in range(draw(st.integers(0, 2)) if keys else 0):
        kind, (n, i) = draw(st.sampled_from(keys))
        table, level = (faces, n - 1) if kind == "d" else (degs, n + 1)
        table[n, i][draw(st.sampled_from(X.levels[n]))] = draw(st.sampled_from(X.levels[level]))
    return unvalidated(X, faces=faces, degeneracies=degs)


def report_lines(X):
    try:
        report = check_continuity(X)
    except CONFIG_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"
    return _continuity_rows(report)


@settings(max_examples=150, deadline=None)
@given(corrupted_nerves())
def test_check_continuity_survives_corruption_and_round_trip(X):
    assert report_lines(X) == report_lines(parse_sset(serialize_sset(X)))


@st.composite
def rewired_edge_nerves(draw):
    """The nerve at truncation 1 of a poset on at most five elements, with one
    face entry of one 1-simplex pointed at another vertex."""
    X = nerve(draw(st.sampled_from(all_posets(5)[1:])), 1)
    faces = {key: dict(t) for key, t in X.faces.items()}
    i = draw(st.integers(0, 1))
    faces[1, i][draw(st.sampled_from(X.levels[1]))] = draw(st.sampled_from(X.levels[0]))
    return unvalidated(X, faces=faces)


def intransitive(X):
    """Whether the edge relation, read straight from the face tables, has
    a <= b <= c without a <= c."""
    pairs = {(X.faces[1, 1][e], X.faces[1, 0][e]) for e in X.levels[1]}
    return any((a, d) not in pairs for a, b in pairs for c, d in pairs if b == c)


@settings(max_examples=200, deadline=None)
@given(rewired_edge_nerves())
def test_rewired_edge_nerves_get_a_report(X):
    report = check_continuity(X)  # never raises
    if intransitive(X):
        verdict = report.verdicts["face_formulas"]
        assert not verdict.passed
        assert verdict.detail.startswith("relation not transitive: ")
        assert report.poset is None


def test_reconstruct_round_trip():
    p = v_poset()
    poset, iso = reconstruct(nerve(p, 3))
    assert find_isomorphism(poset, p) is not None
    assert iso.is_levelwise_bijective()
    # identity on tuples: every simplex maps to its own label tuple
    assert iso(1, ("a", "c")) == ("a", "c")


def test_reconstruct_lists_the_vertices_by_label():
    # X_0 holds "0".."11" in numeric order; the poset lists them by name,
    # "0", "1", "10", "11", "2", ..., and its rows follow the names
    R = {(a, b) for a in range(12) for b in range(a, 12)}
    poset, iso = reconstruct(flag_sset(12, R, 1))
    assert poset.elements == tuple(sorted(map(str, range(12))))
    assert all(poset.leq(str(a), str(b)) == (a <= b) for a in range(12) for b in range(12))
    assert iso(1, ("2", "10")) == ("2", "10")


def test_reconstruct_from_reserialized_opaque_ids():
    X = nerve(two_chain(), 1)
    relabeled = parse_sset(serialize_sset(X))  # ids become opaque strings
    poset, _ = reconstruct(relabeled)
    assert find_isomorphism(poset, two_chain()) is not None


def test_reconstruct_protocol_error():
    with pytest.raises(ContinuityError):
        reconstruct(with_duplicate_edge())


def test_reconstruct_empty_at_k0():
    X = TruncatedSimplicialSet([[]], {}, {}, validate=False)
    report = check_continuity(X)
    assert report.passed and report.poset.n == 0


def test_restriction_monotone():
    X = nerve(v_poset(), 3)
    assert check_continuity(X).passed
    for k in range(3):
        assert check_continuity(X.restrict(k)).passed


def test_density_examples():
    assert density_colimit(three_chain(), 2).passed
    assert density_colimit(singleton(), 0).passed
    result = density_colimit(v_poset(), 1)
    assert result.passed and result.cocone.apex.n == 3


def test_density_bound_error():
    with pytest.raises(BoundError):
        density_colimit(three_chain(), 1)


def test_fully_faithful_examples():
    report = fully_faithful_witness(two_chain(), two_chain(), 1)
    assert report.monotone_count == report.simplicial_count == 3 and report.passed
    report = fully_faithful_witness(two_antichain(), singleton(), 1)
    assert report.monotone_count == report.simplicial_count == 1 and report.passed
    report = fully_faithful_witness(three_chain(), two_chain(), 2)
    assert report.monotone_count == 4 and report.passed
    report = fully_faithful_witness(two_chain(), three_chain(), 2)
    assert report.monotone_count == 6 and report.passed


def test_non_monotone_witness_only_below_level_one():
    v = v_poset()
    assert non_monotone_witness(v, v, 0) == "a->a b->a c->b is not monotone: a<=c but not a<=b"
    assert non_monotone_witness(two_antichain(), two_chain(), 0) == ""  # every function is monotone
    for p, q in [(v, v), (three_chain(), v), (v, two_antichain())]:
        assert non_monotone_witness(p, q, 1) == ""


def test_fully_faithful_requires_level_one():
    with pytest.raises(ContinuityError):
        fully_faithful_witness(two_chain(), two_chain(), 0)


def test_density_witness_says_why_the_canonical_map_fails(monkeypatch):
    assert density_colimit(v_poset(), 1).witness == ""
    monkeypatch.setattr(poscat.continuity, "induced_map", lambda *_: (None, "not monotone"))
    result = density_colimit(v_poset(), 1)
    assert not result.passed and result.witness == "not monotone"

    def to_top(cocone, target, node_maps):
        return MonotoneMap(cocone.apex, target, ("c",) * cocone.apex.n), ""

    monkeypatch.setattr(poscat.continuity, "induced_map", to_top)
    result = density_colimit(v_poset(), 1)
    assert not result.passed and result.witness == "not an order isomorphism"


@pytest.mark.parametrize("fault", ["vertex map", "missing nerve", "equal images"])
def test_full_faithfulness_failure_names_a_witness(monkeypatch, fault):
    listing, nerve_of = poscat.continuity.simplicial_maps, poscat.continuity.nerve_map
    v = v_poset()
    if fault == "vertex map":  # every function on the vertices, as at truncation 0
        monkeypatch.setattr(
            poscat.continuity, "simplicial_maps", lambda X, Y: listing(X.restrict(0), Y.restrict(0))
        )
        witness = "a->a b->a c->b is not monotone: a<=c but not a<=b"
    elif fault == "missing nerve":
        monkeypatch.setattr(poscat.continuity, "simplicial_maps", lambda X, Y: listing(X, Y)[1:])
        witness = "the nerve of a->a b->a c->a is missing"
    else:
        bottom = MonotoneMap(v, v, ("a", "a", "a"))
        monkeypatch.setattr(poscat.continuity, "nerve_map", lambda f, K: nerve_of(bottom, K))
        witness = "a->a b->a c->a and a->a b->a c->c have equal nerves"
    report = fully_faithful_witness(v, v, 1)
    assert not report.passed
    assert report.witness == witness


# `digest` of the lines below for every poset of at most five points, in
# `all_posets` order; the same under PYTHONHASHSEED 1, 2 and 3
CONTINUITY_DIGEST = "dd39d7ef629aba9f013f5174d30b60e073ead34069a5704aa1793486977d0a93"


def test_continuity_of_nerves_of_five_points_is_pinned():
    """Same answers: the verdicts, the reconstructed poset and the
    isomorphism onto its nerve of check_continuity(nerve(P, 4))."""

    def lines():
        for p in all_posets(5):
            r = check_continuity(nerve(p, 4))
            yield repr([(v.name, v.passed, v.detail) for v in r.verdicts.values()])
            yield repr((r.poset.elements, r.poset.up_rows))
            yield repr(r.iso.components)

    assert digest(lines()) == CONTINUITY_DIGEST


def _reflexive_relations(n):
    """Every reflexive relation on range(n), as a set of pairs."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    diagonal = {(a, a) for a in range(n)}
    for bits in range(1 << len(off)):
        yield diagonal | {pair for k, pair in enumerate(off) if bits >> k & 1}


def _is_partial_order(R):
    """Antisymmetric and transitive, pair by pair (R is reflexive)."""
    return all(a == b or (b, a) not in R for a, b in R) and all(
        (a, d) in R for a, b in R for c, d in R if b == c
    )


def _automorphisms(poset):
    """The order automorphisms of `poset`, counted over every permutation."""
    n, rows = poset.n, poset.up_rows
    return sum(
        all(rows[a] >> b & 1 == rows[sigma[a]] >> sigma[b] & 1 for a in range(n) for b in range(n))
        for sigma in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("K", [1, 2, 3])
def test_flag_ssets_pass_exactly_on_partial_orders(K):
    """Over every reflexive relation on at most four labelled vertices at
    K = 1, and at most three at K = 2 and 3, the flag simplicial set passes
    `check_continuity` exactly when the relation is a partial order (1, 1,
    3, 19 and 219 of them: A001035), and the reconstructed order is the
    relation itself.  On four vertices the reconstructed posets meet each
    class of all_posets(4) exactly 4!/|Aut| times: the orbit identity."""
    passes = [1, 1, 3, 19, 219][: 5 if K == 1 else 4]
    passed = []
    hits = collections.Counter()
    four_point_classes = [c for c in all_posets(4) if c.n == 4]
    for n in range(len(passes)):
        count = 0
        for R in _reflexive_relations(n):
            X = flag_sset(n, R, K)
            report = check_continuity(X)
            assert report.passed == _is_partial_order(R), (n, sorted(R))
            if report.passed:
                count += 1
                poset, iso = reconstruct(X)
                pairs = itertools.product(poset.elements, repeat=2)
                assert {(int(x), int(y)) for x, y in pairs if poset.leq(x, y)} == R
                assert iso.source is X and iso.target is nerve(poset, K)
                if n == 4:
                    [k] = [
                        k for k, c in enumerate(four_point_classes) if find_isomorphism(poset, c) is not None
                    ]
                    hits[k] += 1
        passed.append(count)
    assert passed == passes
    if len(passes) > 4:
        orbits = [math.factorial(4) // _automorphisms(c) for c in four_point_classes]
        assert [hits[k] for k in range(len(four_point_classes))] == orbits
