"""Continuity checks, corruption detection, reconstruction, density, full faithfulness."""

import pytest

from poscat import (
    BoundError,
    ContinuityError,
    check_antisymmetry,
    check_chain_condition,
    check_continuity,
    check_degeneracy_formulas,
    check_face_formulas,
    check_relation_injective,
    density_colimit,
    extract_order,
    find_isomorphism,
    fully_faithful_witness,
    nerve,
    reconstruct,
)
from poscat.continuity import non_monotone_witness
from poscat.corpus import all_posets
from poscat.formats import parse_sset, serialize_sset
from poscat.simplicial import TruncatedSimplicialSet

from helpers import singleton, three_chain, two_antichain, two_chain, v_poset


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


def test_relation_injective_on_nerves():
    assert check_relation_injective(nerve(two_chain(), 1)).passed
    empty = TruncatedSimplicialSet([[], []], {(1, 0): {}, (1, 1): {}}, {(0, 0): {}})
    assert check_relation_injective(empty).passed  # vacuous with no 1-simplices


def test_relation_injective_fails_on_duplicate():
    verdict = check_relation_injective(with_duplicate_edge())
    assert not verdict.passed
    assert "0" in verdict.detail and "1" in verdict.detail


def test_extract_order_two_chain():
    rel = extract_order(nerve(two_chain(), 1))
    assert rel.holds("0", "0") and rel.holds("0", "1") and rel.holds("1", "1")
    assert not rel.holds("1", "0")


def test_extract_order_antichain_is_diagonal():
    rel = extract_order(nerve(two_antichain(), 1))
    assert sorted(rel.pairs()) == [("a", "a"), ("b", "b")]


def test_extract_order_protocol_error():
    with pytest.raises(ContinuityError):
        extract_order(with_duplicate_edge())


def test_chain_condition_on_nerves():
    X = nerve(three_chain(), 3)
    assert check_chain_condition(X, 2).passed
    assert check_chain_condition(X, 3).passed


def test_chain_condition_fails_on_shared_tuple():
    X = nerve(two_chain(), 2)
    levels = list(X.levels)
    levels[2] = levels[2] + ("ghost",)
    faces = {key: dict(t) for key, t in X.faces.items()}
    for i in range(3):
        faces[(2, i)]["ghost"] = X.faces[(2, i)][("0", "0", "1")]
    broken = unvalidated(X, levels=levels, faces=faces)
    verdict = check_chain_condition(broken, 2)
    assert not verdict.passed and "share" in verdict.detail


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
    verdict = check_chain_condition(broken, 2)
    assert not verdict.passed and "missing" in verdict.detail
    report = check_continuity(broken)
    assert not report.verdicts["validation"].passed  # the removal also breaks identities


def test_face_formulas_on_nerve():
    assert check_face_formulas(nerve(v_poset(), 3)).passed


def test_face_formulas_vacuous_below_two():
    verdict = check_face_formulas(nerve(two_chain(), 1))
    assert verdict.passed and "no levels" in verdict.detail


def test_degeneracy_formulas_on_nerve():
    assert check_degeneracy_formulas(nerve(two_chain(), 2)).passed
    assert check_degeneracy_formulas(nerve(singleton(), 2)).passed


def test_antisymmetry_on_nerves():
    assert check_antisymmetry(nerve(v_poset(), 1)).passed


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


def test_reconstruct_round_trip():
    p = v_poset()
    poset, iso = reconstruct(nerve(p, 3))
    assert find_isomorphism(poset, p) is not None
    assert iso.is_levelwise_bijective()
    # identity on tuples: every simplex maps to its own label tuple
    assert iso(1, ("a", "c")) == ("a", "c")


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
