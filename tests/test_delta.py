"""Simplex category: generators, composition, normal forms, identities, squares."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poscat import (
    DeltaError,
    DeltaMap,
    GeneratorWord,
    colimit_delta,
    compose,
    degeneracy,
    face,
    factorize,
    generator,
    identity_delta,
    paper_pushout_square,
    verify_simplicial_identities,
)
from poscat.simplicial import IdentityViolation


def all_delta_maps(n, m):
    """Brute force: every weakly increasing table [n] -> [m]."""
    out = []
    for values in itertools.product(range(m + 1), repeat=n + 1):
        if all(a <= b for a, b in zip(values, values[1:])):
            out.append(DeltaMap(n, m, values))
    return out


def test_generator_tables():
    assert face(2, 1).values == (0, 2)
    assert degeneracy(0, 0).values == (0, 0)
    assert face(3, 3).values == (0, 1, 2)
    assert generator("face", 2, 1) == face(2, 1)
    assert generator("degeneracy", 1, 0) == degeneracy(1, 0)


def test_generator_errors():
    with pytest.raises(DeltaError):
        face(0, 0)  # no face into the singleton ordinal
    with pytest.raises(DeltaError):
        face(2, 3)
    with pytest.raises(DeltaError):
        degeneracy(1, 2)
    with pytest.raises(DeltaError):
        generator("swap", 1, 0)


def test_delta_map_validation():
    with pytest.raises(DeltaError):
        DeltaMap(1, 1, (1, 0))  # not weakly increasing
    with pytest.raises(DeltaError):
        DeltaMap(1, 1, (0, 2))  # value out of range


@pytest.mark.parametrize(
    "make",
    [
        lambda: DeltaMap(1, 2, (0, 2)),
        lambda: GeneratorWord(2, (1,), (0,)),
        lambda: IdentityViolation("d_i d_j = d_{j-1} d_i", 2, 0, 1, ("a", "b", "c")),
    ],
)
def test_value_records_compare_hash_and_refuse_assignment(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_compose_examples():
    assert compose(degeneracy(0, 0), face(1, 0)) == identity_delta(0)
    assert compose(degeneracy(0, 0), face(1, 1)) == identity_delta(0)
    f = face(2, 1)
    assert compose(f, identity_delta(1)) == f
    assert compose(identity_delta(2), f) == f
    assert compose(face(2, 1), face(1, 0)).values == (2,)
    with pytest.raises(DeltaError):
        compose(face(1, 0), face(1, 0))


def test_factorize_examples():
    w = factorize(identity_delta(2))
    assert w.faces == () and w.degeneracies == ()
    w = factorize(DeltaMap(2, 2, (0, 0, 2)))
    assert w.faces == (1,) and w.degeneracies == (0,)
    assert w.evaluate() == DeltaMap(2, 2, (0, 0, 2))
    w = factorize(face(2, 1))
    assert w.faces == (1,) and w.degeneracies == ()


def test_factorize_round_trip_exhaustive():
    # every map between ordinals up to [5]
    for n in range(6):
        for m in range(6):
            for f in all_delta_maps(n, m):
                word = factorize(f)
                assert word.evaluate() == f
                assert word.target == m


def all_normal_words(n, m):
    """Every normal-form word [n] -> [m]: a degeneracy subset of {0..n-1} and a
    face subset of {0..m} of compatible sizes."""
    out = []
    for degs in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        mid = n - len(degs)
        need = m - mid
        if need < 0:
            continue
        for faces in itertools.combinations(range(m + 1), need):
            try:
                out.append(GeneratorWord(n, tuple(faces), tuple(degs)))
            except DeltaError:
                continue
    return out


def test_normal_form_unique_and_complete():
    for n in range(4):
        for m in range(4):
            words = all_normal_words(n, m)
            evaluated = {}
            for word in words:
                try:
                    f = word.evaluate()
                except DeltaError:
                    continue
                assert f not in evaluated, f"{word} and {evaluated[f]} evaluate equal"
                evaluated[f] = word
            assert set(evaluated) == set(all_delta_maps(n, m))


def test_simplicial_identities_small_instances():
    report = verify_simplicial_identities(2)
    assert report.passed
    families = {family for family, *_ in report.entries}
    assert len(families) == 5
    # sigma_0 delta_0 = id on [0] is among the instances
    assert any(
        family.startswith("sigma_j delta_i = id") and n == 0 and i == 0 and j == 0
        for family, n, i, j, _ in report.entries
    )


def test_simplicial_identities_up_to_five():
    report = verify_simplicial_identities(5)
    assert report.passed
    assert not report.failures()


def test_identities_reject_bad_bound():
    with pytest.raises(DeltaError):
        verify_simplicial_identities(0)


def _valid_square_indices(case, n):
    if case in (1, 2):
        return [None]
    if case == 3:
        return list(range(1, n + 3))
    return list(range(0, n + 2))


@pytest.mark.parametrize("case", [1, 2, 3, "degeneracy"])
def test_pushout_squares_commute(case):
    for n in range(4):
        for i in _valid_square_indices(case, n):
            diagram, claimed = paper_pushout_square(case, n, i)
            assert claimed.commutes(), (case, n, i)


@pytest.mark.parametrize("case", [1, 2, 3, "degeneracy"])
def test_pushout_squares_have_delta_colimits(case):
    for n in range(3):
        for i in _valid_square_indices(case, n):
            diagram, claimed = paper_pushout_square(case, n, i)
            cocone = colimit_delta(diagram)
            assert cocone is not None
            assert cocone.apex.n == claimed.apex.n


def test_pushout_square_bad_indices():
    with pytest.raises(DeltaError):
        paper_pushout_square(3, 0, 0)  # case 3 needs 0 < i
    with pytest.raises(DeltaError):
        paper_pushout_square(3, 0, 3)
    with pytest.raises(DeltaError):
        paper_pushout_square("degeneracy", 0, 2)
    with pytest.raises(DeltaError):
        paper_pushout_square("twist", 0, 0)


@st.composite
def delta_maps(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=0, max_value=5))
    values = sorted(draw(st.lists(st.integers(0, m), min_size=n + 1, max_size=n + 1)))
    return DeltaMap(n, m, tuple(values))


@settings(max_examples=120, deadline=None)
@given(delta_maps())
def test_factorize_round_trip_randomized(f):
    assert factorize(f).evaluate() == f


@settings(max_examples=60, deadline=None)
@given(delta_maps(), delta_maps())
def test_factorize_respects_composition(f, g):
    # compose when endpoints line up, then round-trip the composite
    if f.target != g.source:
        return
    h = compose(g, f)
    assert factorize(h).evaluate() == h
