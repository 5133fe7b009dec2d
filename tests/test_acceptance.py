"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import random
import time

from poscat import (
    FinPoset,
    PosetDiagram,
    check_continuity,
    colimit_delta,
    colimit_pos,
    density_colimit,
    extend,
    find_isomorphism,
    inclusion_functor,
    intersection_of_extensions,
    isomorphisms,
    linear_extensions,
    nerve,
    ordinal_poset,
    paper_pushout_square,
    product_functor,
    product_poset,
    reconstruct,
    simplicial_maps,
    verify_universal,
)
from poscat.colimits import induced_map
from poscat.corpus import all_posets, poset_classes
from poscat.posets import count_monotone_maps

from helpers import naturally_labeled_count, random_diagram
from test_continuity import (
    with_broken_identity,
    with_duplicate_edge,
    with_rewired_face,
    with_symmetric_pair,
    without_reflexive_edge,
)


def report(number, description, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status}  {description} ({time.time() - started:.1f}s)")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_01_nerve_continuity_sweep():
    t0 = time.time()
    # the generator's class count is verified against its own exhaustive
    # labeled enumeration through the orbit identity, not taken on faith
    ok = len(poset_classes(5)) == 63
    for n in range(6):
        orbit_total = sum(
            len(linear_extensions(p)) // len(isomorphisms(p, p)) for p in poset_classes(n)
        )
        ok = ok and orbit_total == naturally_labeled_count(n)
    for poset in all_posets(5):
        ok = ok and check_continuity(nerve(poset, 4)).passed
    report(1, "continuity of nerve(P,4) for all posets with <= 5 elements", ok, t0)


def test_acceptance_02_reconstruction_round_trip():
    t0 = time.time()
    failures = 0
    for poset in all_posets(5):
        rebuilt, iso = reconstruct(nerve(poset, 4))
        if find_isomorphism(poset, rebuilt) is None or not iso.is_levelwise_bijective():
            failures += 1
    report(2, "reconstruct(nerve(P,4)) is order-isomorphic to P, zero failures", failures == 0, t0)


def test_acceptance_03_full_faithfulness_counts():
    t0 = time.time()
    corpus = all_posets(4)
    nerves = {p.name: nerve(p, 1) for p in corpus}
    ok = True
    for p in corpus:
        for q in corpus:
            expected = count_monotone_maps(p, q)
            got = len(simplicial_maps(nerves[p.name], nerves[q.name]))
            ok = ok and expected == got
    report(3, "monotone maps match simplicial maps at K=1 for all pairs <= 4 elements", ok, t0)


def test_acceptance_04_szpilrajn():
    t0 = time.time()
    ok = all(
        intersection_of_extensions(p).up_rows == p.up_rows for p in all_posets(5)
    )
    report(4, "intersection of linear extensions recovers the order, <= 5 elements", ok, t0)


def test_acceptance_05_colimit_universal_property():
    t0 = time.time()
    rng = random.Random(20250810)
    ok = True
    for _ in range(100):
        diagram = random_diagram(rng)
        cocone = colimit_pos(diagram)
        result = verify_universal(diagram, cocone, 6)
        ok = ok and result.passed
    report(5, "100 random diagram colimits verified universal at apex bound 6", ok, t0)


def _square_matches_corner(case, n, i):
    diagram, claimed = paper_pushout_square(case, n, i)
    if not claimed.commutes():
        return False
    computed = colimit_delta(diagram)
    if computed is None or computed.apex.n != claimed.apex.n:
        return False
    mediator, _ = induced_map(computed, claimed.apex, claimed.legs)
    return mediator is not None and mediator.is_order_isomorphism()


def test_acceptance_06_paper_pushout_squares():
    t0 = time.time()
    ok = True
    for n in range(4):
        for case in (1, 2):
            ok = ok and _square_matches_corner(case, n, None)
        for i in range(1, n + 3):
            ok = ok and _square_matches_corner(3, n, i)
        for i in range(0, n + 2):
            ok = ok and _square_matches_corner("degeneracy", n, i)
    report(6, "generator pushout squares land on the printed corner, n <= 3", ok, t0)


def test_acceptance_07_no_coproducts_in_delta():
    t0 = time.time()
    diagram = PosetDiagram(nodes={"A": ordinal_poset(0), "B": ordinal_poset(0)}, edges=[])
    in_delta = colimit_delta(diagram)
    in_pos = colimit_pos(diagram)
    two_antichain = FinPoset(("a", "b"), (1, 2))
    ok = in_delta is None and find_isomorphism(in_pos.apex, two_antichain) is not None
    report(7, "two-point diagram: no colimit in the simplex category, antichain in posets", ok, t0)


def test_acceptance_08_density():
    t0 = time.time()
    ok = all(density_colimit(p, p.height).passed for p in all_posets(4))
    report(8, "chain-diagram colimit at bound height(P) rebuilds P, <= 4 elements", ok, t0)


def test_acceptance_09_kan_extension():
    t0 = time.time()
    inclusion = inclusion_functor()
    with_interval = product_functor(ordinal_poset(1))
    ok = True
    for p in all_posets(4):
        left = extend(inclusion, p)
        ok = ok and find_isomorphism(left.value, p) is not None
        ok = ok and left.stabilization <= p.height + 1
        right = extend(with_interval, p)
        expected = product_poset(p, ordinal_poset(1))
        ok = ok and find_isomorphism(right.value, expected) is not None
    report(9, "Kan extension: inclusion recovers P; product functor gives P x [1]", ok, t0)


def test_acceptance_10_negative_suite():
    t0 = time.time()
    cases = [
        (with_duplicate_edge, "relation_injective"),
        (with_broken_identity, "validation"),
        (without_reflexive_edge, "degeneracy_formulas"),
        (with_rewired_face, "face_formulas"),
        (with_symmetric_pair, "antisymmetry"),
    ]
    ok = True
    for build, expected_check in cases:
        broken = build()
        result = check_continuity(broken)
        ok = ok and not result.passed
        ok = ok and not result.verdicts[expected_check].passed
    report(10, "all five corruption kinds fail validation or the named check", ok, t0)
