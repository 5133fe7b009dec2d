"""Comma diagrams, Kan extension values, functor maps, cocontinuity checks."""

import itertools

import pytest

from poscat import (
    DeltaMap,
    FinPoset,
    FunctorPresentation,
    KanError,
    MonotoneMap,
    PosetDiagram,
    check_extension_cocontinuity,
    colimit_pos,
    comma_diagram,
    density_colimit,
    extend,
    extend_map,
    face,
    find_isomorphism,
    inclusion_functor,
    monotone_maps,
    ordinal_poset,
    product_functor,
    product_poset,
    underlying_set_functor,
)
from poscat.corpus import all_posets
from poscat.delta import degeneracy, delta_to_monotone

from helpers import relabel, singleton, two_antichain, two_chain, v_poset, weak_comma_data


def test_comma_diagram_singleton_bound_one():
    diagram, _ = weak_comma_data(inclusion_functor(), singleton(), 1)
    assert len(diagram.nodes) == 2  # the point chain and the constant 1-chain
    kinds = sorted(eid.split(">")[0] for eid, *_ in diagram.edges)
    assert kinds == ["d0", "d1", "s0"]


def test_comma_diagram_antichain_bound_zero():
    diagram, _ = weak_comma_data(inclusion_functor(), two_antichain(), 0)
    assert len(diagram.nodes) == 2 and not diagram.edges


def test_comma_diagram_two_chain_bound_one():
    diagram, _ = weak_comma_data(inclusion_functor(), two_chain(), 1)
    assert len(diagram.nodes) == 5  # two points plus three weak 1-chains


def test_strict_comma_singleton():
    diagram = comma_diagram(inclusion_functor(), singleton(), 1)
    assert len(diagram.nodes) == 1 and not diagram.edges


def test_strict_comma_two_chain():
    diagram = comma_diagram(inclusion_functor(), two_chain(), 1)
    assert sorted(diagram.nodes) == ["0", "0,1", "1"]
    assert sorted(eid for eid, *_ in diagram.edges) == ["d0>0,1", "d1>0,1"]


def test_extend_inclusion_recovers_the_poset():
    for p in (singleton(), two_chain(), two_antichain(), v_poset()):
        result = extend(inclusion_functor(), p)
        assert find_isomorphism(result.value, p) is not None
        assert result.stabilization == p.height
        assert result.cocone.commutes()


def test_extend_on_chains_is_the_chain():
    for n in range(4):
        result = extend(inclusion_functor(), ordinal_poset(n))
        assert find_isomorphism(result.value, ordinal_poset(n)) is not None


def test_extend_product_functor():
    q = ordinal_poset(1)
    for p in (two_chain(), v_poset(), two_antichain()):
        result = extend(product_functor(q), p)
        expected = product_poset(p, q)
        assert find_isomorphism(result.value, expected) is not None


def test_extend_respects_isomorphism():
    p = v_poset()
    q = relabel(p, "z.")
    a = extend(inclusion_functor(), p).value
    b = extend(inclusion_functor(), q).value
    assert find_isomorphism(a, b) is not None


def test_extend_underlying_set_functor():
    for p in (two_chain(), v_poset()):
        result = extend(underlying_set_functor(), p)
        assert result.value.n == p.n
        assert not result.value.leq_pairs  # discrete


def test_extend_bound_below_height():
    with pytest.raises(KanError):
        extend(inclusion_functor(), v_poset(), initial_bound=0)


def test_built_in_functors_are_memoized():
    assert inclusion_functor() is inclusion_functor()
    assert underlying_set_functor() is underlying_set_functor()
    q = ordinal_poset(1)
    assert product_functor(q) is product_functor(ordinal_poset(1))
    # FinPoset equality ignores names, but the functor's object names use them
    a = FinPoset(q.elements, q.up_rows, name="a")
    b = FinPoset(q.elements, q.up_rows, name="b")
    fa, fb = product_functor(a), product_functor(b)
    assert a == b and fa is not fb
    assert (fa.name, fb.name) == ("product-with-a", "product-with-b")
    assert (fa.obj(0).name, fb.obj(0).name) == ("[0]xa", "[0]xb")


def test_functor_presentation_validation_catches_bad_images():
    def bad_generator(kind, n, i):
        d = face(n, i) if kind == "face" else degeneracy(n, max(0, i - 1) if i else 0)
        return delta_to_monotone(d)

    def swapped(kind, n, i):
        # degeneracy images collapse the wrong element
        if kind == "face":
            return delta_to_monotone(face(n, i))
        return delta_to_monotone(degeneracy(n, n - i if i <= n else i))

    with pytest.raises(KanError):
        FunctorPresentation("broken", "pos", ordinal_poset, swapped)
    with pytest.raises(KanError):
        FunctorPresentation("mismatched", "set", ordinal_poset, bad_generator)


def test_inclusion_apply_is_the_map_itself():
    functor = inclusion_functor()
    for n, m in itertools.product(range(4), repeat=2):
        for values in itertools.combinations_with_replacement(range(m + 1), n + 1):
            f = DeltaMap(n, m, values)
            assert functor.apply(f) == delta_to_monotone(f)


def test_check_cocontinuity_inclusion_pushout():
    a, b, c = ordinal_poset(0), ordinal_poset(1), ordinal_poset(1)
    diagram = PosetDiagram(
        nodes={"A": a, "B": b, "C": c},
        edges=[
            ("f", "A", "B", delta_to_monotone(face(1, 1))),
            ("g", "A", "C", delta_to_monotone(face(1, 0))),
        ],
    )
    report = check_extension_cocontinuity(inclusion_functor(), diagram)
    assert report.passed, report.detail
    assert report.extension_of_colimit.n == 3


def test_check_cocontinuity_single_node_product():
    diagram = PosetDiagram(nodes={"P": two_chain()}, edges=[])
    report = check_extension_cocontinuity(product_functor(ordinal_poset(1)), diagram)
    assert report.passed, report.detail


def test_check_cocontinuity_coequalizer_product():
    a, b = ordinal_poset(0), ordinal_poset(1)
    diagram = PosetDiagram(
        nodes={"A": a, "B": b},
        edges=[
            ("f", "A", "B", delta_to_monotone(face(1, 1))),
            ("g", "A", "B", delta_to_monotone(face(1, 0))),
        ],
    )
    report = check_extension_cocontinuity(product_functor(ordinal_poset(1)), diagram)
    assert report.passed, report.detail
    assert find_isomorphism(report.extension_of_colimit, ordinal_poset(1)) is not None


def test_extend_value_at_chains_is_the_functor_value():
    # the identity chain is terminal in its comma category
    for functor in (inclusion_functor(), product_functor(ordinal_poset(1)), underlying_set_functor()):
        for n in range(3):
            result = extend(functor, ordinal_poset(n))
            assert find_isomorphism(result.value, functor.obj(n)) is not None


def _leg_partition(cocone, node_ids):
    """The (node, element) pairs of the given nodes, grouped by apex element."""
    blocks = {}
    for nid in node_ids:
        leg = cocone.legs[nid]
        for x, a in zip(leg.source.elements, leg.values):
            blocks.setdefault(a, set()).add((nid, x))
    return sorted(sorted(block) for block in blocks.values())


def test_strict_and_weak_comma_colimits_agree():
    # finality: the weak truncation at the height, an independent oracle,
    # gives an isomorphic value that glues the strict chains' elements alike
    functors = [inclusion_functor(), underlying_set_functor()]
    functors += [product_functor(q) for q in (ordinal_poset(1),) + all_posets(2)]
    cases = 0
    for functor in functors:
        for p in all_posets(5):
            strict = extend(functor, p).cocone
            weak = colimit_pos(weak_comma_data(functor, p, p.height)[0])
            assert find_isomorphism(strict.apex, weak.apex) is not None
            assert _leg_partition(strict, strict.legs) == _leg_partition(weak, strict.legs)
            cases += 1
    assert cases == 7 * 88


def test_extend_map_is_a_functor():
    # at one common bound: extend_map(id) = id, and extend_map(g . f) =
    # extend_map(g) . extend_map(f) on every composable pair p -> q -> r with
    # q in all_posets(3) and p, r in all_posets(2)
    functor = inclusion_functor()
    small, mid = all_posets(2), all_posets(3)
    bound = max(p.height for p in mid)
    extended = {}

    def ext(f):
        if f not in extended:
            extended[f] = extend_map(functor, f, bound)
        return extended[f]

    pairs = 0
    for q in mid:
        image = ext(MonotoneMap.identity(q))
        assert image == MonotoneMap.identity(image.source)
        for p in small:
            for f in monotone_maps(p, q):
                for r in small:
                    for g in monotone_maps(q, r):
                        assert ext(g.compose(f)) == ext(g).compose(ext(f))
                        pairs += 1
    assert pairs == 1045


def test_extend_map_on_collapsing_maps():
    # g . t repeats elements of a strict chain t; under the canonical
    # isomorphism of density, extend_map(inclusion, g) is g itself
    functor = inclusion_functor()
    point = ordinal_poset(0)
    maps = [
        MonotoneMap.from_dict(ordinal_poset(2), point, {x: "0" for x in ordinal_poset(2).elements}),
        MonotoneMap.from_dict(v_poset(), point, {x: "0" for x in "abc"}),
    ]
    small = all_posets(3)
    maps += [g for p in small for q in small for g in monotone_maps(p, q)]
    collapsing = 0
    for g in maps:
        bound = max(g.source.height, g.target.height)
        u = extend_map(functor, g, bound)
        iso_s = density_colimit(g.source, bound).iso
        iso_t = density_colimit(g.target, bound).iso
        assert iso_t.compose(u) == g.compose(iso_s)
        collapsing += len(set(g.values)) < g.source.n
    assert collapsing > 2


def test_comma_rejects_ambiguous_chain_ids():
    # the chain (a, b) and the single element named "a,b" would share an id
    from poscat import make_poset

    bad = make_poset(["a", "b", "a,b"], [("a", "b")])
    with pytest.raises(KanError):
        comma_diagram(inclusion_functor(), bad, 1)
