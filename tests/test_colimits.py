"""Colimit engine: the three-stage recipe, subcategory reflections, universal property."""

import random

import pytest

from poscat import (
    Cocone,
    ColimitError,
    FinPoset,
    MonotoneMap,
    PosetDiagram,
    SubcategoryError,
    all_posets,
    colimit_delta,
    colimit_pos,
    colimit_tos,
    comma_diagram,
    face,
    find_isomorphism,
    inclusion_functor,
    linear_extensions,
    make_poset,
    ordinal_poset,
    product_functor,
    verify_universal,
)
from poscat import _kernels, colimits
from poscat.delta import delta_to_monotone

from helpers import digest, random_diagram, two_antichain, v_poset


def glue_pushout():
    """[1] <-d1- [0] -d0-> [1]: the endpoint of one arrow meets the start of the other."""
    return PosetDiagram(
        nodes={"A": ordinal_poset(0), "B": ordinal_poset(1), "C": ordinal_poset(1)},
        edges=[
            ("f", "A", "B", delta_to_monotone(face(1, 1))),
            ("g", "A", "C", delta_to_monotone(face(1, 0))),
        ],
    )


def coequalizer_loop():
    """d0, d1 : [0] => [1]; the resulting cycle 0 <= 1 <= 0 collapses."""
    return PosetDiagram(
        nodes={"A": ordinal_poset(0), "B": ordinal_poset(1)},
        edges=[
            ("f", "A", "B", delta_to_monotone(face(1, 1))),
            ("g", "A", "B", delta_to_monotone(face(1, 0))),
        ],
    )


def two_points():
    return PosetDiagram(nodes={"A": ordinal_poset(0), "B": ordinal_poset(0)}, edges=[])


def test_pushout_gives_three_chain():
    cocone = colimit_pos(glue_pushout())
    assert cocone.commutes()
    assert cocone.apex.n == 3 and cocone.apex.is_total
    assert find_isomorphism(cocone.apex, ordinal_poset(2)) is not None


def test_coequalizer_collapses_to_point():
    cocone = colimit_pos(coequalizer_loop())
    assert cocone.apex.n == 1


def test_scc_collapse_across_distinct_classes():
    # two chains glued head-to-tail both ways force a genuine cycle of classes
    a = two_antichain()
    b = ordinal_poset(1)
    c = ordinal_poset(1)
    diagram = PosetDiagram(
        nodes={"A": a, "B": b, "C": c},
        edges=[
            ("f", "A", "B", MonotoneMap(a, b, ("0", "1"))),
            ("g", "A", "C", MonotoneMap(a, c, ("1", "0"))),
        ],
    )
    cocone = colimit_pos(diagram)
    assert cocone.apex.elements == ("A.a",)
    assert cocone.apex.up_rows == (1,)
    assert {nid: leg.values for nid, leg in cocone.legs.items()} == {
        "A": ("A.a", "A.a"),
        "B": ("A.a", "A.a"),
        "C": ("A.a", "A.a"),
    }


def test_component_names_take_the_least_cell_in_tuple_order():
    # the class {a.1, a,b.0, b.0} is named a.1, its least cell as a tuple, though
    # "a,b.0" sorts first as a string; the apex then lists the names as strings
    pt, edge = ordinal_poset(0), ordinal_poset(1)
    diagram = PosetDiagram(
        nodes={"a": edge, "a,b": edge, "b": pt},
        edges=[
            ("f", "b", "a", MonotoneMap(pt, edge, ("1",))),
            ("g", "b", "a,b", MonotoneMap(pt, edge, ("0",))),
        ],
    )
    cocone = colimit_pos(diagram)
    assert cocone.apex.elements == ("a,b.1", "a.0", "a.1")
    assert cocone.apex.up_rows == (1, 7, 5)
    assert {nid: leg.values for nid, leg in cocone.legs.items()} == {
        "a": ("a.0", "a.1"),
        "a,b": ("a.1", "a,b.1"),
        "b": ("a.1",),
    }
    # within the least node, the least element by name, not by index
    assert colimit_pos(unsorted_node_diagram()).apex.elements == ("P.a",)


def unsorted_node_diagram():
    """A point glued to both elements of P, whose index order b, a is not
    its name order."""
    p, point = FinPoset(("b", "a"), (1, 2)), ordinal_poset(0)
    return PosetDiagram(
        nodes={"P": p, "pt": point},
        edges=[
            ("f", "pt", "P", MonotoneMap(point, p, ("b",))),
            ("g", "pt", "P", MonotoneMap(point, p, ("a",))),
        ],
    )


def test_clashing_component_names_raise_a_colimit_error():
    # two components named a.b.c, though no node repeats an element: the
    # least cells ('a', 'b.c') and ('a.b', 'c') share one label
    diagram = PosetDiagram(
        nodes={"a": make_poset(["b.c"], []), "a.b": make_poset(["c"], [])}, edges=[]
    )
    with pytest.raises(ColimitError) as failure:
        colimit_pos(diagram)
    assert str(failure.value) == (
        "two colimit elements would share the name 'a.b.c': "
        "the cells ('a', 'b.c') and ('a.b', 'c')"
    )


def partition_reference(items, links):
    """Classes of the equivalence on `items` generated by the pairs in `links`
    (union-find); each class lists its members in the order of `items`."""
    parent = {x: x for x in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def set_colimit_classes_reference(diagram):
    """Stage one as the tuple-keyed union-find computed it before cells were
    numbered, kept as an oracle for `colimits._stage_one`: the disjoint union
    of carriers modulo x ~ f(x) for every edge.

    Returns (class_members, class_of) with classes sorted by their smallest
    'node.element' label.
    """
    cells = [(nid, e) for nid, poset in diagram.nodes.items() for e in poset.elements]
    links = (
        ((src, x), (dst, y))
        for _, src, dst, f in diagram.edges
        for x, y in zip(f.source.elements, f.values)
    )
    members = sorted(
        (sorted(g, key=lambda t: f"{t[0]}.{t[1]}") for g in partition_reference(cells, links)),
        key=lambda g: f"{g[0][0]}.{g[0][1]}",
    )
    class_of = {key: c for c, group in enumerate(members) for key in group}
    return members, class_of


def class_relation_reference(diagram, class_of):
    """Distinct class pairs (c1, c2) induced by some node relation x <= y."""
    pairs = set()
    for nid, poset in diagram.nodes.items():
        for i, j in poset.leq_pairs:
            c1 = class_of[(nid, poset.elements[i])]
            c2 = class_of[(nid, poset.elements[j])]
            if c1 != c2:
                pairs.add((c1, c2))
    return sorted(pairs)


def colimit_reference(diagram):
    """The apex elements, up-rows and leg values that `colimit_pos` built on
    the reference stage one."""
    members, class_of = set_colimit_classes_reference(diagram)
    rows = [0] * len(members)
    for i, j in class_relation_reference(diagram, class_of):
        rows[i] |= 1 << j
    closed = _kernels.transitive_closure(rows)
    named = []
    for comp in _kernels.condense(closed):
        node, element = min(cell for c in comp for cell in members[c])
        named.append((f"{node}.{element}", comp))
    named.sort()
    name_of = {}
    for name, comp in named:
        name_of.update(dict.fromkeys(comp, name))
    up = _kernels.meet_rows([closed], [comp[0] for _, comp in named])
    legs = {
        nid: tuple(name_of[class_of[(nid, e)]] for e in poset.elements)
        for nid, poset in diagram.nodes.items()
    }
    return tuple(name for name, _ in named), tuple(up), legs


def shared_label_diagram():
    """Two classes whose first members share the label a.b.c: z.0 ~ (a, b.c)
    and (a.b, c) ~ a.z, with b.c <= z in node a.  Classes tie on that label
    and then come in the order of their earliest cells, so the class of z.0
    (cell 0) is first, though its a.b.c cell (2) follows the other's (1)."""
    point, c = make_poset(["0"], []), make_poset(["c"], [])
    a = make_poset(["b.c", "z"], [("b.c", "z")])
    return PosetDiagram(
        nodes={"z": point, "a.b": c, "a": a},
        edges=[
            ("f", "z", "a", MonotoneMap(point, a, ("b.c",))),
            ("g", "a.b", "a", MonotoneMap(c, a, ("z",))),
        ],
    )


def shared_label_class_diagram():
    """One class whose two members share the label a.b.c: members tie on it
    and then come in cell order, (a.b, c) before (a, b.c)."""
    c, bc = make_poset(["c"], []), make_poset(["b.c"], [])
    return PosetDiagram(
        nodes={"a.b": c, "a": bc}, edges=[("f", "a", "a.b", MonotoneMap(bc, c, ("c",)))]
    )


def stage_one_inputs():
    rng = random.Random(20261022)
    for _ in range(300):
        yield random_diagram(rng)
    for functor in (inclusion_functor(), product_functor(ordinal_poset(1))):
        for p in all_posets(4):
            yield comma_diagram(functor, p, p.height)
    yield shared_label_diagram()
    yield shared_label_class_diagram()
    yield unsorted_node_diagram()


def test_stage_one_matches_the_tuple_keyed_reference():
    # the same members, class order and class relation as the tuple-keyed
    # union-find, and the same colimit built on them
    for diagram in stage_one_inputs():
        _, class_of, members, rows = colimits._stage_one(diagram)
        cells = [(nid, e) for nid, poset in diagram.nodes.items() for e in poset.elements]
        want_members, want_class_of = set_colimit_classes_reference(diagram)
        assert [[cells[c] for c in group] for group in members] == want_members
        assert dict(zip(cells, class_of)) == want_class_of
        pairs = [(c, d) for c, row in enumerate(rows) for d in _kernels.set_bits(row) if c != d]
        assert pairs == class_relation_reference(diagram, want_class_of)
        cocone = colimit_pos(diagram)
        legs = {nid: leg.values for nid, leg in cocone.legs.items()}
        assert (cocone.apex.elements, cocone.apex.up_rows, legs) == colimit_reference(diagram)


def test_a_shared_label_orders_classes_by_their_earliest_cells():
    diagram = shared_label_diagram()
    assert colimits._stage_one(diagram)[2] == [[2, 0], [1, 3]]
    assert colimits._stage_one(shared_label_class_diagram())[2] == [[0, 1]]
    # the collapse of the two-element colimit fails first on the class of
    # z.0, walked first as slot 0
    cocone = colimit_pos(diagram)
    point = FinPoset(("p",), (1,))
    legs = {
        nid: MonotoneMap(leg.source, point, ("p",) * leg.source.n) for nid, leg in cocone.legs.items()
    }
    report = verify_universal(diagram, Cocone(diagram, point, legs), 3)
    assert report.witness == "cocone into P2.1 assigns 0 to [a.b.c, z.0] but admits no mediating map"


def test_single_node_diagram_is_identity():
    p = v_poset()
    diagram = PosetDiagram(nodes={"P": p}, edges=[])
    cocone = colimit_pos(diagram)
    assert find_isomorphism(cocone.apex, p) is not None
    leg = cocone.legs["P"]
    assert leg.is_order_isomorphism()


def test_empty_diagram_gives_empty_poset():
    cocone = colimit_pos(PosetDiagram(nodes={}, edges=[]))
    assert cocone.apex.n == 0


def test_legs_jointly_epic_and_monotone():
    rng = random.Random(5)
    for _ in range(20):
        diagram = random_diagram(rng)
        cocone = colimit_pos(diagram)
        assert cocone.commutes()
        hit = set()
        for leg in cocone.legs.values():
            hit.update(leg.values)
        assert hit == set(cocone.apex.elements)


def test_colimit_delta_examples():
    assert colimit_delta(two_points()) is None
    cocone = colimit_delta(glue_pushout())
    assert cocone is not None and cocone.apex.n == 3
    bad = PosetDiagram(nodes={"V": v_poset()}, edges=[])
    with pytest.raises(SubcategoryError):
        colimit_delta(bad)
    empty_node = PosetDiagram(nodes={"E": make_poset([], [])}, edges=[])
    with pytest.raises(SubcategoryError):
        colimit_delta(empty_node)


def test_colimit_delta_agrees_with_pos_when_it_exists():
    rng = random.Random(23)
    seen = 0
    while seen < 10:
        diagram = random_diagram(rng, max_nodes=3, max_elems=3)
        if not all(p.is_total and p.n > 0 for p in diagram.nodes.values()):
            continue
        seen += 1
        pos = colimit_pos(diagram)
        delta = colimit_delta(diagram)
        if delta is not None:
            assert delta.apex == pos.apex
            assert delta.legs == pos.legs


def test_colimit_tos_examples():
    assert colimit_tos(two_points()) is None
    single = PosetDiagram(nodes={"T": ordinal_poset(2)}, edges=[])
    cocone = colimit_tos(single)
    assert cocone is not None and cocone.apex.n == 3
    assert colimit_tos(coequalizer_loop()).apex.n == 1
    empty_ok = PosetDiagram(nodes={"E": make_poset([], [])}, edges=[])
    assert colimit_tos(empty_ok) is not None  # the empty order is total


def test_verify_universal_fixture_diagrams():
    for diagram in (glue_pushout(), coequalizer_loop(), two_points()):
        cocone = colimit_pos(diagram)
        report = verify_universal(diagram, cocone, 4)
        assert report.passed, report.witness
        assert report.cocones_checked > 0


def test_verify_universal_rejects_extra_isolated_element():
    diagram = glue_pushout()
    cocone = colimit_pos(diagram)
    apex = FinPoset(
        cocone.apex.elements + ("stray",),
        tuple(cocone.apex.up_rows) + (1 << cocone.apex.n,),
    )
    legs = {
        nid: MonotoneMap(leg.source, apex, leg.values) for nid, leg in cocone.legs.items()
    }
    report = verify_universal(diagram, Cocone(diagram, apex, legs), 3)
    assert not report.passed
    failing = next(e for e in report.entries if not e.ok)
    assert report.witness.startswith(f"cocone into {failing.apex_label} sending ")
    assert "mediating map" in report.witness


def test_verify_universal_rejects_wrong_quotient():
    # candidate glues nothing: the two-point diagram with a 2-chain apex fails
    diagram = two_points()
    apex = ordinal_poset(1)
    legs = {
        "A": MonotoneMap(diagram.nodes["A"], apex, ("0",)),
        "B": MonotoneMap(diagram.nodes["B"], apex, ("1",)),
    }
    report = verify_universal(diagram, Cocone(diagram, apex, legs), 3)
    assert not report.passed
    assert report.witness


def test_broken_identification_is_named_after_its_first_class():
    # the candidate glues a < b into one point; the first cocone that keeps
    # them apart sends a below b, so it breaks the pair b <= a of the
    # identification, and the witness still names a's class
    chain = make_poset(["a", "b"], [("a", "b")])
    diagram = PosetDiagram(nodes={"B": chain}, edges=[])
    point = FinPoset(("z",), (1,))
    candidate = Cocone(diagram, point, {"B": MonotoneMap(chain, point, ("z", "z"))})
    report = verify_universal(diagram, candidate, 2)
    assert report.witness == "cocone into P2.1 assigns 0 to [B.a] but admits no mediating map"
    # two such chains glued into two points: both components fail first at
    # P2.1, and the witness names the first one
    diagram = PosetDiagram(nodes={"B": chain, "C": chain}, edges=[])
    points = FinPoset(("y", "z"), (1, 2))
    legs = {
        "B": MonotoneMap(chain, points, ("y", "y")),
        "C": MonotoneMap(chain, points, ("z", "z")),
    }
    report = verify_universal(diagram, Cocone(diagram, points, legs), 2)
    assert report.witness == "cocone into P2.1 assigns 0 to [B.a] but admits no mediating map"


def test_verify_universal_noncommuting_candidate():
    diagram = coequalizer_loop()
    apex = ordinal_poset(1)
    legs = {
        "A": MonotoneMap(diagram.nodes["A"], apex, ("0",)),
        "B": MonotoneMap.identity(ordinal_poset(1)),
    }
    with pytest.raises(ColimitError):
        verify_universal(diagram, Cocone(diagram, apex, legs), 2)


def test_verify_universal_empty_diagram():
    diagram = PosetDiagram(nodes={}, edges=[])
    cocone = colimit_pos(diagram)
    report = verify_universal(diagram, cocone, 3)
    assert report.passed
    bad = Cocone(diagram, ordinal_poset(0), {})
    report = verify_universal(diagram, bad, 3)
    assert not report.passed  # a one-point apex is not initial


def test_condensation_idempotent_on_posets():
    # a diagram that is already a poset with no gluing comes back unchanged
    p = v_poset()
    cocone = colimit_pos(PosetDiagram(nodes={"P": p}, edges=[]))
    again = colimit_pos(PosetDiagram(nodes={"Q": cocone.apex}, edges=[]))
    assert find_isomorphism(again.apex, p) is not None


def test_random_diagrams_verify_small_bound():
    rng = random.Random(71)
    for _ in range(8):
        diagram = random_diagram(rng, max_nodes=3, max_elems=3)
        cocone = colimit_pos(diagram)
        report = verify_universal(diagram, cocone, 4)
        assert report.passed, report.witness


def brute_force_universal(diagram, candidate, bound):
    """Independent oracle: materialize every cocone as a tuple of monotone legs
    and count mediating maps by filtering all monotone maps out of the apex.

    Returns one (apex label, cocones, existence, uniqueness) tuple per target.
    """
    import itertools

    from poscat import monotone_maps
    from poscat.corpus import all_posets

    node_ids = diagram.node_ids
    out = []
    for target in all_posets(bound):
        choices = [monotone_maps(diagram.nodes[nid], target) for nid in node_ids]
        mediators = monotone_maps(candidate.apex, target)
        cocones = 0
        exists = unique = True
        for legs in itertools.product(*choices):
            legs = dict(zip(node_ids, legs))
            # composites compared by their values: every map here has the
            # source and target the comparison needs
            if any(tuple(map(legs[d], f.values)) != legs[s].values for _, s, d, f in diagram.edges):
                continue
            cocones += 1
            count = sum(
                1
                for u in mediators
                if all(
                    tuple(map(u, candidate.legs[nid].values)) == legs[nid].values
                    for nid in node_ids
                )
            )
            exists = exists and count > 0
            unique = unique and count < 2
        out.append((target.name, cocones, exists, unique))
    return out


def verdicts(report):
    """The report's entries in the oracle's form."""
    return [(e.apex_label, e.cocones, e.existence_ok, e.uniqueness_ok) for e in report.entries]


def hit_candidates(cocone, rng):
    """Wrong candidates whose legs hit every apex element, by kind: the
    one-point collapse of the apex, the quotient that glues two apex elements,
    and the apex with one more order relation.  The kinds the apex cannot
    give (it has one element, or it is a chain) are left out."""
    diagram, apex = cocone.diagram, cocone.apex
    names = apex.elements
    out = {}
    if apex.n >= 2:
        point = FinPoset(("z",), (1,))
        out["collapsed"] = Cocone(
            diagram,
            point,
            {k: MonotoneMap(leg.source, point, ("z",) * leg.source.n) for k, leg in cocone.legs.items()},
        )
        a, b = rng.sample(names, 2)
        glue = PosetDiagram(
            nodes={"apex": apex, "pt": point},
            edges=[
                ("f", "pt", "apex", MonotoneMap(point, apex, (a,))),
                ("g", "pt", "apex", MonotoneMap(point, apex, (b,))),
            ],
        )
        quotient = colimit_pos(glue).legs["apex"]
        out["quotient"] = Cocone(
            diagram,
            quotient.target,
            {nid: quotient.compose(leg) for nid, leg in cocone.legs.items()},
        )
    incomparable = [
        (x, y) for x in names for y in names if x != y and not apex.leq(x, y) and not apex.leq(y, x)
    ]
    if incomparable:
        covers = [(names[i], names[j]) for i, j in apex.cover_pairs]
        ordered = make_poset(names, covers + [rng.choice(incomparable)])
        out["ordered"] = Cocone(
            diagram,
            ordered,
            {nid: MonotoneMap(leg.source, ordered, leg.values) for nid, leg in cocone.legs.items()},
        )
    return out


def test_verify_universal_matches_brute_force():
    # the colimit and wrong candidates that hit every apex element: the whole
    # report agrees with brute force, and a witness comes with every failure
    rng = random.Random(99)
    kinds = set()
    for _ in range(12):
        diagram = random_diagram(rng, max_nodes=2, max_elems=3)
        cocone = colimit_pos(diagram)
        for kind, candidate in {"colimit": cocone, **hit_candidates(cocone, rng)}.items():
            report = verify_universal(diagram, candidate, 3)
            assert verdicts(report) == brute_force_universal(diagram, candidate, 3), kind
            assert report.passed == (kind == "colimit"), kind
            assert bool(report.witness) == (not report.passed), kind
            kinds.add(kind)
    assert kinds == {"colimit", "collapsed", "quotient", "ordered"}


def test_bound_two_decides_the_verdict():
    # into [1] a poset's maps are its up-sets, which tell its elements and
    # its order apart: a candidate that is not a colimit already fails into
    # a two-element target, and larger bounds only add per-target counts
    rng = random.Random(20261020)
    triples = 0
    for _ in range(30):
        diagram = random_diagram(rng, max_nodes=3, max_elems=3)
        cocone = colimit_pos(diagram)
        cases = [(c, (3, 4)) for c in (cocone, *hit_candidates(cocone, rng).values())]
        n = cocone.apex.n
        for top in (1 << n, 0):  # one unhit element on top, then beside
            rows = (*(r | top for r in cocone.apex.up_rows), 1 << n)
            apex = FinPoset(cocone.apex.elements + ("u",), rows)
            legs = {nid: MonotoneMap(leg.source, apex, leg.values) for nid, leg in cocone.legs.items()}
            cases.append((Cocone(diagram, apex, legs), (3,)))
        for candidate, bounds in cases:
            passed = verify_universal(diagram, candidate, 2).passed
            for bound in bounds:
                report = verify_universal(diagram, candidate, bound)
                assert report.passed == passed
                assert [e.apex_size for e in report.entries if not e.ok][:1] in ([], [2])
                triples += 1
    assert triples == 232


def with_unhit(cocone, shape, rng):
    """A candidate with new apex elements that no leg hits.

    Shapes: one isolated element; one above, below or between hit elements;
    two in a chain between hit elements; one above a one-point collapse of
    the apex (cocones that separate two classes break an identification);
    one below a hit element of a linear extension of the apex (cocones that
    are not monotone for the added relations break the order).  None when the
    apex has no pair a < b to put elements between.
    """
    apex = cocone.apex
    names = list(apex.elements)
    pairs = [(names[i], names[j]) for i, j in apex.cover_pairs]
    values = {nid: leg.values for nid, leg in cocone.legs.items()}
    hit = rng.choice(names)
    if shape == "isolated":
        new = ["u"]
    elif shape == "above":
        new, pairs = ["u"], pairs + [(hit, "u")]
    elif shape == "below":
        new, pairs = ["u"], pairs + [("u", hit)]
    elif shape == "collapsed":
        names, new, pairs = ["z"], ["u"], [("z", "u")]
        values = {nid: ("z",) * len(v) for nid, v in values.items()}
    elif shape == "linear":
        total = rng.choice(linear_extensions(apex))
        new = ["u"]
        pairs = [(total.elements[i], total.elements[j]) for i, j in total.cover_pairs]
        pairs.append(("u", hit))
    else:
        if not apex.leq_pairs:
            return None
        i, j = rng.choice(apex.leq_pairs)
        lo, hi = names[i], names[j]
        if shape == "between":
            new, pairs = ["u"], pairs + [(lo, "u"), ("u", hi)]
        else:
            new, pairs = ["u", "v"], pairs + [(lo, "u"), ("u", "v"), ("v", hi)]
    big = make_poset(names + new, pairs)
    legs = {nid: MonotoneMap(leg.source, big, values[nid]) for nid, leg in cocone.legs.items()}
    return Cocone(cocone.diagram, big, legs)


def test_verify_universal_unhit_elements_match_brute_force():
    rng = random.Random(131)
    checked = 0
    while checked < 24:
        diagram = random_diagram(rng, max_nodes=2, max_elems=3)
        cocone = colimit_pos(diagram)
        for shape in ("isolated", "above", "below", "between", "chain", "collapsed", "linear"):
            candidate = with_unhit(cocone, shape, rng)
            if candidate is None:
                continue
            report = verify_universal(diagram, candidate, 3)
            assert verdicts(report) == brute_force_universal(diagram, candidate, 3), shape
            checked += 1


def test_verify_universal_many_unhit_elements():
    # 1,100 isolated unhit apex elements: deeper than the recursion limit
    diagram = PosetDiagram(nodes={"A": ordinal_poset(0)}, edges=[])
    names = ("0",) + tuple(f"u{k:04d}" for k in range(1100))
    apex = FinPoset(names, tuple(1 << k for k in range(1101)))
    candidate = Cocone(diagram, apex, {"A": MonotoneMap(diagram.nodes["A"], apex, ("0",))})
    report = verify_universal(diagram, candidate, 2)
    assert report.passed is False
    assert verdicts(report) == [
        ("P0.0", 0, True, True),
        ("P1.0", 1, True, True),
        ("P2.0", 2, True, False),
        ("P2.1", 2, True, False),
    ]
    assert report.witness.endswith("more than one mediating map")


def test_verify_universal_long_unhit_chain():
    # [1] into an apex that adds a chain of k unhit elements above its top:
    # a completion is unique exactly when the top's image is maximal, for
    # every k >= 1, so the verdicts at k = 40 are brute force's at k = 2.
    # The plan over the chain is a path, whose frontier memo counts each
    # target's completions in O(k x n^2) rather than one step per chain.
    diagram = PosetDiagram(nodes={"A": ordinal_poset(1)}, edges=[])

    def candidate(k):
        apex = ordinal_poset(k + 1)
        return Cocone(diagram, apex, {"A": MonotoneMap(diagram.nodes["A"], apex, ("0", "1"))})

    report = verify_universal(diagram, candidate(40), 6)
    assert verdicts(report) == brute_force_universal(diagram, candidate(2), 6)
    assert report.witness.endswith("more than one mediating map")


# `digest` of the lines below; the same under PYTHONHASHSEED 1, 2 and 3
REPORTS_DIGEST = "2074e043f9c2c2caff389b7be4d57e3b6a8853218426a474582a80a2e73b3bc9"


def test_verify_universal_reports_at_bound_six_are_pinned():
    """Same reports, on both branches: acceptance criterion 05's hundred
    random diagrams with their colimits (every apex element hit), then the
    40-element chain of unhit elements above [1]."""

    def reports():
        rng = random.Random(20250810)
        for _ in range(100):
            diagram = random_diagram(rng)
            yield verify_universal(diagram, colimit_pos(diagram), 6)
        diagram = PosetDiagram(nodes={"A": ordinal_poset(1)}, edges=[])
        apex = ordinal_poset(41)
        leg = MonotoneMap(diagram.nodes["A"], apex, ("0", "1"))
        yield verify_universal(diagram, Cocone(diagram, apex, {"A": leg}), 6)

    def lines():
        for report in reports():
            yield repr(verdicts(report))
            yield repr(report.witness)

    assert digest(lines()) == REPORTS_DIGEST


# `digest` of the lines below; the same under PYTHONHASHSEED 0, 1, 2 and 3
HIT_WITNESSES_DIGEST = "d989c4fbf755d3cceaa093e76739fc4e81101b49a7e2176f08425d9b5964241b"


def test_verify_universal_hit_witnesses_are_pinned():
    """Same reports for wrong candidates that hit every apex element: the
    verdicts and the witness of each collapsed, quotient and ordered
    candidate of twenty random diagrams, at bounds 3 and 4, so the first
    failing target and component that name the witness are pinned."""

    def lines():
        rng = random.Random(20261019)
        for _ in range(20):
            diagram = random_diagram(rng)
            for kind, candidate in hit_candidates(colimit_pos(diagram), rng).items():
                for bound in (3, 4):
                    report = verify_universal(diagram, candidate, bound)
                    assert not report.passed and report.witness, kind
                    yield kind
                    yield repr(verdicts(report))
                    yield repr(report.witness)

    assert digest(lines()) == HIT_WITNESSES_DIGEST


def test_verify_universal_rejects_a_negative_bound():
    # all_posets(-1) would be empty, and an empty report passes
    diagram = PosetDiagram(nodes={"A": ordinal_poset(1)}, edges=[])
    with pytest.raises(ValueError, match="poset size must be >= 0"):
        verify_universal(diagram, colimit_pos(diagram), -1)


def run_plan_calls(monkeypatch):
    """The batch size of every `_kernels.run_plan` call made from now on."""
    calls = []
    run = _kernels.run_plan

    def counting(plan, union):
        calls.append(len(union))
        return run(plan, union)

    monkeypatch.setattr(_kernels, "run_plan", counting)
    return calls


def test_each_apex_or_target_runs_the_plan_once(monkeypatch):
    calls = run_plan_calls(monkeypatch)
    n_targets = len(all_posets(4))
    # hit, the colimit: components [1], [1] and [0]; the candidate's apex is
    # the colimit's, counted once
    chain = ordinal_poset(1)
    diagram = PosetDiagram(nodes={"A": chain, "B": chain, "C": ordinal_poset(0)}, edges=[])
    assert verify_universal(diagram, colimit_pos(diagram), 4).passed
    assert calls == [n_targets]
    # hit, not the colimit: two points sent to 0 < 1; the colimit's apex is
    # the discrete one and the candidate's the chain, each counted once
    calls.clear()
    diagram = two_points()
    legs = {
        "A": MonotoneMap(diagram.nodes["A"], chain, ("0",)),
        "B": MonotoneMap(diagram.nodes["B"], chain, ("1",)),
    }
    assert not verify_universal(diagram, Cocone(diagram, chain, legs), 4).passed
    assert calls == [n_targets] * 2
    # unhit: one batch per target, holding each distinct tuple of domains
    # once.  The colimit's apex is the chain 0 < 1 < 2, and u is put above
    # 2: u's domain is the up-set of 2's image, so a target's cocones (its
    # 3-element multichains) give as many distinct domains as it has
    # elements, each the top of some multichain
    calls.clear()
    diagram = glue_pushout()
    cocone = colimit_pos(diagram)
    n = cocone.apex.n
    apex = FinPoset(
        cocone.apex.elements + ("u",), tuple(r | 1 << n for r in cocone.apex.up_rows) + (1 << n,)
    )
    legs = {nid: MonotoneMap(leg.source, apex, leg.values) for nid, leg in cocone.legs.items()}
    report = verify_universal(diagram, Cocone(diagram, apex, legs), 4)
    assert calls == [t.n for t in all_posets(4)]
    assert sum(calls) < sum(entry.cocones for entry in report.entries)
