"""The benchmark's own oracles and checks: each accepts poscat's answer and
flags a deliberately wrong one.

    PYTHONPATH=src python -m pytest bench/tests
"""

import os
import sys
from itertools import permutations
from math import comb
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracles  # noqa: E402
import poscat  # noqa: E402
import poscat.cli  # noqa: E402,F401
import workloads  # noqa: E402


def chain(k):
    return oracles.chain_order(k - 1)


def antichain(k):
    elements = [str(i) for i in range(k)]
    return elements, {(x, x) for x in elements}


V = (["a", "b", "c"], oracles.closure(["a", "b", "c"], [("a", "c"), ("b", "c")]))
WEDGE = (["a", "b", "c"], oracles.closure(["a", "b", "c"], [("a", "b"), ("a", "c")]))


def test_closure_and_partial_order():
    leq = oracles.closure("xyz", [("x", "y"), ("y", "z")])
    assert ("x", "z") in leq and oracles.is_partial_order("xyz", leq)
    assert not oracles.is_partial_order("xyz", leq - {("x", "z")})
    assert not oracles.is_partial_order("xy", oracles.closure("xy", [("x", "y"), ("y", "x")]))


def test_poset_classes_follow_a000112():
    classes = workloads.poset_classes(5)
    assert workloads.check_class_counts(classes) == ""
    assert workloads.check_class_counts(classes[:-1]) != ""
    assert all(oracles.is_partial_order(*cls) for cls in classes)


def test_height():
    assert oracles.height(*chain(4)) == 3
    assert oracles.height(*antichain(3)) == 0
    assert oracles.height(*V) == 1


def test_weak_chain_count_is_multiset_count_on_a_chain():
    for k in range(1, 5):
        for n in range(4):
            assert oracles.count_weak_chains(*chain(k), n) == comb(k + n, n + 1)


def test_monotone_count_against_poscat_and_an_off_by_one():
    for p in (V, WEDGE, chain(3), antichain(2)):
        for q in (V, chain(2), antichain(3)):
            want = poscat.count_monotone_maps(program(p), program(q))
            assert oracles.count_monotone(*p, *q) == want
            assert len(oracles.monotone_functions(*p, *q)) == want
    assert oracles.count_monotone(*antichain(2), *chain(2)) == 4


def test_linear_extensions():
    assert oracles.count_linear_extensions(*antichain(3)) == 6
    assert oracles.count_linear_extensions(*chain(4)) == 1
    assert oracles.count_linear_extensions(*V) == 2
    assert oracles.is_linear_extension(["a", "b", "c"], *V)
    assert not oracles.is_linear_extension(["c", "a", "b"], *V)
    assert not oracles.is_linear_extension(["a", "b"], *V)


def test_isomorphism_and_bijection_checks():
    assert oracles.find_isomorphism(*V, *WEDGE) is None
    square = oracles.product_order(*chain(2), *chain(2))
    iso = oracles.find_isomorphism(*square, *square)
    assert oracles.check_order_bijection(iso, *square, *square) == ""
    swap = {"a": "b", "b": "a", "c": "c"}
    assert oracles.check_order_bijection(swap, *V, *V) == ""
    wrong = {"a": "c", "b": "b", "c": "a"}
    assert "order" in oracles.check_order_bijection(wrong, *V, *V)
    assert "bijection" in oracles.check_order_bijection({"a": "a", "b": "a", "c": "c"}, *V, *V)


def test_simplicial_identity_instances_count():
    for max_n in range(1, 7):
        instances, failures = oracles.simplicial_identity_instances(max_n)
        faces = sum(comb(m + 1, 2) for m in range(2, max_n + 1))
        degeneracies = sum(comb(m + 2, 2) for m in range(0, max_n - 1))
        mixed = sum((m + 1) * (m + 2) for m in range(0, max_n))
        assert (instances, failures) == (faces + degeneracies + mixed, 0)


def program(order, name=""):
    elements, leq = order
    return poscat.make_poset(list(elements), [(x, y) for x, y in leq if x != y], name=name)


def span_diagram():
    """Two chains a<b and c<d<e glued along their bottoms and tops."""
    orders = {
        "L": workloads.Order(poscat, ["a", "b"], oracles.closure("ab", [("a", "b")])),
        "R": workloads.Order(poscat, ["c", "d", "e"], oracles.closure("cde", [("c", "d"), ("d", "e")])),
    }
    edges = [("g", "L", "R", {"a": "c", "b": "e"})]
    f = poscat.MonotoneMap.from_dict(orders["L"].program, orders["R"].program, edges[0][3])
    program_diagram = poscat.PosetDiagram(
        nodes={k: o.program for k, o in orders.items()}, edges=[("g", "L", "R", f)]
    )
    return workloads.Diagram(orders, edges, program_diagram)


def test_reference_colimit_accepts_poscat_and_flags_a_swapped_leg():
    diagram = span_diagram()
    cocone = poscat.colimit_pos(diagram.program)
    assert workloads.cocone_mismatch(diagram.reference, cocone) == ""
    apex = cocone.apex
    legs = {(nid, x): leg(x) for nid, leg in cocone.legs.items() for x in leg.source.elements}
    legs[("R", "c")], legs[("R", "e")] = legs[("R", "e")], legs[("R", "c")]
    why = oracles.check_cocone_against(diagram.reference, apex.elements, workloads.leq_of(apex), legs)
    assert why


def test_brute_force_cocone_counts_flag_an_off_by_one():
    diagram = span_diagram()
    cocone = poscat.colimit_pos(diagram.program)
    report = poscat.verify_universal(diagram.program, cocone, 3)
    corpus = poscat.all_posets(3)
    assert workloads.cocone_count_mismatch(diagram.reference, report.entries, corpus) == ""
    entries = [SimpleNamespace(**vars(e)) for e in report.entries]
    entries[-1].cocones += 1
    assert "brute force" in workloads.cocone_count_mismatch(diagram.reference, entries, corpus)


@pytest.fixture(scope="module")
def nerves():
    return workloads.Nerves(poscat, seed=5)


def first(work, kind):
    return next(k for k, w in enumerate(work) if w[0] == kind)


def test_nerves_checks(nerves):
    k = first(nerves.work, "continuity")
    X, report = nerves.ops[k]()
    assert nerves.check(k, (X, report)) == ""
    p = nerves.work[k][1]
    other = next(q for q in nerves.posets if len(q.elements) == len(p.elements) and q.leq != p.leq
                 and oracles.find_isomorphism(q.elements, q.leq, p.elements, p.leq) is None)
    assert "nerve level" in nerves.check(k, (poscat.nerve(other.program, 4), report))
    rebuilt_other = poscat.check_continuity(poscat.nerve(other.program, 4)).poset
    renamed = SimpleNamespace(passed=True, poset=rebuilt_other)
    assert "reconstructed" in nerves.check(k, (X, renamed))

    k = first(nerves.work, "homcount")
    count, found = nerves.ops[k]()
    assert nerves.check(k, (count, found)) == ""
    assert nerves.check(k, (count + 1, found))
    assert nerves.check(k, (count, found - 1))


def test_kan_checks_flag_swapped_legs_and_a_wrong_value():
    kan = workloads.Kan(poscat, seed=5)
    for kind in ("inclusion", "product", "density"):
        k = next(
            i for i, (w, p) in enumerate(kan.work) if w == kind and len(p.elements) == 3 and p.height == 1
        )
        result = kan.ops[k]()
        assert kan.check(k, result) == ""
        cocone = result.cocone
        points = [nid for nid in cocone.legs if "," not in nid]
        legs = dict(cocone.legs)
        legs[points[0]], legs[points[1]] = legs[points[1]], legs[points[0]]
        swapped = SimpleNamespace(apex=cocone.apex, legs=legs)
        tampered = SimpleNamespace(
            value=result.cocone.apex,
            cocone=swapped,
            stabilization=getattr(result, "stabilization", 1),
            passed=True,
        )
        assert kan.check(k, tampered)
    k_inc = first(kan.work, "inclusion")
    k_prod = next(i for i, (w, p) in enumerate(kan.work) if w == "product" and p is kan.work[k_inc][1])
    assert kan.check(k_prod, kan.ops[k_inc]())


def bump_first_number(stdout):
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        key, sep, value = line.partition("=")
        if sep and value.isdigit():
            lines[i] = f"{key}={int(value) + 1}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no numeric field")


def test_cli_checks(tmp_path):
    cli = workloads.Cli(poscat, seed=5, root=str(tmp_path), in_process=True)
    try:
        for k, (kind, _, code, _) in enumerate(cli.work):
            if kind == "repeated-row":
                continue
            got_code, stdout = cli.ops[k]()
            assert cli.check(k, (got_code, stdout)) == "", kind
            assert cli.check(k, (code + 1, stdout)), kind
            if kind in ("extensions", "density", "extend-inclusion", "identities", "homcount", "colimit"):
                assert cli.check(k, (code, bump_first_number(stdout))), kind
            if kind == "colimit":
                lines = stdout.splitlines()
                value = {i: line.partition("=")[2] for i, line in enumerate(lines) if line.startswith("leg.")}
                below = {
                    tuple(line.partition("=")[2].split("<")) for line in lines if line.startswith("apex.le=")
                }
                pairs = [(i, j) for i, j in permutations(value, 2) if (value[i], value[j]) in below]
                pair = pairs[0] if pairs else None
                if pair is not None:
                    i, j = pair
                    lines[i] = lines[i].partition("=")[0] + "=" + value[j]
                    lines[j] = lines[j].partition("=")[0] + "=" + value[i]
                    assert cli.check(k, (code, "\n".join(lines) + "\n")), kind
            if kind in ("nerve", "reconstruct", "check"):
                lines = stdout.splitlines()
                if kind == "nerve":
                    del lines[next(i for i, line in enumerate(lines) if line.startswith("simplex 3"))]
                else:
                    del lines[-1]
                assert cli.check(k, (code, "\n".join(lines) + "\n")), kind
        k = first(cli.work, "repeated-row")
        assert cli.check(k, (2, "")) == ""
        assert cli.check(k, (0, "overall=PASS\n"))
    finally:
        cli.close()
