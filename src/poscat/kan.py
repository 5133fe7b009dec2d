"""Extending a cocontinuous functor from the simplex category to all finite posets.

The extension of F at P is the colimit of F over the comma category of monotone
maps [n] -> P.  Its strict chains with face maps form a final subcategory: a
weak chain x factors as y . sigma with sigma surjective and y the strict chain
of its image, and y is initial under x.  No strict chain is longer than
height(P), so one colimit at any bound >= height(P) is exact; the reported
`stabilization` is that bound and needs no second colimit to certify it.
"""

from __future__ import annotations

from functools import cache

from .colimits import Cocone, PosetDiagram, colimit_pos, induced_map
from .delta import (
    DeltaMap,
    delta_to_monotone,
    factorize,
    generator,
    identity_instances,
    instance_source,
)
from .posets import (
    FinPoset,
    MonotoneMap,
    antichain_poset,
    chain_levels,
    ordinal_poset,
    product_poset,
)


# Largest ordinal whose generator images and identity instances a
# FunctorPresentation checks on construction.
VALIDATE_BOUND = 3


class KanError(Exception):
    pass


class FunctorPresentation:
    """A functor out of the simplex category, given on objects and generators.

    `on_object(n)` returns a finite poset, `on_generator(kind, n, i)` a
    monotone map matching the generator's endpoints.  Construction checks the
    endpoint discipline and all simplicial identity instances with ordinals up
    to VALIDATE_BOUND; arbitrary maps are then applied through the generator
    normal form.
    """

    def __init__(self, name, target_kind, on_object, on_generator):
        if target_kind not in ("pos", "set"):
            raise KanError(f"unknown target kind {target_kind!r}")
        self.name = name
        self.target_kind = target_kind
        self._on_object = on_object
        self._on_generator = on_generator
        self._objects = {}
        self._gens = {}
        self._validate()

    def obj(self, n) -> FinPoset:
        if n not in self._objects:
            self._objects[n] = self._on_object(n)
        return self._objects[n]

    def gen(self, kind, n, i) -> MonotoneMap:
        key = (kind, n, i)
        if key not in self._gens:
            self._gens[key] = self._on_generator(kind, n, i)
        return self._gens[key]

    def _validate(self):
        for n in range(VALIDATE_BOUND + 1):
            value = self.obj(n)
            if self.target_kind == "set" and value.leq_pairs:
                raise KanError("set-valued functor must produce discrete posets")
        for n in range(1, VALIDATE_BOUND + 1):
            for i in range(n + 1):
                g = self.gen("face", n, i)
                if g.source != self.obj(n - 1) or g.target != self.obj(n):
                    raise KanError(f"face image delta_{i} into [{n}] has wrong endpoints")
        for n in range(VALIDATE_BOUND):
            for i in range(n + 1):
                g = self.gen("degeneracy", n, i)
                if g.source != self.obj(n + 1) or g.target != self.obj(n):
                    raise KanError(f"degeneracy image sigma_{i} onto [{n}] has wrong endpoints")
        for family, n, i, j, lhs, rhs in identity_instances(VALIDATE_BOUND):
            source = instance_source(lhs)
            if self._compose_refs(lhs, source) != self._compose_refs(rhs, source):
                raise KanError(
                    f"generator images violate {family} at n={n}, i={i}, j={j}"
                )

    def _compose_refs(self, refs, source):
        out = MonotoneMap.identity(self.obj(source))
        for kind, n, i in reversed(refs):
            out = self.gen(kind, n, i).compose(out)
        return out

    def apply(self, f: DeltaMap) -> MonotoneMap:
        """Image of an arbitrary simplex-category map, via its normal form."""
        return self._compose_refs(factorize(f).refs(), f.source)


# The built-in families are memoized, so each one is validated once per
# process; a FunctorPresentation built directly validates every time.
@cache
def inclusion_functor() -> FunctorPresentation:
    """The identity-on-chains inclusion of the simplex category into posets."""

    def on_generator(kind, n, i):
        return delta_to_monotone(generator(kind, n, i))

    return FunctorPresentation("inclusion", "pos", ordinal_poset, on_generator)


def product_functor(q: FinPoset) -> FunctorPresentation:
    """[n] goes to [n] x Q with the componentwise order; maps act on the left factor."""
    # FinPoset equality ignores the name, which the object names use
    return _product_functor(q, q.name)


@cache
def _product_functor(q, _name):
    def on_object(n):
        return product_poset(ordinal_poset(n), q, name=f"[{n}]x{q.name or 'Q'}")

    def on_generator(kind, n, i):
        d = generator(kind, n, i)
        src, tgt = on_object(d.source), on_object(d.target)
        mapping = {}
        for a in range(d.source + 1):
            for y in q.elements:
                mapping[f"{a},{y}"] = f"{d(a)},{y}"
        return MonotoneMap.from_dict(src, tgt, mapping)

    return FunctorPresentation(f"product-with-{q.name or 'Q'}", "pos", on_object, on_generator)


@cache
def underlying_set_functor() -> FunctorPresentation:
    """[n] goes to its bare element set (a discrete poset)."""

    def on_object(n):
        return antichain_poset([str(i) for i in range(n + 1)], name=f"U[{n}]")

    def on_generator(kind, n, i):
        d = generator(kind, n, i)
        return MonotoneMap(
            on_object(d.source), on_object(d.target), tuple(str(v) for v in d.values)
        )

    return FunctorPresentation("underlying-set", "set", on_object, on_generator)


def _chain_id(t):
    return ",".join(t)


def comma_data(functor, poset, length_bound):
    """Comma diagram of the strict chains of `poset` up to the length bound,
    with F-payloads and face edges, and the chain of each node id."""
    if length_bound < 0:
        raise KanError("length bound must be >= 0")
    node_chain = {}
    nodes = {}
    for n, level in enumerate(chain_levels(poset, min(length_bound, poset.height), strict=True)):
        for t in level:
            nid = _chain_id(t)
            if nid in node_chain:
                raise KanError(f"ambiguous chain id {nid!r}; element names may not contain commas")
            node_chain[nid] = t
            nodes[nid] = functor.obj(n)
    edges = []
    for nid, t in sorted(node_chain.items()):
        m = len(t) - 1
        if m:
            for i in range(m + 1):
                src = _chain_id(t[:i] + t[i + 1 :])
                edges.append((f"d{i}>{nid}", src, nid, functor.gen("face", m, i)))
    diagram = PosetDiagram(nodes=nodes, edges=edges, name=f"comma({poset.name},{length_bound})")
    return diagram, node_chain


def comma_diagram(functor, poset, length_bound) -> PosetDiagram:
    return comma_data(functor, poset, length_bound)[0]


class ExtensionResult:
    def __init__(self, value: FinPoset, cocone: Cocone, stabilization: int):
        self.value = value
        self.cocone = cocone
        self.stabilization = stabilization


def _bound(posets, bound):
    """`bound`, or the largest height when it is None; a bound below a
    height would drop chains, so it is refused."""
    height = max(p.height for p in posets)
    if bound is not None and bound < height:
        raise KanError(f"initial bound {bound} is below the poset height {height}")
    return height if bound is None else bound


def extend(functor, poset, initial_bound=None) -> ExtensionResult:
    """Left Kan extension value at `poset`: one comma colimit, at
    `initial_bound` (default the height)."""
    b = _bound([poset], initial_bound)
    cocone = colimit_pos(comma_diagram(functor, poset, b))
    return ExtensionResult(cocone.apex, cocone, b)


def _postcompose_mediator(functor, g: MonotoneMap, data_src, cone_src, cone_dst):
    """F-image of postcomposition with g, as a map between comma colimits.

    g . t may repeat elements; it factors as y . sigma with y the strict chain
    of its image, and node t goes to the leg of y after F(sigma).
    """
    node_maps = {}
    for nid, t in data_src.items():
        image = [g(p) for p in t]
        y = tuple(dict.fromkeys(image))
        leg = cone_dst.legs[_chain_id(y)]
        if len(y) < len(t):
            sigma = DeltaMap(len(t) - 1, len(y) - 1, tuple(y.index(v) for v in image))
            leg = leg.compose(functor.apply(sigma))
        node_maps[nid] = leg
    u, failure = induced_map(cone_src, cone_dst.apex, node_maps)
    if u is None:
        raise KanError(f"induced map is {failure}")
    return u


def extend_map(functor, g: MonotoneMap, bound=None) -> MonotoneMap:
    """The extension applied to a monotone map."""
    b = _bound([g.source, g.target], bound)
    dia_s, data_s = comma_data(functor, g.source, b)
    cone_s = colimit_pos(dia_s)
    cone_t = colimit_pos(comma_diagram(functor, g.target, b))
    return _postcompose_mediator(functor, g, data_s, cone_s, cone_t)


class CocontinuityReport:
    def __init__(
        self,
        extension_of_colimit: FinPoset,
        colimit_of_extensions: FinPoset,
        passed: bool,
        detail: str = "",
    ):
        self.extension_of_colimit = extension_of_colimit
        self.colimit_of_extensions = colimit_of_extensions
        self.passed = passed
        self.detail = detail


def check_extension_cocontinuity(functor, diagram, bound=None) -> CocontinuityReport:
    """Compare the extension of a colimit with the colimit of the extensions.

    Each poset's comma colimit is taken once, at one common bound; the
    comparison map is the canonical mediator and must be an order isomorphism.
    """
    base = colimit_pos(diagram)
    b = _bound([base.apex] + [diagram.nodes[nid] for nid in diagram.node_ids], bound)
    cone_apex = colimit_pos(comma_diagram(functor, base.apex, b))

    cones = {}
    datas = {}
    for nid in diagram.node_ids:
        dia, data = comma_data(functor, diagram.nodes[nid], b)
        cones[nid] = colimit_pos(dia)
        datas[nid] = data

    image_nodes = {nid: cones[nid].apex for nid in diagram.node_ids}
    image_edges = []
    for eid, src, dst, f in diagram.edges:
        induced = _postcompose_mediator(functor, f, datas[src], cones[src], cones[dst])
        image_edges.append((eid, src, dst, induced))
    image_diagram = PosetDiagram(nodes=image_nodes, edges=image_edges, name="F-images")
    rhs = colimit_pos(image_diagram)

    # canonical comparison legs F~(P_j) -> F~(colim D)
    compare = {
        nid: _postcompose_mediator(functor, base.legs[nid], datas[nid], cones[nid], cone_apex)
        for nid in diagram.node_ids
    }
    mediator, failure = induced_map(rhs, cone_apex.apex, compare)
    if failure == "not jointly epic":
        detail = "colimit legs are not jointly epic"
    elif failure:
        detail = f"comparison map is {failure}"
    elif not mediator.is_order_isomorphism():
        detail = "comparison map is not an isomorphism"
    else:
        detail = ""
    return CocontinuityReport(cone_apex.apex, rhs.apex, not detail, detail)
