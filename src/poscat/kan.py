"""Extending a cocontinuous functor from the simplex category to all finite posets.

The extension of F at P is the colimit of the F-images of all chains of P,
indexed by the comma category of monotone maps [n] -> P.  The comma category
is infinite, so it is truncated by chain length and certified by stabilization
between consecutive bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    chains,
    ordinal_poset,
    product_poset,
)


# Largest ordinal whose generator images and identity instances a
# FunctorPresentation checks on construction.
VALIDATE_BOUND = 3


class KanError(Exception):
    pass


class StabilizationError(KanError):
    def __init__(self, bound, apex_small, apex_big):
        self.bound = bound
        self.apex_small = apex_small
        self.apex_big = apex_big
        super().__init__(
            f"no stabilization by bound {bound}: apex sizes {apex_small.n} vs {apex_big.n}"
        )


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


def inclusion_functor() -> FunctorPresentation:
    """The identity-on-chains inclusion of the simplex category into posets."""

    def on_generator(kind, n, i):
        return delta_to_monotone(generator(kind, n, i))

    return FunctorPresentation("inclusion", "pos", ordinal_poset, on_generator)


def product_functor(q: FinPoset) -> FunctorPresentation:
    """[n] goes to [n] x Q with the componentwise order; maps act on the left factor."""

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


def comma_data(functor, poset, length_bound, injective_only=False):
    """Comma diagram of chains of `poset` up to the length bound, with
    F-payloads, and the chain of each node id.

    Nodes are all monotone maps [n] -> P (weak chains, repeats included);
    edges are the face/degeneracy triangles, which generate every commuting
    triangle in the truncation.  With `injective_only` the nodes are the
    strict chains and only face triangles remain; the colimit is unchanged
    because degenerate chains glue fully into their non-degenerate images.
    """
    if length_bound < 0:
        raise KanError("length bound must be >= 0")
    node_chain = {}
    nodes = {}
    for n in range(length_bound + 1):
        for t in chains(poset, n, strict=injective_only):
            nid = _chain_id(t)
            if nid in node_chain:
                raise KanError(f"ambiguous chain id {nid!r}; element names may not contain commas")
            node_chain[nid] = t
            nodes[nid] = functor.obj(n)
    edges = []
    for nid, t in sorted(node_chain.items()):
        m = len(t) - 1
        for i in range(m + 1):
            if m >= 1:
                src = _chain_id(t[:i] + t[i + 1 :])
                edges.append((f"d{i}>{nid}", src, nid, functor.gen("face", m, i)))
            if not injective_only and m + 1 <= length_bound:
                src = _chain_id(t[: i + 1] + t[i:])
                edges.append((f"s{i}>{nid}", src, nid, functor.gen("degeneracy", m, i)))
    diagram = PosetDiagram(nodes=nodes, edges=edges, name=f"comma({poset.name},{length_bound})")
    return diagram, node_chain


def comma_diagram(functor, poset, length_bound, injective_only=False) -> PosetDiagram:
    return comma_data(functor, poset, length_bound, injective_only=injective_only)[0]


@dataclass
class ExtensionResult:
    value: FinPoset
    cocone: Cocone
    stabilization: int


def restriction_mediator(cocone_small, cocone_big):
    """Mediating map induced by including a smaller comma truncation into a
    bigger one, or None when there is none."""
    return induced_map(cocone_small, cocone_big.apex, cocone_big.legs)[0]


def stabilization_step(functor, poset, cocone, bound, injective_only=False):
    """The comma colimit at bound + 1, and whether the restriction mediator
    from `cocone`, the comma colimit at `bound`, is an order isomorphism."""
    bigger = colimit_pos(comma_diagram(functor, poset, bound + 1, injective_only=injective_only))
    u = restriction_mediator(cocone, bigger)
    return bigger, u is not None and u.is_order_isomorphism()


def extend(functor, poset, initial_bound=None, max_bound=None, injective_only=False) -> ExtensionResult:
    """Left Kan extension value at `poset`: truncated comma colimits, certified
    by an isomorphism between consecutive bounds."""
    b = poset.height if initial_bound is None else initial_bound
    if b < poset.height:
        raise KanError(f"initial bound {b} is below the poset height {poset.height}")
    cap = b + 3 if max_bound is None else max_bound
    current = colimit_pos(comma_diagram(functor, poset, b, injective_only=injective_only))
    while True:
        bigger, stable = stabilization_step(functor, poset, current, b, injective_only)
        if stable:
            return ExtensionResult(current.apex, current, b)
        if b + 1 > cap:
            raise StabilizationError(b + 1, current.apex, bigger.apex)
        current = bigger
        b += 1


def _postcompose_mediator(g: MonotoneMap, data_src, cone_src, cone_dst):
    """F-image of postcomposition with g, as a map between comma colimits."""
    node_maps = {
        nid: cone_dst.legs[_chain_id(tuple(g(p) for p in t))] for nid, t in data_src.items()
    }
    u, failure = induced_map(cone_src, cone_dst.apex, node_maps)
    if u is None:
        raise KanError(f"induced map is {failure}")
    return u


def extend_map(functor, g: MonotoneMap, bound=None) -> MonotoneMap:
    """The extension applied to a monotone map, at a common truncation bound."""
    b = max(g.source.height, g.target.height) if bound is None else bound
    dia_s, data_s = comma_data(functor, g.source, b)
    dia_t, _ = comma_data(functor, g.target, b)
    cone_s = colimit_pos(dia_s)
    cone_t = colimit_pos(dia_t)
    return _postcompose_mediator(g, data_s, cone_s, cone_t)


@dataclass
class CocontinuityReport:
    extension_of_colimit: FinPoset
    colimit_of_extensions: FinPoset
    passed: bool
    detail: str = ""


def check_extension_cocontinuity(functor, diagram, bound=None) -> CocontinuityReport:
    """Compare the extension of a colimit with the colimit of the extensions.

    Both sides are computed at one common truncation bound; the comparison map
    is the canonical mediator and must be an order isomorphism.
    """
    base = colimit_pos(diagram)
    posets = [base.apex] + [diagram.nodes[nid] for nid in diagram.node_ids]
    b = max(p.height for p in posets) if bound is None else bound
    for p in posets:
        b = max(b, extend(functor, p, initial_bound=b).stabilization)

    comma_apex, _ = comma_data(functor, base.apex, b)
    cone_apex = colimit_pos(comma_apex)

    cones = {}
    datas = {}
    for nid in diagram.node_ids:
        dia, data = comma_data(functor, diagram.nodes[nid], b)
        cones[nid] = colimit_pos(dia)
        datas[nid] = data

    image_nodes = {nid: cones[nid].apex for nid in diagram.node_ids}
    image_edges = []
    for eid, src, dst, f in diagram.edges:
        induced = _postcompose_mediator(f, datas[src], cones[src], cones[dst])
        image_edges.append((eid, src, dst, induced))
    image_diagram = PosetDiagram(nodes=image_nodes, edges=image_edges, name="F-images")
    rhs = colimit_pos(image_diagram)

    # canonical comparison legs F~(P_j) -> F~(colim D)
    compare = {
        nid: _postcompose_mediator(base.legs[nid], datas[nid], cones[nid], cone_apex)
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
