"""Continuity diagnostics on truncated simplicial sets and poset reconstruction.

A truncated simplicial set is accepted as "continuous up to truncation K" when
it passes the finite diagram checks: its tables satisfy the dual simplicial
identities, the edge-pair map is injective, every level is in bijection with
the weakly increasing vertex tuples, faces delete and degeneracies duplicate
positions, and the edge relation is reflexive, transitive and antisymmetric.
Passing data is the nerve of the poset it determines; at K = 1, where no
2-simplex witnesses transitivity, the relation itself is checked.
"""

from __future__ import annotations

from . import _kernels
from .colimits import Cocone, colimit_pos, induced_map
from .delta import DeltaMap
from .kan import comma_data, inclusion_functor
from .posets import FinPoset, MonotoneMap, antichain_poset, monotone_maps
from .simplicial import (
    SimplicialMap,
    evaluate,
    iter_simplicial_maps,
    nerve,
    nerve_map,
    simplex_label,
    simplicial_maps,
)


class ContinuityError(Exception):
    pass


class BoundError(ContinuityError):
    pass


class Verdict:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class Relation:
    """The edge relation on vertex labels extracted from level one."""

    def __init__(self, labels: tuple, rows: tuple):
        self.labels = labels
        self.rows = rows


class ContinuityReport:
    def __init__(
        self,
        truncation: int,
        verdicts: dict | None = None,
        relation: Relation | None = None,
        poset: FinPoset | None = None,
        iso: SimplicialMap | None = None,
    ):
        self.truncation = truncation
        self.verdicts = {} if verdicts is None else verdicts
        self.relation = relation
        self.poset = poset
        self.iso = iso

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts.values())

    def failing(self):
        return [v for v in self.verdicts.values() if not v.passed]


def _vertex_labels(X):
    labels = tuple(simplex_label(v) for v in X.levels[0])
    if len(set(labels)) != len(labels):
        raise ContinuityError("vertex labels collide; rename level-0 simplices")
    return labels


def _vertex_table(X):
    """(vertex tuple, consistent) of every simplex, one dict per level.

    Edge k of an n-simplex is its image under the Delta-map [1] -> [n] with
    values (k, k + 1), evaluated through X's face tables; its vertices are the
    indices in X_0 of the edges' endpoints (d_1 and d_0 of the edge). The
    simplex is consistent when consecutive edges share endpoint vertices.
    """
    index = {v: k for k, v in enumerate(X.levels[0])}
    table = [{x: ((k,), True) for x, k in index.items()}]
    d0, d1 = X.faces.get((1, 0)), X.faces.get((1, 1))
    for n in range(1, X.K + 1):
        edges = [evaluate(X, DeltaMap(1, n, (k, k + 1))) for k in range(n)]
        level = {}
        for x in X.levels[n]:
            pairs = [(index[d1[edge[x]]], index[d0[edge[x]]]) for edge in edges]
            consistent = all(pairs[k][1] == pairs[k + 1][0] for k in range(n - 1))
            level[x] = (tuple(p[0] for p in pairs) + (pairs[-1][1],), consistent)
        table.append(level)
    return table


def _edge_relation(X, edges):
    """The relation_injective verdict and the edge relation on level-0 labels,
    both from the vertex pairs of the 1-simplices (`edges`, level 1 of the
    vertex table): no two 1-simplices may share an ordered vertex pair."""
    labels = _vertex_labels(X)
    verdict = Verdict("relation_injective", True)
    first = {}
    rows = [0] * len(labels)
    for e, ((a, b), _) in edges.items():
        other = first.setdefault((a, b), e)
        if other != e and verdict.passed:
            verdict = Verdict(
                "relation_injective",
                False,
                f"1-simplices {simplex_label(other)} and {simplex_label(e)} "
                f"both cover ({labels[a]}, {labels[b]})",
            )
        rows[a] |= 1 << b
    return verdict, Relation(labels, tuple(rows))


def _chain_condition(n, level, expected, rel):
    """Level n must biject onto the weakly increasing vertex tuples, listed
    as index tuples in `expected`."""
    name = f"chain_condition_n{n}"
    seen = {}
    for x, (points, consistent) in level.items():
        if not consistent:
            return Verdict(
                name, False, f"simplex {simplex_label(x)} has mismatched edge endpoints"
            )
        if points in seen:
            return Verdict(
                name,
                False,
                f"simplices {simplex_label(seen[points])} and {simplex_label(x)} share "
                f"vertex tuple ({','.join(rel.labels[p] for p in points)})",
            )
        seen[points] = x
    if len(expected) != len(seen):
        missing = next(t for t in expected if t not in seen)
        label = ",".join(rel.labels[v] for v in missing)
        return Verdict(
            name,
            False,
            f"{len(seen)} simplices vs {len(expected)} weakly increasing tuples; "
            f"missing ({label})",
        )
    return Verdict(name, True, f"{len(seen)} simplices")


def _face_formulas(X, table, rel, above):
    """Under the vertex-tuple bijection every d_i must delete position i, and
    the edge relation must be transitive, at every truncation (from level 2
    on, d_1 : X_2 -> X_1 is the witness); the least failing (a, b, c) is named."""
    name = "face_formulas"
    for n in range(2, X.K + 1):
        below = table[n - 1]
        faces = [X.faces[(n, i)] for i in range(n + 1)]
        for x, (points, _) in table[n].items():
            for i, face in enumerate(faces):
                got, _ = below[face[x]]
                if got != points[:i] + points[i + 1 :]:
                    return Verdict(
                        name,
                        False,
                        f"d_{i} at level {n} on {simplex_label(x)} is not deletion of position {i}",
                    )
    for a, bs in above.items():
        for b in bs:
            beyond = rel.rows[b] & ~rel.rows[a]
            if beyond:
                c = (beyond & -beyond).bit_length() - 1
                return Verdict(
                    name,
                    False,
                    f"relation not transitive: {rel.labels[a]} <= {rel.labels[b]} <= "
                    f"{rel.labels[c]} without {rel.labels[a]} <= {rel.labels[c]}",
                )
    return Verdict(name, True, "" if X.K >= 2 else "no levels >= 2")


def _degeneracy_formulas(X, table, rel):
    """Every s_i must duplicate position i; s_0 exhibits reflexivity on level 0."""
    name = "degeneracy_formulas"
    for k, label in enumerate(rel.labels):
        if not rel.rows[k] & (1 << k):
            return Verdict(name, False, f"relation not reflexive at {label}")
    for n in range(X.K):
        above = table[n + 1]
        degeneracies = [X.degeneracies[(n, i)] for i in range(n + 1)]
        for x, (points, _) in table[n].items():
            for i, degeneracy in enumerate(degeneracies):
                got, _ = above[degeneracy[x]]
                if got != points[: i + 1] + points[i:]:
                    return Verdict(
                        name,
                        False,
                        f"s_{i} at level {n} on {simplex_label(x)} is not duplication of position {i}",
                    )
    return Verdict(name, True)


def _antisymmetry(rel, above):
    """Oppositely oriented edge pairs are only allowed on the diagonal."""
    name = "antisymmetry"
    for a, bs in above.items():
        for b in bs:
            if b != a and rel.rows[b] >> a & 1:
                return Verdict(
                    name,
                    False,
                    f"both ({rel.labels[a]}, {rel.labels[b]}) and the reverse are edges",
                )
    return Verdict(name, True)


def check_continuity(X) -> ContinuityReport:
    """Run every diagram check; attach the reconstruction when all pass.

    The verdicts, in order:
    - `validation`: the dual simplicial identities hold
      (`TruncatedSimplicialSet.identity_violations`);
    - `relation_injective`: no two 1-simplices share an ordered vertex pair;
    - `chain_condition_n<n>` for 2 <= n <= K: level n is in bijection with
      the weakly increasing (n+1)-tuples of the edge relation;
    - `face_formulas`: each d_i deletes position i, and the edge relation is
      transitive (checked at every K, so also at K = 1);
    - `degeneracy_formulas`: the edge relation is reflexive and each s_i
      duplicates position i;
    - `antisymmetry`: no two distinct vertices have edges both ways.
    At K = 0 only `validation` runs.  At K = 1, PASS means that the edge
    relation is a partial order: over every reflexive relation on at most
    four labelled vertices at K = 1, and three at K = 2 and 3, the flag set
    of the relation passes exactly when the relation is a partial order
    (Tier-1 census).

    The vertex tuples, as indices into X_0, and the edge relation are computed
    once and shared by the checks and the reconstruction."""
    report = ContinuityReport(truncation=X.K)
    violations = X.identity_violations()
    detail = "; ".join(str(v) for v in violations[:2])
    if len(violations) > 2:
        detail += f" (+{len(violations) - 2} more)"
    report.verdicts["validation"] = Verdict("validation", not violations, detail)
    table = _vertex_table(X)
    if X.K >= 1:
        report.verdicts["relation_injective"], rel = _edge_relation(X, table[1])
        report.relation = rel
        above = {}  # per vertex, the vertices it relates to, ascending
        for a, row in enumerate(rel.rows):
            bs = above[a] = []
            while row:
                bs.append((row & -row).bit_length() - 1)
                row &= row - 1
        expected = _kernels.chain_levels(above, X.K)
        for n in range(2, X.K + 1):
            report.verdicts[f"chain_condition_n{n}"] = _chain_condition(
                n, table[n], expected[n], rel
            )
        report.verdicts["face_formulas"] = _face_formulas(X, table, rel, above)
        report.verdicts["degeneracy_formulas"] = _degeneracy_formulas(X, table, rel)
        report.verdicts["antisymmetry"] = _antisymmetry(rel, above)
    if report.passed:
        report.poset, report.iso = _reconstruct(X, report.relation, table)
    return report


def _reconstruct(X, relation, table):
    if relation is None:  # truncation 0 carries no order information
        labels = _vertex_labels(X)
        poset = antichain_poset(labels)
    else:
        # the checks passed, so the relation is already a partial order
        labels = relation.labels
        order = sorted(range(len(labels)), key=labels.__getitem__)
        poset = FinPoset([labels[k] for k in order], _kernels.meet_rows([relation.rows], order))
    comps = [
        {x: tuple(map(labels.__getitem__, points)) for x, (points, _) in level.items()}
        for level in table
    ]
    iso = SimplicialMap(X, nerve(poset, X.K), comps)
    if not iso.is_levelwise_bijective():
        raise ContinuityError("reconstruction map is not levelwise bijective")
    return poset, iso


def reconstruct(X):
    """The poset (X_0, <=_X) together with the isomorphism onto its nerve."""
    report = check_continuity(X)
    if not report.passed:
        failing = ", ".join(v.name for v in report.failing())
        raise ContinuityError(f"protocol error: checks failed ({failing})")
    return report.poset, report.iso


class DensityResult:
    stabilized = True  # exact: the strict chains are final (see kan)

    def __init__(self, cocone: Cocone, iso: MonotoneMap | None, bound: int, witness: str = ""):
        self.cocone = cocone
        self.iso = iso
        self.bound = bound
        self.witness = witness

    @property
    def passed(self):
        return self.iso is not None and self.iso.is_order_isomorphism()


def density_colimit(poset, length_bound) -> DensityResult:
    """Colimit of the chain diagram of a poset, compared against the poset itself.

    The canonical map sends the class of (chain t, position j) to t[j]; density
    of the chain inclusion makes it an order isomorphism once the length bound
    reaches the poset height.  When it is not, the witness says why: it
    completes "the canonical map is ..." with `induced_map`'s reason, or with
    "not an order isomorphism" when the map exists.
    """
    if length_bound < poset.height:
        raise BoundError(
            f"length bound {length_bound} is below the poset height {poset.height}"
        )
    diagram, node_chain = comma_data(inclusion_functor(), poset, length_bound)
    cocone = colimit_pos(diagram)
    # the elements of [n] are "0".."n"
    positions = {nid: (lambda j, t=t: t[int(j)]) for nid, t in node_chain.items()}
    iso, reason = induced_map(cocone, poset, positions)
    if iso is not None and not iso.is_order_isomorphism():
        reason = "not an order isomorphism"
    return DensityResult(cocone, iso, length_bound, reason)


class FullFaithfulnessReport:
    def __init__(
        self,
        monotone_count: int,
        simplicial_count: int,
        injective: bool,
        surjective: bool,
        witness: str = "",
    ):
        self.monotone_count = monotone_count
        self.simplicial_count = simplicial_count
        self.injective = injective
        self.surjective = surjective
        self.witness = witness

    @property
    def passed(self):
        return (
            self.injective
            and self.surjective
            and self.monotone_count == self.simplicial_count
        )


def fully_faithful_witness(p, q, K) -> FullFaithfulnessReport:
    """Compare monotone maps p -> q with simplicial maps between the nerves:
    the nerve functor must induce a bijection.  A failing report's witness
    names the first simplicial map whose vertex map is not monotone, else the
    first monotone map whose nerve is missing, else the first two maps with
    equal images."""
    if K < 1:
        raise ContinuityError("full faithfulness needs truncation >= 1")
    monotone = monotone_maps(p, q)
    simplicial = simplicial_maps(nerve(p, K), nerve(q, K))

    def key(components):
        return tuple(tuple(sorted(c.items())) for c in components)

    image_keys = [key(nerve_map(f, K).components) for f in monotone]
    simp_keys = [key(m.components) for m in simplicial]
    injective = len(set(image_keys)) == len(image_keys)
    surjective = set(simp_keys) == set(image_keys)
    report = FullFaithfulnessReport(len(monotone), len(simplicial), injective, surjective)
    if not report.passed:
        report.witness = _faithfulness_witness(p, q, monotone, simplicial, image_keys, simp_keys)
    return report


def _faithfulness_witness(p, q, monotone, simplicial, image_keys, simp_keys):
    witness = _vertex_map_witness(p, q, simplicial)
    if witness:
        return witness
    names = [_assignment(zip(f.source.elements, f.values)) for f in monotone]
    present = set(simp_keys)
    for name, k in zip(names, image_keys):
        if k not in present:
            return f"the nerve of {name} is missing"
    vertex_maps = [
        _assignment((x[0], y[0]) for x, y in m.components[0].items()) for m in simplicial
    ]
    for labels, keys, equal in (
        (names, image_keys, "have equal nerves"),
        (vertex_maps, simp_keys, "are one simplicial map listed twice"),
    ):
        seen = {}
        for label, k in zip(labels, keys):
            if k in seen:
                return f"{seen[k]} and {label} {equal}"
            seen[k] = label
    return ""


def _assignment(items):
    return " ".join(f"{x}->{y}" for x, y in items)


def _vertex_map_witness(p, q, maps):
    """The vertex assignment of the first of the simplicial maps N(p) -> N(q)
    whose level-0 component is not monotone, and the first order pair of p
    it breaks, or "" when every one is monotone."""
    for m in maps:
        image = {x[0]: y[0] for x, y in m.components[0].items()}
        for i, j in p.leq_pairs:
            a, b = p.elements[i], p.elements[j]
            if not q.leq(image[a], image[b]):
                return (
                    f"{_assignment(image.items())} is not monotone: {a}<={b} "
                    f"but not {image[a]}<={image[b]}"
                )
    return ""


def non_monotone_witness(p, q, K) -> str:
    """The first simplicial map N(p) -> N(q), in enumeration order, whose
    level-0 component is not monotone: its vertex assignment and the first
    order pair of p it breaks. "" when every vertex map is monotone, which
    full faithfulness guarantees from truncation 1 on."""
    return _vertex_map_witness(p, q, iter_simplicial_maps(nerve(p, K), nerve(q, K)))
