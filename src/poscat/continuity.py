"""Continuity diagnostics on truncated simplicial sets and poset reconstruction.

A truncated simplicial set is accepted as "continuous up to truncation K" when
it passes the finite diagram checks: the edge-pair map is injective, every
level is in bijection with the weakly increasing vertex tuples, faces delete
and degeneracies duplicate positions, and the edge relation is antisymmetric.
Passing data is the nerve of the poset it determines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"


@dataclass
class Relation:
    """The edge relation on vertex labels extracted from level one."""

    labels: tuple
    rows: tuple


@dataclass
class ContinuityReport:
    truncation: int
    verdicts: dict = field(default_factory=dict)
    relation: Relation | None = None
    poset: FinPoset | None = None
    iso: SimplicialMap | None = None

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts.values())

    def failing(self):
        return [v for v in self.verdicts.values() if not v.passed]

    def text_lines(self):
        out = [f"continuity up to truncation {self.truncation}"]
        for v in self.verdicts.values():
            suffix = f"  [{v.detail}]" if v.detail else ""
            out.append(f"  {v.name}: {v.status}{suffix}")
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        if self.poset is not None:
            out.append(f"reconstructed poset on {self.poset.n} elements")
        return out

    def machine_lines(self):
        out = []
        for name, v in sorted(self.verdicts.items()):
            out.append(f"check.{name}={v.status}")
            if not v.passed and v.detail:
                out.append(f"check.{name}.witness={v.detail}")
        out.append(f"overall={'PASS' if self.passed else 'FAIL'}")
        if self.poset is not None:
            out.append(f"poset.size={self.poset.n}")
        return out


def _vertex_labels(X):
    labels = tuple(simplex_label(v) for v in X.levels[0])
    if len(set(labels)) != len(labels):
        raise ContinuityError("vertex labels collide; rename level-0 simplices")
    return labels


def _vertex_table(X):
    """(vertex tuple, consistent) of every simplex, one dict per level.

    Edge k of an n-simplex is its image under the Delta-map [1] -> [n] with
    values (k, k + 1), evaluated through X's face tables; its vertices are the
    edges' endpoints (d_1 and d_0 of the edge). The simplex is consistent when
    consecutive edges share endpoint vertices.
    """
    table = [{x: ((x,), True) for x in X.levels[0]}]
    for n in range(1, X.K + 1):
        edges = [evaluate(X, DeltaMap(1, n, (k, k + 1))) for k in range(n)]
        level = {}
        for x in X.levels[n]:
            pairs = [(X.face(1, 1, edge[x]), X.face(1, 0, edge[x])) for edge in edges]
            consistent = all(pairs[k][1] == pairs[k + 1][0] for k in range(n - 1))
            level[x] = (tuple(p[0] for p in pairs) + (pairs[-1][1],), consistent)
        table.append(level)
    return table


def _label_tuple(X, points):
    return tuple(simplex_label(p) for p in points)


def _edge_relation(X, edges, index):
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
                f"both cover ({simplex_label(a)}, {simplex_label(b)})",
            )
        rows[index[a]] |= 1 << index[b]
    return verdict, Relation(labels, tuple(rows))


def _chain_condition(n, level, rel, index):
    """Level n must biject onto the weakly increasing vertex tuples."""
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
                f"vertex tuple ({','.join(simplex_label(p) for p in points)})",
            )
        seen[points] = x
    pairs = [(k, k + 1, _kernels.LEQ) for k in range(n)]
    expected = _kernels.list_maps(n + 1, len(rel.labels), list(rel.rows), pairs)
    if len(expected) != len(seen):
        got = {tuple(index[p] for p in points) for points in seen}
        missing = next(t for t in expected if t not in got)
        label = ",".join(rel.labels[v] for v in missing)
        return Verdict(
            name,
            False,
            f"{len(seen)} simplices vs {len(expected)} weakly increasing tuples; "
            f"missing ({label})",
        )
    return Verdict(name, True, f"{len(seen)} simplices")


def _face_formulas(X, table, rel):
    """Under the vertex-tuple bijection every d_i must delete position i, and
    the extracted relation must be transitive, at every truncation (from
    level 2 on, d_1 : X_2 -> X_1 is the witness)."""
    name = "face_formulas"
    for n in range(2, X.K + 1):
        below = table[n - 1]
        for x, (points, _) in table[n].items():
            for i in range(n + 1):
                got, _ = below[X.face(n, i, x)]
                if got != points[:i] + points[i + 1 :]:
                    return Verdict(
                        name,
                        False,
                        f"d_{i} at level {n} on {simplex_label(x)} is not deletion of position {i}",
                    )
    m = len(rel.labels)
    for a in range(m):
        for b in range(m):
            if rel.rows[a] & (1 << b):
                for c in range(m):
                    if rel.rows[b] & (1 << c) and not rel.rows[a] & (1 << c):
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
        for x, (points, _) in table[n].items():
            for i in range(n + 1):
                got, _ = above[X.deg(n, i, x)]
                if got != points[: i + 1] + points[i:]:
                    return Verdict(
                        name,
                        False,
                        f"s_{i} at level {n} on {simplex_label(x)} is not duplication of position {i}",
                    )
    return Verdict(name, True)


def _antisymmetry(rel):
    """Oppositely oriented edge pairs are only allowed on the diagonal."""
    name = "antisymmetry"
    m = len(rel.labels)
    for a in range(m):
        for b in range(m):
            if a != b and rel.rows[a] & (1 << b) and rel.rows[b] & (1 << a):
                return Verdict(
                    name,
                    False,
                    f"both ({rel.labels[a]}, {rel.labels[b]}) and the reverse are edges",
                )
    return Verdict(name, True)


def check_continuity(X) -> ContinuityReport:
    """Run every diagram check; attach the reconstruction when all pass.

    The vertex tuples and the edge relation are computed once and shared by
    the checks and the reconstruction."""
    report = ContinuityReport(truncation=X.K)
    violations = X.identity_violations()
    detail = "; ".join(str(v) for v in violations[:2])
    if len(violations) > 2:
        detail += f" (+{len(violations) - 2} more)"
    report.verdicts["validation"] = Verdict("validation", not violations, detail)
    table = _vertex_table(X)
    if X.K >= 1:
        index = {v: k for k, v in enumerate(X.levels[0])}
        report.verdicts["relation_injective"], rel = _edge_relation(X, table[1], index)
        report.relation = rel
        for n in range(2, X.K + 1):
            report.verdicts[f"chain_condition_n{n}"] = _chain_condition(n, table[n], rel, index)
        report.verdicts["face_formulas"] = _face_formulas(X, table, rel)
        report.verdicts["degeneracy_formulas"] = _degeneracy_formulas(X, table, rel)
        report.verdicts["antisymmetry"] = _antisymmetry(rel)
    if report.passed:
        report.poset, report.iso = _reconstruct(X, report.relation, table)
    return report


def _reconstruct(X, relation, table):
    if relation is None:  # truncation 0 carries no order information
        poset = antichain_poset(_vertex_labels(X))
    else:
        # the checks passed, so the relation is already a partial order
        order = sorted(range(len(relation.labels)), key=relation.labels.__getitem__)
        rows = [sum(1 << p for p, j in enumerate(order) if row >> j & 1) for row in relation.rows]
        poset = FinPoset([relation.labels[k] for k in order], [rows[k] for k in order])
    comps = [
        {x: _label_tuple(X, points) for x, (points, _) in level.items()} for level in table
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


@dataclass
class DensityResult:
    cocone: Cocone
    iso: MonotoneMap | None
    bound: int
    stabilized = True  # exact: the strict chains are final (see kan)

    @property
    def passed(self):
        return self.iso is not None and self.iso.is_order_isomorphism()


def density_colimit(poset, length_bound) -> DensityResult:
    """Colimit of the chain diagram of a poset, compared against the poset itself.

    The canonical map sends the class of (chain t, position j) to t[j]; density
    of the chain inclusion makes it an order isomorphism once the length bound
    reaches the poset height.
    """
    if length_bound < poset.height:
        raise BoundError(
            f"length bound {length_bound} is below the poset height {poset.height}"
        )
    diagram, node_chain = comma_data(inclusion_functor(), poset, length_bound)
    cocone = colimit_pos(diagram)
    # the elements of [n] are "0".."n"
    positions = {nid: (lambda j, t=t: t[int(j)]) for nid, t in node_chain.items()}
    iso, _ = induced_map(cocone, poset, positions)
    return DensityResult(cocone, iso, length_bound)


@dataclass
class FullFaithfulnessReport:
    monotone_count: int
    simplicial_count: int
    injective: bool
    surjective: bool

    @property
    def passed(self):
        return (
            self.injective
            and self.surjective
            and self.monotone_count == self.simplicial_count
        )


def fully_faithful_witness(p, q, K) -> FullFaithfulnessReport:
    """Compare monotone maps p -> q with simplicial maps between the nerves:
    the nerve functor must induce a bijection."""
    if K < 1:
        raise ContinuityError("full faithfulness needs truncation >= 1")
    monotone = monotone_maps(p, q)
    simplicial = simplicial_maps(nerve(p, K), nerve(q, K))

    def key(components):
        return tuple(tuple(sorted(c.items())) for c in components)

    image_keys = [key(nerve_map(f, K).components) for f in monotone]
    simp_keys = {key(m.components) for m in simplicial}
    injective = len(set(image_keys)) == len(image_keys)
    surjective = simp_keys == set(image_keys)
    return FullFaithfulnessReport(len(monotone), len(simplicial), injective, surjective)


def non_monotone_witness(p, q, K) -> str:
    """The first simplicial map N(p) -> N(q), in enumeration order, whose
    level-0 component is not monotone: its vertex assignment and the first
    order pair of p it breaks. "" when every vertex map is monotone, which
    full faithfulness guarantees from truncation 1 on."""
    for m in iter_simplicial_maps(nerve(p, K), nerve(q, K)):
        image = {x[0]: y[0] for x, y in m.components[0].items()}
        for i, j in p.leq_pairs:
            a, b = p.elements[i], p.elements[j]
            if not q.leq(image[a], image[b]):
                assignment = " ".join(f"{x}->{y}" for x, y in image.items())
                return (
                    f"{assignment} is not monotone: {a}<={b} "
                    f"but not {image[a]}<={image[b]}"
                )
    return ""
