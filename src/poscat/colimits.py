"""Colimits of finite poset diagrams and bounded universal-property verification.

A colimit is computed in three stages: quotient of the disjoint union by the
edge identifications (union-find), the preorder generated by the images of the
node relations, and condensation of its strongly connected components.

Stage one (`_stage_one`) runs in one integer index space, and `colimit_pos`
and `verify_universal` both read it.  Each element of each node is one cell,
an int; each edge map's target indices link its cells, and one union-find
over a list of parents gives the classes.  Members of a class are sorted by
their 'node.element' labels and classes by their first member's label; two
cells may share a label (node a with element b.c beside node a.b with
element c), and then the earlier cell comes first among members, and the
class whose earliest cell comes first among classes.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import _kernels
from .corpus import all_posets
from .delta import (
    DeltaError,
    GeneratorWord,
    compose,
    degeneracy,
    delta_to_monotone,
    face,
)
from .posets import FinPoset, MonotoneMap, PosetError, ordinal_poset


class ColimitError(Exception):
    pass


class SubcategoryError(ColimitError):
    """A diagram node lies outside the requested subcategory."""


class PosetDiagram:
    """Finite multidigraph with poset nodes and monotone edge maps."""

    def __init__(self, nodes: dict, edges: list, name: str = ""):
        self.nodes = nodes
        self.edges = [tuple(e) for e in edges]  # (edge_id, src_node, dst_node, MonotoneMap)
        self.name = name
        seen = set()
        for edge_id, src, dst, f in self.edges:
            if edge_id in seen:
                raise ColimitError(f"duplicate edge id {edge_id!r}")
            seen.add(edge_id)
            if src not in nodes or dst not in nodes:
                raise ColimitError(f"edge {edge_id!r} references an unknown node")
            if f.source != nodes[src] or f.target != nodes[dst]:
                raise ColimitError(f"edge {edge_id!r} map endpoints do not match its nodes")

    @property
    def node_ids(self):
        return tuple(sorted(self.nodes))


class Cocone:
    def __init__(self, diagram: PosetDiagram, apex: FinPoset, legs: dict):
        self.diagram = diagram
        self.apex = apex
        self.legs = legs  # node id -> MonotoneMap into apex
        for nid in diagram.nodes:
            if nid not in legs:
                raise ColimitError(f"missing leg for node {nid!r}")
            leg = legs[nid]
            if leg.source != diagram.nodes[nid] or leg.target != apex:
                raise ColimitError(f"leg for node {nid!r} has wrong endpoints")

    def commutes(self):
        for _, src, dst, f in self.diagram.edges:
            if self.legs[dst].compose(f) != self.legs[src]:
                return False
        return True


def _roots(n, links):
    """Union-find over the slots 0..n-1 (Tarjan, J. ACM 22, 1975): the least
    slot of each slot's class under the equivalence generated by the pairs
    in `links`.  A class's root is its least slot, so a parent never lies
    above its child, and one ascending pass resolves every slot."""
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


def _labels(diagram):
    """The 'node.element' label of each cell, in cell order."""
    return [f"{nid}.{e}" for nid, poset in diagram.nodes.items() for e in poset.elements]


def _stage_one(diagram):
    """Stage one: the disjoint union of the carriers modulo x ~ f(x) for
    every edge f, in one integer index space.  Element i of node nid is the
    cell offset[nid] + i, and each edge map's target indices link its cells.

    Returns (offset, class_of, members, rows): each node's first cell, each
    cell's class, each class's cells, and the class relation as row
    bitmasks, with bit d of row c set when some node orders a cell of c
    below one of d.  Members are sorted by label, ties in cell order;
    classes by their first member's label, ties in the order of their
    earliest cells, the roots.  The labels serve the sort only and are
    dropped on return; `_labels` builds them again for a witness.
    """
    offset = {}
    n = 0
    for nid, poset in diagram.nodes.items():
        offset[nid] = n
        n += poset.n
    labels = _labels(diagram)
    links = itertools.chain.from_iterable(
        zip(itertools.count(offset[src]), map(offset[dst].__add__, f.target_indices))
        for _, src, dst, f in diagram.edges
    )
    root = _roots(n, links)
    groups = {}
    for c in sorted(range(n), key=labels.__getitem__):
        groups.setdefault(root[c], []).append(c)
    members = sorted(groups.values(), key=lambda g: (labels[g[0]], root[g[0]]))
    class_of = [0] * n
    for k, group in enumerate(members):
        for c in group:
            class_of[c] = k
    rows = [0] * len(members)
    for nid, poset in diagram.nodes.items():
        at = class_of[offset[nid] : offset[nid] + poset.n]
        for i, j in poset.leq_pairs:
            rows[at[i]] |= 1 << at[j]
    return offset, class_of, members, rows


def colimit_pos(diagram) -> Cocone:
    """Colimit in the category of finite posets, by the three-stage recipe.

    Stage one numbers the cells, one per element of each node, and joins
    them by one integer union-find (`_stage_one`).  Its classes come in
    label order, ties to the earlier cell; the result depends only on the
    classes themselves, as the apex sorts the names.  The class relation is
    closed once: two classes share a strongly connected component when each
    reaches the other, and component a <= b when a's first class reaches
    b's.  A component is named 'node.element' after its least (node,
    element) cell in tuple order, found by walking the nodes in id order;
    two components that would share a name raise ColimitError.  Each leg
    sends its node's cells through their classes to their components' names.
    """
    offset, class_of, members, rows = _stage_one(diagram)
    closed = _kernels.transitive_closure(rows)
    comps = _kernels.condense(closed)
    comp_of = [0] * len(members)
    for k, comp in enumerate(comps):
        for c in comp:
            comp_of[c] = k
    least = [None] * len(comps)
    for nid in sorted(offset):
        elements = diagram.nodes[nid].elements
        for e, c in zip(elements, class_of[offset[nid] : offset[nid] + len(elements)]):
            cell = least[comp_of[c]]
            if cell is None or cell[0] == nid and e < cell[1]:
                least[comp_of[c]] = (nid, e)
    named = sorted((f"{nid}.{e}", (nid, e), comp) for (nid, e), comp in zip(least, comps))
    for (name, a, _), (other, b, _) in zip(named, named[1:]):
        if name == other:
            raise ColimitError(
                f"two colimit elements would share the name {name!r}: the cells {a!r} and {b!r}"
            )
    names = [name for name, _, _ in named]
    up = _kernels.meet_rows([closed], [comp[0] for _, _, comp in named])
    apex = FinPoset(names, up, name=diagram.name and f"colim({diagram.name})")
    name_of = [""] * len(members)
    for name, _, comp in named:
        for c in comp:
            name_of[c] = name
    cell_name = list(map(name_of.__getitem__, class_of))
    legs = {
        nid: MonotoneMap(poset, apex, cell_name[offset[nid] : offset[nid] + poset.n])
        for nid, poset in diagram.nodes.items()
    }
    return Cocone(diagram, apex, legs)


def _require_nodes(diagram, allow_empty):
    for nid, poset in diagram.nodes.items():
        if not poset.is_total:
            raise SubcategoryError(f"node {nid!r} is not totally ordered")
        if not allow_empty and poset.n == 0:
            raise SubcategoryError(f"node {nid!r} is empty, hence not an object of the simplex category")


def colimit_delta(diagram):
    """Colimit within the simplex category, when the poset colimit lands there.

    The inclusion into posets is full, so it reflects colimits: the result is
    the poset colimit when that is a non-empty total order, and None otherwise.
    """
    _require_nodes(diagram, allow_empty=False)
    cocone = colimit_pos(diagram)
    if cocone.apex.n > 0 and cocone.apex.is_total:
        return cocone
    return None


def colimit_tos(diagram):
    """Colimit among total orders: the poset colimit when its apex is total."""
    _require_nodes(diagram, allow_empty=True)
    cocone = colimit_pos(diagram)
    if cocone.apex.is_total:
        return cocone
    return None


def induced_map(cocone, target, node_maps):
    """The map cocone.apex -> target that sends legs[nid](x) to node_maps[nid](x).

    Returns (map, "") or (None, reason), where the reason completes "the map
    is ...": "not well defined" when two elements with one image in the apex
    disagree, "not jointly epic" when the legs miss an apex element, and "not
    monotone" when the values break the order.
    """
    values = {}
    for nid, leg in cocone.legs.items():
        node_map = node_maps[nid]
        for x, a in zip(leg.source.elements, leg.values):
            v = node_map(x)
            if values.setdefault(a, v) != v:
                return None, "not well defined"
    if len(values) != cocone.apex.n:
        return None, "not jointly epic"
    try:
        return MonotoneMap.from_dict(cocone.apex, target, values), ""
    except PosetError:
        return None, "not monotone"


class ApexVerdict:
    def __init__(
        self, apex_label: str, apex_size: int, cocones: int, existence_ok: bool, uniqueness_ok: bool
    ):
        self.apex_label = apex_label
        self.apex_size = apex_size
        self.cocones = cocones
        self.existence_ok = existence_ok
        self.uniqueness_ok = uniqueness_ok

    @property
    def ok(self):
        return self.existence_ok and self.uniqueness_ok


class UniversalReport:
    def __init__(self, bound: int, entries: list | None = None, witness: str = ""):
        self.bound = bound
        self.entries = [] if entries is None else entries
        self.witness = witness

    @property
    def passed(self):
        return all(e.ok for e in self.entries)

    @property
    def cocones_checked(self):
        return sum(e.cocones for e in self.entries)


def verify_universal(diagram, candidate: Cocone, apex_size_bound: int) -> UniversalReport:
    """Check the universal property of `candidate` against every cocone whose
    apex has at most `apex_size_bound` elements (one apex per isomorphism
    class).

    A cocone corresponds to a monotone map from the stage-one quotient
    classes, ordered by the node relations, into the apex: a function on the
    classes with f[i] <= f[j] for every class pair (i, j).  One plan kernel
    (`_kernels.count_plan` and `_kernels.run_plan`) does all the counting, in
    one of two ways.

    When the legs hit every apex element, the comparison map u from the
    colimit to the candidate's apex is onto, so composing with u sends the
    monotone maps out of the candidate's apex one-to-one into the cocones:
    every cocone into a target factors, and then exactly once, iff the two
    counts into it agree.  Each is counted through its apex's cached
    `count_plan` into one batch, the disjoint union of every target's cached
    up- and down-rows, so that each fold is one pass over the rows of all
    targets.  When the closure of the node relations is the apex order
    pulled back along u, u is an order isomorphism and a call runs
    `run_plan` once; otherwise it builds the colimit and runs it twice.  The
    witness names the first failing target's first failing component.  The
    union, labels and sizes are built once per bound, beside the cached
    corpus; the counts live for this call only.

    When the legs miss some apex elements, every cocone is enumerated and its
    mediating maps are counted by one plan over the unhit elements, built
    once per call, with each element's values restricted by the cocone's
    values on the hit elements below and above it.  A cocone that breaks an
    identification or an order relation among the hit elements has none and
    is not searched; cocones with equal domains are counted once, all of one
    target's in one batch, the disjoint union of one copy of the target per
    distinct tuple of domains, built per call, so a call runs `run_plan`
    once per target.

    Bound 2 decides the verdict; larger bounds add the per-target counts.
    Into [1] a poset's maps are its up-sets, which tell its elements and its
    order apart.  So when the legs hit every apex element but the candidate
    adds an identification or an order pair (i, j), the colimit's up-set of
    i or of j is a cocone into [1] without a mediating map; when they miss
    an element u, the up-set of the hit elements above u, with and without
    u, gives two mediating maps of one cocone.  The first failing target
    has at most two elements.
    """
    if not candidate.commutes():
        raise ColimitError("invalid-cocone: candidate legs do not commute")

    offset, class_of, members, rows = _stage_one(diagram)
    n = len(members)
    node_pairs = [(c, d) for c, row in enumerate(rows) for d in _kernels.set_bits(row & ~(1 << c))]

    apex = candidate.apex
    class_to_apex = [None] * n
    for nid, poset in diagram.nodes.items():
        at = class_of[offset[nid] : offset[nid] + poset.n]
        for c, a in zip(at, candidate.legs[nid].target_indices):
            if class_to_apex[c] is None:
                class_to_apex[c] = a
            elif class_to_apex[c] != a:
                raise ColimitError("invalid-cocone: legs disagree on an identified element")
    hit = set(class_to_apex)
    report = UniversalReport(bound=apex_size_bound)

    if len(hit) == apex.n:
        union, labels, sizes = _corpus_rows(apex_size_bound)
        mediated = _kernels.run_plan(apex.count_plan, union)
        if _kernels.transitive_closure(rows) == _kernels.meet_rows([apex.up_rows], class_to_apex):
            cocones = mediated  # the comparison map is an order isomorphism
        else:
            cocones = _kernels.run_plan(colimit_pos(diagram).apex.count_plan, union)
        exists = list(map(operator.eq, cocones, mediated))
        if False in exists:  # name the first failing target's first failing component
            target = all_posets(apex_size_bound)[exists.index(False)]
            report.witness = _describe_witness(
                node_pairs, class_to_apex, apex, target, members, _labels(diagram)
            )
        # the legs are jointly epic, so a mediating map is unique when it exists
        report.entries = list(map(ApexVerdict, labels, sizes, cocones, exists, [True] * len(union)))
        return report

    # Some apex elements are unhit: a cocone fixes the mediating map on the hit
    # elements only, and one plan over the apex's cover pairs among the unhit
    # elements counts its completions.  Each unhit element's domain holds the
    # values that respect the hit elements below and above it; with the
    # target's transitivity, that covers every chain through a hit element.
    unhit = [a for a in range(apex.n) if a not in hit]
    slot_of = {a: s for s, a in enumerate(unhit)}
    plan = _kernels.count_plan(
        len(unhit),
        [(slot_of[a], slot_of[b]) for a, b in apex.cover_pairs if a in slot_of and b in slot_of],
    )
    hit_pairs = [(a, b) for a, b in apex.leq_pairs if a in hit and b in hit]
    below = [[b for b in hit if apex.up_rows[b] >> u & 1] for u in unhit]
    above = [[b for b in hit if apex.up_rows[u] >> b & 1] for u in unhit]
    _, labels, sizes = _corpus_rows(apex_size_bound)
    for target, label, size in zip(all_posets(apex_size_bound), labels, sizes):
        up, down = target.up_rows, target.down_rows
        assignments = _kernels.list_maps(n, up, down, node_pairs)
        domains = [
            _completion_domains(class_to_apex, hit_pairs, below, above, h, target)
            for h in assignments
        ]
        distinct = list(dict.fromkeys(d for d in domains if d is not None))
        union = _kernels.DisjointUnion([(up, down, d) for d in distinct])
        counted = dict(zip(distinct, _kernels.run_plan(plan, union)))
        exist_ok = True
        unique_ok = True
        for h, d in zip(assignments, domains):
            count = 0 if d is None else counted[d]
            if count == 0:
                exist_ok = False
            if count > 1:
                unique_ok = False
            if count != 1 and not report.witness:
                cell_labels = _labels(diagram)
                cells = ", ".join(
                    f"{cell_labels[group[0]]}->{target.elements[v]}" for group, v in zip(members, h)
                )
                report.witness = (
                    f"cocone into {label} sending {cells} admits "
                    + ("no mediating map" if count == 0 else "more than one mediating map")
                )
        report.entries.append(ApexVerdict(label, size, len(assignments), exist_ok, unique_ok))
    return report


@functools.lru_cache(maxsize=None)
def _corpus_rows(bound):
    """What `verify_universal` reads of the targets `all_posets(bound)` on
    every call, built once per bound beside the cached corpus: their
    disjoint union (up- and down-rows, no domains), which `run_plan` counts
    into, the labels and the sizes.  These are target data only; no count
    is kept across calls."""
    targets = all_posets(bound)
    return (
        _kernels.DisjointUnion((t.up_rows, t.down_rows, None) for t in targets),
        tuple(map(_label, targets)),
        tuple(t.n for t in targets),
    )


def _completion_domains(class_to_apex, hit_pairs, below, above, h, target):
    """The values each unhit element may take in a monotone map apex ->
    target through which the cocone h factors, a tuple of one mask per unhit
    element, or None when h breaks an identification or an order relation
    among the hit elements, so that no such map exists."""
    value = {}
    for a, v in zip(class_to_apex, h):
        if value.setdefault(a, v) != v:
            return None
    up, down = target.up_rows, target.down_rows
    for a, b in hit_pairs:
        if not up[value[a]] >> value[b] & 1:
            return None
    full = (1 << target.n) - 1
    domains = []
    for lower, upper in zip(below, above):
        mask = full
        for b in lower:
            mask &= up[value[b]]
        for b in upper:
            mask &= down[value[b]]
        domains.append(mask)
    return tuple(domains)


def _label(poset):
    return poset.name or f"poset<{poset.n}:{sum(r.bit_count() for r in poset.up_rows)}>"


def _describe_witness(node_pairs, class_to_apex, apex, target, members, labels):
    """The first cocone into `target` that admits no mediating map, named by
    the labels of one class's cells.  The good pairs are the node pairs,
    then each identification as a pair each way in slot order, then the
    apex order through the first slot of each apex element.  Their
    components, found by `_roots`, are walked in the order of their least
    slots, each cocone on a component listed in order; a component whose
    cocones all satisfy its good pairs is passed over."""
    rep_slot = {}
    for slot, a in enumerate(class_to_apex):
        rep_slot.setdefault(a, slot)
    good_pairs = list(node_pairs)
    for slot, a in enumerate(class_to_apex):
        if rep_slot[a] != slot:
            good_pairs += [(rep_slot[a], slot), (slot, rep_slot[a])]
    good_pairs += [(rep_slot[i], rep_slot[j]) for i, j in apex.leq_pairs]
    up, down = target.up_rows, target.down_rows
    comps = {}
    for slot, root in enumerate(_roots(len(members), good_pairs)):
        comps.setdefault(root, []).append(slot)
    for comp in comps.values():
        pos = {s: k for k, s in enumerate(comp)}
        sub_all = [(pos[i], pos[j]) for i, j in node_pairs if i in pos]
        sub_good = [(pos[i], pos[j]) for i, j in good_pairs if i in pos]
        good = set(sub_good)
        for h in _kernels.list_maps(len(comp), up, down, sub_all):
            for i, j in sub_good:
                if not up[h[i]] >> h[j] & 1:
                    # an identification is a pair each way: name its first
                    # slot whichever way it breaks
                    k = min(i, j) if (j, i) in good else i
                    cells = ", ".join(labels[c] for c in members[comp[k]])
                    return (
                        f"cocone into {_label(target)} assigns {target.elements[h[k]]} to "
                        f"[{cells}] but admits no mediating map"
                    )
    return "mediating map missing or ambiguous"


def _face_chain(source, indices):
    """Composite of faces applied in the listed (increasing) order, starting at [source]."""
    return GeneratorWord(source, tuple(indices), ()).evaluate()


def paper_pushout_square(case, n, i=None):
    """One of the four generator pushout squares, as a span diagram plus its
    claimed colimit cocone.

    Cases 1-3 glue a face map onto [n+2] with corner [n+3]; the degeneracy
    case glues sigma_i onto [n+2] with corner [n+1].
    """
    if n < 0:
        raise DeltaError("square parameter n must be >= 0")
    if case == 1:
        if i not in (None, 0):
            raise DeltaError("case 1 admits no face index")
        left = face(1, 0)
        top = _face_chain(0, range(1, n + 3))
        right = face(n + 3, 0)
        bottom = _face_chain(1, range(2, n + 4))
    elif case == 2:
        if i not in (None, n + 3):
            raise DeltaError("case 2 admits no face index")
        left = face(1, 1)
        top = _face_chain(0, range(0, n + 2))
        right = face(n + 3, n + 3)
        bottom = _face_chain(1, range(0, n + 2))
    elif case == 3:
        if i is None or not 0 < i < n + 3:
            raise DeltaError(f"case 3 needs 0 < i < {n + 3}")
        left = face(2, 1)
        top = _face_chain(1, list(range(0, i - 1)) + list(range(i + 1, n + 3)))
        right = face(n + 3, i)
        bottom = _face_chain(2, list(range(0, i - 1)) + list(range(i + 2, n + 4)))
    elif case == "degeneracy":
        if i is None or not 0 <= i <= n + 1:
            raise DeltaError(f"degeneracy case needs 0 <= i <= {n + 1}")
        left = degeneracy(0, 0)
        top = _face_chain(1, list(range(0, i)) + list(range(i + 2, n + 3)))
        right = degeneracy(n + 1, i)
        bottom = _face_chain(0, list(range(0, i)) + list(range(i + 1, n + 2)))
    else:
        raise DeltaError(f"unknown square case {case!r}")

    diagram = PosetDiagram(
        nodes={
            "span": ordinal_poset(left.source),
            "left": ordinal_poset(left.target),
            "top": ordinal_poset(top.target),
        },
        edges=[
            ("l", "span", "left", delta_to_monotone(left)),
            ("t", "span", "top", delta_to_monotone(top)),
        ],
    )
    corner = ordinal_poset(right.target)
    legs = {
        "left": delta_to_monotone(bottom),
        "top": delta_to_monotone(right),
        "span": delta_to_monotone(compose(right, top)),
    }
    legs = {k: MonotoneMap(diagram.nodes[k], corner, m.values) for k, m in legs.items()}
    return diagram, Cocone(diagram, corner, legs)
