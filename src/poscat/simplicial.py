"""Truncated simplicial sets, the nerve of a poset, and simplicial map search."""

from __future__ import annotations

import collections
import functools
import itertools
import math
from operator import itemgetter

from ._kernels import depth_first, set_bits
from .delta import DeltaMap, Frozen, factorize, identity_instances
from .posets import MonotoneMap, chain_levels


class SimplicialError(Exception):
    pass


class IdentityViolation(Frozen):
    def __init__(self, family: str, level: int, i: int, j: int, simplex: object):
        self.__dict__.update(family=family, level=level, i=i, j=j, simplex=simplex)

    def __str__(self):
        spot = f"level {self.level}, simplex {simplex_label(self.simplex)}"
        return f"{self.family} fails at {spot} (i={self.i}, j={self.j})"


class SimplicialIdentityError(SimplicialError):
    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(head + more)


def _dual_family(family):
    """The dual of a Delta identity family's name: each word reversed, with
    d_i for delta_i and s_j for sigma_j, citing the Delta equation."""
    equation = family.split(" (")[0]
    sides = (" ".join(reversed(side.split())) for side in equation.split(" = "))
    dual = " = ".join(sides).replace("delta", "d").replace("sigma", "s")
    return f'{dual} (dual of "{equation}")'


def _act(X, refs, simplices):
    """Iterator over the images of `simplices` under the generator references
    `refs` ((kind, ordinal, index), ...), the leftmost generator acting first."""
    tables = {"face": X.faces, "degeneracy": X.degeneracies}
    for kind, n, i in refs:
        simplices = map(tables[kind][n, i].__getitem__, simplices)
    return simplices


def simplex_label(simplex):
    """Readable identifier: tuples (nerve simplices) join their points with commas."""
    if isinstance(simplex, tuple):
        return ",".join(str(p) for p in simplex)
    return str(simplex)


class TruncatedSimplicialSet:
    """Levels X_0..X_K with face and degeneracy tables.

    faces[(n, i)] maps X_n -> X_{n-1} for 1 <= n <= K, 0 <= i <= n;
    degeneracies[(n, i)] maps X_n -> X_{n+1} for 0 <= n < K, 0 <= i <= n.
    `make_sset` validates the dual simplicial identities; the raw constructor
    can skip that for deliberately broken fixtures.

    A set is read-only by convention once built: the constructor copies the
    tables it is given, and `nerve` hands the same set to every caller that
    asks for one poset, name and truncation, so changing a table of a nerve
    would change it for them all.  The convention also guards what a map
    search compiles from the tables and keeps on the set: its slot program
    as a source, its boundary index, degeneracy masks, lookahead tables and
    top-level candidates as a target.  None of these is rebuilt when a
    table changes.  Copy a table before changing it.
    """

    def __init__(self, levels, faces, degeneracies, name="", validate=True):
        self.levels = tuple(tuple(level) for level in levels)
        self.K = len(self.levels) - 1
        if self.K < 0:
            raise SimplicialError("a truncated simplicial set needs at least level 0")
        self.faces = {key: dict(table) for key, table in faces.items()}
        self.degeneracies = {key: dict(table) for key, table in degeneracies.items()}
        self.name = name
        self._check_structure()
        if validate:
            bad = self.identity_violations()
            if bad:
                raise SimplicialIdentityError(bad)

    @functools.cached_property
    def level_sets(self):
        """Each level as a frozenset, built on first use and kept: the levels
        are tuples, so these never go stale.  The structure checks here and
        every `SimplicialMap` check share them."""
        return tuple(frozenset(level) for level in self.levels)

    @functools.cached_property
    def _target_index(self):
        """The tables a map search into this set reads, built on first use
        and kept: per level n >= 1 its boundary index (`_boundary_index`);
        per degeneracy table (n, i) the one-bit mask of the image of each
        position of X_n; and per level the one-bit mask of each position.
        Every one-bit mask of these tables and of `_lookahead` is taken from
        the last, so each simplex's bit is one int however many hold it."""
        pos = [{y: j for j, y in enumerate(level)} for level in self.levels]
        bits = tuple([1 << j for j in range(len(level))] for level in self.levels)
        index = (None,) + tuple(
            _boundary_index(self, n, pos[n - 1], bits[n]) for n in range(1, self.K + 1)
        )
        degeneracy = {
            (n, i): {j: bits[n + 1][pos[n + 1][table[y]]] for j, y in enumerate(self.levels[n])}
            for (n, i), table in self.degeneracies.items()
        }
        return index, degeneracy, bits

    @functools.cached_property
    def _lookahead(self):
        """The lookahead table (`_check_table`) of each (n, at) that a map
        search into this set needs, built the first time a source needs it."""
        index, _, bits = self._target_index
        return functools.cache(lambda n, at: _check_table(index[n], n, at, bits[n - 1]))

    @functools.cached_property
    def _top_candidates(self):
        """The top-level simplices that a mask over the top level selects, as
        a tuple, built the first time a listing meets the mask."""
        top = self.levels[-1]
        return functools.cache(lambda mask: tuple(top[j] for j in set_bits(mask)))

    @functools.cached_property
    def _slot_program(self):
        """The source side of a map search from this set, in slot numbers
        only, so that it serves every target: the simplices are the slots,
        level by level in levels order.  It is (bounds, faces, splits,
        degenerate): the first slot of each level and the end; per slot the
        slots of its faces (none at level 0); per slot at level n >= 1 the
        pair (at, rest) of the face positions that hold its last face slot
        and of the others; and per degeneracy table (n, i), for each simplex
        of X_n in order, the slot of its image.  Equal pairs are one tuple."""
        bounds = [0]
        for level in self.levels:
            bounds.append(bounds[-1] + len(level))
        slot_of = [
            dict(zip(level, range(a, b))) for level, a, b in zip(self.levels, bounds, bounds[1:])
        ]
        faces, splits, shared = [()] * bounds[1], [None] * bounds[1], {}
        for n in range(1, self.K + 1):
            below = slot_of[n - 1]
            tables = [self.faces[n, i] for i in range(n + 1)]
            for x in self.levels[n]:
                f = tuple(below[t[x]] for t in tables)
                last = max(f)
                at = tuple(i for i, g in enumerate(f) if g == last)
                if (n, at) not in shared:
                    shared[n, at] = at, tuple(i for i in range(n + 1) if i not in at)
                faces.append(f)
                splits.append(shared[n, at])
        degenerate = tuple(
            ((n, i), tuple(slot_of[n + 1][table[x]] for x in self.levels[n]))
            for (n, i), table in self.degeneracies.items()
        )
        return tuple(bounds), tuple(faces), tuple(splits), degenerate

    def _check_structure(self):
        for n, (level, members) in enumerate(zip(self.levels, self.level_sets)):
            if len(members) != len(level):
                raise SimplicialError(f"duplicate simplex identifiers at level {n}")
        for n in range(1, self.K + 1):
            for i in range(n + 1):
                table = self.faces.get((n, i))
                if table is None:
                    raise SimplicialError(f"missing face table d_{i} at level {n}")
                self._check_table(table, n, n - 1, f"d_{i}")
        for n in range(self.K):
            for i in range(n + 1):
                table = self.degeneracies.get((n, i))
                if table is None:
                    raise SimplicialError(f"missing degeneracy table s_{i} at level {n}")
                self._check_table(table, n, n + 1, f"s_{i}")
        extra_f = set(self.faces) - {(n, i) for n in range(1, self.K + 1) for i in range(n + 1)}
        extra_s = set(self.degeneracies) - {(n, i) for n in range(self.K) for i in range(n + 1)}
        if extra_f or extra_s:
            raise SimplicialError("table indices outside the truncation")

    def _check_table(self, table, n_from, n_to, what):
        if table.keys() != self.level_sets[n_from]:
            raise SimplicialError(f"{what} at level {n_from} is not total on X_{n_from}")
        if not self.level_sets[n_to].issuperset(table.values()):
            raise SimplicialError(f"{what} at level {n_from} maps outside X_{n_to}")

    def identity_violations(self):
        """Instances of the dual simplicial identities that fail, if any: both
        sides of each `delta.identity_instances(K)` instance act on the level
        its left side starts from.  The faces-only family comes first, then
        the degeneracies-only one, then the three mixed ones together, each
        by (level, j, i, simplex).

        Sides are compared as positions: each generator's image of its level
        is looked up once per call and shared by every instance that uses
        it, so a side costs one list index per simplex and generator."""
        if self.K < 1:
            return []
        out, mixed = [], []
        pos = [{y: j for j, y in enumerate(level)} for level in self.levels]
        steps = {"face": (self.faces, -1), "degeneracy": (self.degeneracies, 1)}
        images = {}  # per generator, the positions of its images of its level

        def positions(refs, size):
            out = None
            for ref in refs:
                if ref not in images:
                    kind, n, i = ref
                    tables, step = steps[kind]
                    simplices = map(tables[n, i].__getitem__, self.levels[n])
                    images[ref] = list(map(pos[n + step].__getitem__, simplices))
                out = images[ref] if out is None else list(map(images[ref].__getitem__, out))
            return list(range(size)) if out is None else out

        for family, _, i, j, lhs, rhs in identity_instances(self.K):
            m = lhs[0][1]
            level = self.levels[m]
            left, right = positions(lhs, len(level)), positions(rhs, len(level))
            if left != right:
                dual = _dual_family(family)
                (mixed if lhs[0][0] != lhs[1][0] else out).extend(
                    IdentityViolation(dual, m, i, j, x)
                    for x, a, b in zip(level, left, right)
                    if a != b
                )
        mixed.sort(key=lambda v: (v.level, v.j, v.i))
        return out + mixed

    def restrict(self, new_k):
        """Truncate further, keeping tables as they are (no revalidation)."""
        if not 0 <= new_k <= self.K:
            raise SimplicialError("restriction level outside truncation")
        return TruncatedSimplicialSet(
            self.levels[: new_k + 1],
            {key: t for key, t in self.faces.items() if key[0] <= new_k},
            {key: t for key, t in self.degeneracies.items() if key[0] < new_k},
            name=self.name,
            validate=False,
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSimplicialSet):
            return NotImplemented
        return (
            self.levels == other.levels
            and self.faces == other.faces
            and self.degeneracies == other.degeneracies
        )

    def __repr__(self):
        sizes = ",".join(str(len(level)) for level in self.levels)
        return f"TruncatedSimplicialSet(K={self.K}, sizes=[{sizes}])"


def make_sset(levels, faces, degeneracies, name="") -> TruncatedSimplicialSet:
    """Validated constructor: checks totality and every dual identity instance."""
    return TruncatedSimplicialSet(levels, faces, degeneracies, name=name, validate=True)


# The nerves `nerve` keeps, least recently used first, keyed by (poset, name,
# K): `FinPoset` equality ignores names, while a nerve is named after its poset.
_NERVES = collections.OrderedDict()
NERVE_CACHE_SIZE = 32
# A nerve with more simplices is built but not kept, so the cache holds at
# most NERVE_CACHE_SIZE * NERVE_CACHE_MAX_SIMPLICES simplices.
NERVE_CACHE_MAX_SIMPLICES = 4096


def nerve(poset, K) -> TruncatedSimplicialSet:
    """Nerve truncated at K: level n holds the weakly increasing (n+1)-tuples,
    d_i deletes position i and s_i duplicates it.

    The result is shared: equal posets with equal names give one object at
    one K, from a cache of the NERVE_CACHE_SIZE nerves used last, none over
    NERVE_CACHE_MAX_SIMPLICES simplices.  Its levels are tuples and its tables
    are read-only by convention; a caller that wants to change a table
    copies it first."""
    if K < 0:
        raise SimplicialError("truncation level must be >= 0")
    key = (poset, poset.name, K)
    X = _NERVES.get(key)
    if X is not None:
        _NERVES.move_to_end(key)
        return X
    X = _build_nerve(poset, K)
    if sum(map(len, X.levels)) <= NERVE_CACHE_MAX_SIMPLICES:
        _NERVES[key] = X
        if len(_NERVES) > NERVE_CACHE_SIZE:
            _NERVES.popitem(last=False)
    return X


def _build_nerve(poset, K):
    levels = [tuple(level) for level in chain_levels(poset, K)]
    # each table entry is looked up among the adjacent level's own tuples, so
    # it costs a reference instead of a fresh tuple of up to K + 2 points
    own = [{t: t for t in level} for level in levels]
    faces = {}
    degeneracies = {}
    for n in range(1, K + 1):
        below = own[n - 1]
        for i in range(n + 1):
            faces[(n, i)] = {t: below[t[:i] + t[i + 1 :]] for t in levels[n]}
    for n in range(K):
        above = own[n + 1]
        for i in range(n + 1):
            degeneracies[(n, i)] = {t: above[t[: i + 1] + t[i:]] for t in levels[n]}
    return TruncatedSimplicialSet(
        levels, faces, degeneracies, name=f"N({poset.name})" if poset.name else "", validate=False
    )


def evaluate(X, f: DeltaMap):
    """The presheaf action X(f) : X_{target} -> X_{source} as a dict: the
    generator normal form of f acts on each simplex through X's tables, its
    leftmost generator first (the action is contravariant)."""
    if f.source > X.K or f.target > X.K:
        raise SimplicialError(
            f"map [{f.source}]->[{f.target}] exceeds truncation {X.K}"
        )
    level = X.levels[f.target]
    return dict(zip(level, _act(X, factorize(f).refs(), level)))


class SimplicialMap:
    """Level-wise function commuting with all face and degeneracy tables.

    Every map is checked when it is built, the maps the search lists
    included: each component must be total on its level of the source, take
    values in the same level of the target, and commute with every face and
    degeneracy table of the source.  The first failure raises, in that order.
    `components` are the map's own dicts, copied from whatever mappings or
    (simplex, image) pairs the caller passes.
    """

    def __init__(self, source, target, components):
        if source.K != target.K:
            raise SimplicialError("source and target truncations differ")
        self.source = source
        self.target = target
        self.components = tuple(map(dict, components))
        if len(self.components) != source.K + 1:
            raise SimplicialError("one component per level required")
        self._check()

    def _check(self):
        comps, source, target = self.components, self.source, self.target
        for n, comp in enumerate(comps):
            if comp.keys() != source.level_sets[n]:
                raise SimplicialError(f"component at level {n} is not total")
            if not target.level_sets[n].issuperset(comp.values()):
                raise SimplicialError(f"component at level {n} maps outside the target")
        for (n, i), table in source.faces.items():
            below, here, face = comps[n - 1], comps[n], target.faces[n, i]
            for x, y in table.items():
                if below[y] != face[here[x]]:
                    raise SimplicialError(f"does not commute with d_{i} at level {n}")
        for (n, i), table in source.degeneracies.items():
            above, here, degeneracy = comps[n + 1], comps[n], target.degeneracies[n, i]
            for x, y in table.items():
                if above[y] != degeneracy[here[x]]:
                    raise SimplicialError(f"does not commute with s_{i} at level {n}")

    def __call__(self, n, x):
        return self.components[n][x]

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"SimplicialMap(levels={len(self.components)})"

    def is_levelwise_bijective(self):
        return all(
            len(set(c.values())) == len(c) == len(self.target.levels[n])
            for n, c in enumerate(self.components)
        )


def nerve_map(f: MonotoneMap, K) -> SimplicialMap:
    """Nerve functor on morphisms: apply f pointwise to every chain."""
    src = nerve(f.source, K)
    tgt = nerve(f.target, K)
    comps = [
        {t: tuple(f(p) for p in t) for t in src.levels[n]} for n in range(K + 1)
    ]
    return SimplicialMap(src, tgt, comps)


def _boundary_index(Y, n, below, bits):
    """Level n of Y bucketed by boundary: the key of a simplex y is the tuple
    of the positions of d_0 y, ..., d_n y in Y.levels[n - 1] (`below`), and
    bit j of a key's mask is set iff Y.levels[n][j] has that boundary.  A
    bucket of one simplex holds its bit from `bits`, not a copy."""
    tables = [Y.faces[(n, i)] for i in range(n + 1)]
    index = {}
    for y, bit in zip(Y.levels[n], bits):
        key = tuple(below[t[y]] for t in tables)
        index[key] = index[key] | bit if key in index else bit
    return index


def _check_table(index, n, at, bits):
    """The lookahead check of a simplex at level n whose faces at positions
    `at` are one slot, its last: the images of its other faces, read as
    `itemgetter` reads them (one image bare, several as a tuple, none as ()),
    map to the mask of the values that slot may take so that the simplex's
    bucket in `index` is not empty.  A mask of one value is its bit from
    `bits`, the one-bit masks of level n - 1."""
    rest = [i for i in range(n + 1) if i not in at]
    other = itemgetter(*rest) if rest else lambda key: ()
    table = {}
    for key in index:
        y = key[at[0]]
        if all(key[i] == y for i in at):
            k = other(key)
            table[k] = table[k] | bits[y] if k in table else bits[y]
    return table


def _assignments(X, Y):
    """Every simplicial map X -> Y, in the bitmask form of `list_maps`: the
    simplices of X are the slots, level by level in X.levels order, and a
    slot at level n takes positions in Y.levels[n].  Yields, for each
    assignment of levels 0..K-1 (the head) that leaves every top-level slot
    a candidate, the pair (head, masks): the head's positions, slot by slot,
    and per slot of level K the mask of the positions it may take.  Those
    masks are independent, since a top-level simplex is a face of nothing,
    so the maps with that head are their ordered product; heads come in
    lexicographic order from `depth_first`, and so do the maps.

    A slot's mask is the AND of masks looked up by the images of slots
    before it:
    - its bucket in Y's boundary index, by the images of its faces (a
      vertex's bucket is every vertex of Y);
    - for each degeneracy s_i x' = x, the one bit of s_i of the image of
      x', so that images forced twice must agree;
    - for each simplex whose last face it is, the values that leave that
      simplex a non-empty bucket, by the images of its other faces.
    So a candidate with no completion is never tried, and the order of the
    maps found is unchanged.

    Everything that depends on one side only is compiled once per set and
    kept on it: X's slot program (`_slot_program`, slot numbers only) and
    Y's tables (`_target_index`, and `_lookahead` per (n, at)).  A call only
    binds the two: it builds the per-slot lookups, with their getters, for
    this pair.
    """
    if X.K != Y.K:
        raise SimplicialError("source and target truncations differ")
    # per slot a constant mask and its lookups, each a table of Y and the
    # getter of its key from the values of the slots before it
    bounds, faces, splits, degenerate = X._slot_program
    index, degeneracy, _ = Y._target_index
    consts = [(1 << len(Y.levels[0])) - 1] * bounds[1] + [-1] * (bounds[-1] - bounds[1])
    lookups = [[] for _ in consts]
    for n in range(1, X.K + 1):
        for s in range(bounds[n], bounds[n + 1]):
            f, (at, rest) = faces[s], splits[s]
            lookups[s].append((index[n], itemgetter(*f)))
            check = Y._lookahead(n, at)
            if rest:
                lookups[f[at[0]]].append((check, itemgetter(*[f[i] for i in rest])))
            else:
                consts[f[at[0]]] &= check.get((), 0)
    for (n, i), images in degenerate:
        table = degeneracy[n, i]
        for xp, x in enumerate(images, bounds[n]):
            lookups[x].append((table, itemgetter(xp)))
    slots = list(zip(consts, lookups))

    def options(s, values):
        mask, lookups = slots[s]
        for table, get in lookups:
            mask &= table.get(get(values), 0)
        return set_bits(mask)

    top = slots[bounds[-2] :]
    for head in depth_first(len(slots) - len(top), options):
        masks = []
        for mask, lookups in top:
            for table, get in lookups:
                mask &= table.get(get(head), 0)
            if not mask:
                break
            masks.append(mask)
        else:
            yield head, masks


def iter_simplicial_maps(X, Y):
    """The simplicial maps X -> Y one at a time, in lexicographic order of
    their images over the simplices of X (level by level, X.levels order).

    `_assignments` walks levels 0..K-1 of X with `_kernels.depth_first`,
    each simplex taking its candidates from bitmasks over a boundary index
    of Y that Y compiles once and keeps; the maps with one head are the
    ordered product of the candidates of the top-level simplices, each
    candidate tuple kept on Y by its mask (`_top_candidates`).  Each map's
    components are passed to `SimplicialMap` as (simplex, image) pairs, its
    head levels zipped from the head's positions and its top level from its
    tuple of the product, so each component dict is built once, by the
    constructor, and every map owns its own.  Every map is validated: the
    constructor re-checks that it is total, stays in Y and commutes with
    every face and degeneracy table.
    """
    bounds = X._slot_program[0]
    # per level below the top: its simplices, the image of a position, and
    # the head's span of that level
    head_levels = [
        (level, images.__getitem__, a, b)
        for level, images, a, b in zip(X.levels[:-1], Y.levels, bounds, bounds[1:])
    ]
    top, candidates = X.levels[-1], Y._top_candidates
    for head, masks in _assignments(X, Y):
        # a list, not *map(...): unpacking the iterator here raised the peak
        # RSS of the `nerves` benchmark workload by about 1 MB (CPython 3.11)
        for tail in itertools.product(*[candidates(m) for m in masks]):
            comps = [zip(level, map(image, head[a:b])) for level, image, a, b in head_levels]
            comps.append(zip(top, tail))
            yield SimplicialMap(X, Y, comps)


def simplicial_maps(X, Y):
    """All simplicial maps X -> Y as a list of validated `SimplicialMap`s, in
    the order of `iter_simplicial_maps`."""
    return list(iter_simplicial_maps(X, Y))


def count_simplicial_maps(X, Y):
    """The number of simplicial maps X -> Y: the head walk of
    `iter_simplicial_maps`, each head adding the product of its top-level
    masks' popcounts, so no top-level simplex is enumerated and no dict or
    map is built."""
    return sum(math.prod(map(int.bit_count, masks)) for _, masks in _assignments(X, Y))
