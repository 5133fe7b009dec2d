"""Truncated simplicial sets, the nerve of a poset, and simplicial map search."""

from __future__ import annotations

import collections
import functools
import itertools
from operator import and_, eq, itemgetter, mul

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
    as a source; as a target, its boundary index, degeneracy masks and
    lookahead tables, which every search reads, and its position tables,
    which only a listing builds, as it checks each batch of the maps it
    lists against them while they are held as positions.  None of these is
    rebuilt when a table changes.  Copy a table before changing it.
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
    def _position_tables(self):
        """The tables in positions, built on first use and kept: per level
        the frozenset of its positions; per level n >= 1 the boundary key of
        each position (`_boundary_keys`; None at level 0); and per
        degeneracy table (n, i) the position of the image of each position
        of X_n.  Only a listing into this set reads them: it checks each
        batch of maps it lists against them (`_position_check`)."""
        pos = _level_positions(self)
        spans = tuple(frozenset(range(len(level))) for level in self.levels)
        keys = (None,) + tuple(
            _boundary_keys(self, n, pos[n - 1]) for n in range(1, self.K + 1)
        )
        images = {
            (n, i): [pos[n + 1][table[y]] for y in self.levels[n]]
            for (n, i), table in self.degeneracies.items()
        }
        return spans, keys, images

    @functools.cached_property
    def _target_index(self):
        """The tables a map search into this set reads, built on first use
        and kept: per level n >= 1 its boundary index (`_boundary_index`);
        per degeneracy table (n, i) the one-bit mask of the image of each
        position of X_n; and per level the one-bit mask of each position.
        Every one-bit mask of these tables and of `_lookahead` is taken from
        the last, so each simplex's bit is one int however many hold it.
        The boundary keys are built here and not kept, so a search that
        only counts keeps no position table."""
        pos = _level_positions(self)
        bits = tuple([1 << j for j in range(len(level))] for level in self.levels)
        index = (None,) + tuple(
            _boundary_index(_boundary_keys(self, n, pos[n - 1]), bits[n])
            for n in range(1, self.K + 1)
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
        pos = _level_positions(self)
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


def _same_truncation(X, Y):
    if X.K != Y.K:
        raise SimplicialError("source and target truncations differ")


class SimplicialMap:
    """Level-wise function commuting with all face and degeneracy tables.

    Every map is checked when it is built, the maps the search lists
    included: each component must be total on its level of the source, take
    values in the same level of the target, and commute with every face and
    degeneracy table of the source.  The first failure raises, in that order.
    A map built from components owns dicts copied from whatever mappings or
    (simplex, image) pairs the caller passes.  A listed map is held as
    positions: one flat tuple of positions in the target's levels, one per
    simplex of the source, level by level in levels order.  It is checked
    in that form, in a batch of listed maps, column by column
    (`_position_check`), and a batch that fails is checked again map by map
    with the constructor's messages.  Its `components` are built from its
    positions on first read, and are then its own dicts.
    """

    def __init__(self, source, target, components):
        _same_truncation(source, target)
        self.source = source
        self.target = target
        self.components = tuple(map(dict, components))
        if len(self.components) != source.K + 1:
            raise SimplicialError("one component per level required")
        self._check()

    @functools.cached_property
    def components(self):
        """Per level of the source, the dict of each simplex's image, built
        from a listed map's positions the first time it is read."""
        return tuple(map(dict, _image_pairs(self.source, self.target, self._positions)))

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
        return f"SimplicialMap(levels={self.source.K + 1})"

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


def _level_positions(Y):
    """Per level of Y, the position of each simplex."""
    return [{y: j for j, y in enumerate(level)} for level in Y.levels]


def _boundary_keys(Y, n, below):
    """The boundary key of each simplex y of Y.levels[n], in order: the tuple
    of the positions of d_0 y, ..., d_n y in Y.levels[n - 1] (`below`)."""
    tables = [Y.faces[(n, i)] for i in range(n + 1)]
    return [tuple(below[t[y]] for t in tables) for y in Y.levels[n]]


def _boundary_index(keys, bits):
    """A level bucketed by boundary: bit j of a key's mask is set iff the
    simplex at position j has that boundary key (`keys[j]`).  A bucket of
    one simplex holds its bit from `bits`, not a copy."""
    index = {}
    for key, bit in zip(keys, bits):
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


_BATCH = 256
"""The most heads `_assignments` hands on at once, and the most maps
`iter_simplicial_maps` checks at once.  Both work a batch at a time, one
column at a time, so that a lookup or a check is one pass over a column
instead of a Python loop per head or per map.  The bound is what keeps
`iter_simplicial_maps` lazy: the maps of one head are the product of its
top-level candidates, which can be too many to hold (2^20 maps from the
one, empty, head of a 20-element chain into two points at truncation 0),
and a caller may stop at the first map it wants."""


def _assignments(X, Y):
    """Every simplicial map X -> Y, in the bitmask form of `list_maps`, a
    batch of heads at a time: the simplices of X are the slots, level by
    level in X.levels order, and a slot at level n takes positions in
    Y.levels[n].  A head is an assignment of levels 0..K-1 that leaves every
    top-level slot a candidate; `depth_first` lists them in lexicographic
    order.  Yields pairs (heads, masks): at most `_BATCH` heads, each as its
    positions slot by slot, and per slot of level K the column of its masks,
    one per head, of the positions it may take.  The masks of one head are
    independent, since a top-level simplex is a face of nothing, so the
    maps with that head are their ordered product, and the maps come in
    lexicographic order too.

    A slot's mask is the AND of masks looked up by the images of slots
    before it:
    - its bucket in Y's boundary index, by the images of its faces (a
      vertex's bucket is every vertex of Y);
    - for each degeneracy s_i x' = x, the one bit of s_i of the image of
      x', so that images forced twice must agree;
    - for each simplex whose last face it is, the values that leave that
      simplex a non-empty bucket, by the images of its other faces.
    So a candidate with no completion is never tried, and the order of the
    maps found is unchanged.  The walk looks up a head slot's mask head by
    head; a top-level slot's masks are computed for the whole batch, one
    lookup at a time, each one `map` over the key column (the face
    columns zipped, or the column of the degeneracy's source), ANDed
    column-wise.  A head left an empty mask is dropped.

    Everything that depends on one side only is compiled once per set and
    kept on it: X's slot program (`_slot_program`, slot numbers only) and
    Y's tables (`_target_index`, and `_lookahead` per (n, at)).  A call only
    binds the two: it builds the per-slot lookups, each a table of Y and
    the slots whose images are its key, for this pair.
    """
    _same_truncation(X, Y)
    bounds, faces, splits, degenerate = X._slot_program
    index, degeneracy, _ = Y._target_index
    consts = [(1 << len(Y.levels[0])) - 1] * bounds[1] + [-1] * (bounds[-1] - bounds[1])
    lookups = [[] for _ in consts]
    for n in range(1, X.K + 1):
        for s in range(bounds[n], bounds[n + 1]):
            f, (at, rest) = faces[s], splits[s]
            lookups[s].append((index[n], f))
            check = Y._lookahead(n, at)
            if rest:
                lookups[f[at[0]]].append((check, tuple(f[i] for i in rest)))
            else:
                consts[f[at[0]]] &= check.get((), 0)
    for (n, i), images in degenerate:
        table = degeneracy[n, i]
        for xp, x in enumerate(images, bounds[n]):
            lookups[x].append((table, (xp,)))
    # a key is what `itemgetter` reads at its slots: one image bare, several
    # as a tuple, as the tables are keyed
    head = [
        (mask, [(table, itemgetter(*slots)) for table, slots in looks])
        for mask, looks in zip(consts[: bounds[-2]], lookups)
    ]
    top = [
        (mask, [(table.get, _key_column(slots)) for table, slots in looks])
        for mask, looks in zip(consts[bounds[-2] :], lookups[bounds[-2] :])
    ]

    def options(s, values):
        mask, looks = head[s]
        for table, get in looks:
            mask &= table.get(get(values), 0)
        return set_bits(mask)

    for heads in _batches(depth_first(bounds[-2], options)):
        columns = list(zip(*heads))
        masks = []
        # every top-level slot above level 0 has its bucket lookup, and its
        # constant mask there is -1
        for mask, looks in top:
            column = None if mask == -1 else itertools.repeat(mask, len(heads))
            for get, keys in looks:
                found = map(get, keys(columns), itertools.repeat(0))
                column = found if column is None else map(and_, column, found)
            masks.append(list(column))
        if any(0 in column for column in masks):
            live = list(map(all, zip(*masks)))
            heads = list(itertools.compress(heads, live))
            masks = [list(itertools.compress(column, live)) for column in masks]
        if heads:
            yield heads, masks


def _key_column(slots):
    """The column of the keys at `slots`, read from the columns of a batch
    of heads: the one column bare, several zipped into tuples."""
    get = itemgetter(*slots)
    return get if len(slots) == 1 else lambda columns: zip(*get(columns))


def _batches(items):
    """The items in lists of at most `_BATCH`, in order, taken lazily."""
    items = iter(items)
    return iter(lambda: list(itertools.islice(items, _BATCH)), [])


def _position_check(X, Y):
    """The check of a batch of maps X -> Y, each held as one flat tuple p
    of positions in Y's levels, one per slot of X's `_slot_program`: a
    function of the batch that returns its maps, held as positions, or
    raises at the first that fails.  It checks what the `SimplicialMap`
    constructor checks against Y's position tables, a column of the batch
    at a time: the length of every p first, as turning the batch into one
    column per slot would cut longer tuples short; each slot's range, one
    subset test; each slot x above level 0 in one pass, the columns of the
    slots of d_0 x, ..., d_n x zipped into the boundary keys that the
    images of x must have; and each degeneracy table (n, i) in one pass,
    the columns of the slots of s_i x chained against s_i of the columns of
    x.  The passes run `eq` over iterators.  A batch that fails any test is
    checked again map by map by `_checked`, lazily, so the maps before the
    first that fails come out and that one raises the constructor's
    message: the first failure in the order the constructor checks."""
    _same_truncation(X, Y)
    bounds, faces, _, degenerate = X._slot_program
    spans, keys, images = Y._position_tables
    size, new, chain = bounds[-1], SimplicialMap.__new__, itertools.chain.from_iterable
    ranges = [span.issuperset for span, a, b in zip(spans, bounds, bounds[1:]) for _ in range(a, b)]
    face_slots = [
        (itemgetter(*faces[s]), keys[n].__getitem__, s)
        for n in range(1, X.K + 1)
        for s in range(bounds[n], bounds[n + 1])
    ]
    degeneracies = [
        (slots, images[n, i].__getitem__, bounds[n], bounds[n + 1])
        for (n, i), slots in degenerate
    ]

    def passes(batch):
        if not all(map(size.__eq__, map(len, batch))):
            return False
        columns = list(zip(*batch))
        return (
            all(within(column) for within, column in zip(ranges, columns))
            and all(
                all(map(eq, zip(*boundary(columns)), map(key, columns[s])))
                for boundary, key, s in face_slots
            )
            and all(
                all(map(eq, chain(map(columns.__getitem__, slots)), map(image, chain(columns[a:b]))))
                for slots, image, a, b in degeneracies
            )
        )

    def check(batch):
        if not passes(batch):
            return map(functools.partial(_checked, X, Y), batch)
        maps = []
        for p in batch:
            m = new(SimplicialMap)
            m.source, m.target, m._positions = X, Y, p
            maps.append(m)
        return maps

    return check


def _checked(X, Y, p):
    """The map X -> Y with the positions p, built by the `SimplicialMap`
    constructor, which raises what fails; positions too few, too many or
    outside a level raise here, level by level, as the constructor would."""
    bounds, spans = X._slot_program[0], Y._position_tables[0]
    for n, span in enumerate(spans):
        if len(p) < bounds[n + 1] or n == X.K and len(p) > bounds[-1]:
            raise SimplicialError(f"component at level {n} is not total")
        if not span.issuperset(p[bounds[n] : bounds[n + 1]]):
            raise SimplicialError(f"component at level {n} maps outside the target")
    return SimplicialMap(X, Y, _image_pairs(X, Y, p))


def _image_pairs(X, Y, p):
    """Per level of X, the (simplex, image) pairs of the positions p."""
    bounds = X._slot_program[0]
    return [
        zip(level, map(images.__getitem__, p[a:b]))
        for level, images, a, b in zip(X.levels, Y.levels, bounds, bounds[1:])
    ]


def _listed(batch):
    """The position tuples of the maps with the heads of one batch of
    `_assignments`, in order: each head followed by each tuple of the
    ordered product of its top-level masks' set bits."""
    heads, masks = batch
    if masks:
        tails = map(itertools.product, *[map(set_bits, column) for column in masks])
    else:  # X is empty: one empty head, one empty map
        tails = itertools.repeat(((),), len(heads))
    return itertools.chain.from_iterable(
        map(map, itertools.repeat(tuple.__add__), map(itertools.repeat, heads), tails)
    )


def iter_simplicial_maps(X, Y):
    """The simplicial maps X -> Y one at a time, in lexicographic order of
    their images over the simplices of X (level by level, X.levels order).

    `_assignments` walks levels 0..K-1 of X with `_kernels.depth_first`,
    each simplex taking its candidates from bitmasks over a boundary index
    of Y that Y compiles once and keeps, and hands on the heads a batch at
    a time with the masks of the top-level simplices; the maps with one
    head are the ordered product of those masks' set bits.  Each map stays
    in that position form: the head's positions followed by the top
    level's, one flat tuple.  The tuples are validated `_BATCH` at a time,
    column by column (`_position_check`): each is total, stays in Y and
    commutes with every face and degeneracy table.  A map's components are
    built on first read, and every map owns its own.  At most one batch of
    heads and one batch of maps is held at a time, so a caller that stops
    early pays for at most one batch past the map it stopped at.
    """
    check = _position_check(X, Y)
    for batch in _batches(itertools.chain.from_iterable(map(_listed, _assignments(X, Y)))):
        yield from check(batch)


def simplicial_maps(X, Y):
    """All simplicial maps X -> Y as a list of validated `SimplicialMap`s, in
    the order of `iter_simplicial_maps`."""
    return list(iter_simplicial_maps(X, Y))


def count_simplicial_maps(X, Y):
    """The number of simplicial maps X -> Y: the batches of heads that
    `iter_simplicial_maps` reads, each head adding the product of its
    top-level masks' popcounts, taken column by column, so no top-level
    simplex is enumerated and no dict or map is built."""
    total = 0
    for heads, masks in _assignments(X, Y):
        counts = itertools.repeat(1, len(heads))
        for column in masks:
            counts = map(mul, counts, map(int.bit_count, column))
        total += sum(counts)
    return total
