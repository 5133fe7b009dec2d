"""Finite partial orders, monotone maps, chains, linear extensions, retractions."""

from __future__ import annotations

from functools import cached_property

from . import _kernels


class PosetError(Exception):
    pass


class CycleError(PosetError):
    """Declared relations force x <= y <= x for distinct x, y."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        chain = " <= ".join(self.cycle + (self.cycle[0],))
        super().__init__(f"antisymmetry violation: {chain}")


class NotSplitMonoError(PosetError):
    pass


class FinPoset:
    """Finite poset: element identifiers plus the full <= relation as row bitmasks.

    up_rows[i] has bit j set iff elements[i] <= elements[j].  The relation is
    validated (reflexive, transitive, antisymmetric) on construction and the
    value is immutable afterwards; `name` is metadata and ignored by equality.
    """

    def __init__(self, elements, up_rows, name=""):
        self.elements = tuple(elements)
        self.up_rows = tuple(up_rows)
        self.name = name
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if len(self._index) != n:
            raise PosetError("duplicate element identifiers")
        if len(self.up_rows) != n:
            raise PosetError("relation table size mismatch")
        full = (1 << n) - 1
        for i, row in enumerate(self.up_rows):
            if row & ~full:
                raise PosetError("relation table out of range")
            if not row & (1 << i):
                raise PosetError(f"relation not reflexive at {self.elements[i]}")
        if not _is_partial_order(self.up_rows):
            raise _first_failure(self.elements, self.up_rows)

    @property
    def n(self):
        return len(self.elements)

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self.elements == other.elements and self.up_rows == other.up_rows

    def __hash__(self):
        return hash((self.elements, self.up_rows))

    def __repr__(self):
        shown = self.name or ",".join(self.elements)
        return f"FinPoset({shown!r}, n={self.n})"

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"unknown element {x!r}") from None

    def leq(self, x, y):
        return bool(self.up_rows[self.index(x)] & (1 << self.index(y)))

    @cached_property
    def down_rows(self):
        return tuple(_kernels.transpose(self.up_rows, self.n))

    @cached_property
    def leq_pairs(self):
        """Index pairs (i, j) with i <= j and i != j."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.up_rows[i] & (1 << j)
        )

    @cached_property
    def cover_pairs(self):
        """Hasse diagram edges: (i, j) with j covering i, in index order.  The
        strict up-set of i is walked from its least index: j covers i when
        nothing else of it lies below j, and what lies above j is skipped, as
        it covers nothing; a chain costs one step per element, not per pair."""
        out = []
        for i, row in enumerate(self.up_rows):
            up = todo = row & ~(1 << i)
            while todo:
                low = todo & -todo
                j = low.bit_length() - 1
                if self.down_rows[j] & up == low:
                    out.append((i, j))
                todo &= ~self.up_rows[j]
        return tuple(out)

    @cached_property
    def count_plan(self):
        """The kernels' plan for counting monotone maps out of this poset
        (`_kernels.count_plan` over `cover_pairs`), built once per poset
        object and read by `count_monotone_maps` for every target."""
        return _kernels.count_plan(self.n, self.cover_pairs)

    @cached_property
    def is_total(self):
        return all(
            self.up_rows[i] & (1 << j) or self.up_rows[j] & (1 << i)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    @cached_property
    def height(self):
        """Number of covers in a longest chain (0 for antichains and the empty poset)."""
        depth = [0] * self.n
        for i in self.toposort:
            for a, b in self.cover_pairs:
                if a == i:
                    depth[b] = max(depth[b], depth[i] + 1)
        return max(depth, default=0)

    @cached_property
    def toposort(self):
        """Element indices in an order compatible with <=."""
        order = sorted(range(self.n), key=lambda i: (self.down_rows[i].bit_count(), i))
        return tuple(order)

    def sorted_by_order(self):
        """Elements of a total order listed smallest first."""
        if not self.is_total:
            raise PosetError("poset is not totally ordered")
        return tuple(self.elements[i] for i in self.toposort)


def _is_partial_order(rows):
    """Whether reflexive row masks are transitive and antisymmetric.

    One OR of the rows under each row's set bits decides transitivity, and a
    transitive relation is antisymmetric iff its rows are distinct (i <= j <= i
    makes the two rows equal)."""
    for row in rows:
        under = 0
        m = row
        while m:
            b = m & -m
            under |= rows[b.bit_length() - 1]
            m ^= b
        if under != row:
            return False
    return len(set(rows)) == len(rows)


def _first_failure(elements, rows):
    """The error for the first pair (i, j), in row-major order with i <= j,
    where j <= i for j != i, or j's row is not inside i's; antisymmetry is
    named first on a tie."""
    for i, row in enumerate(rows):
        m = row
        while m:
            b = m & -m
            j = b.bit_length() - 1
            if j != i and rows[j] & (1 << i):
                return PosetError(f"relation not antisymmetric at {elements[i]}, {elements[j]}")
            if rows[j] & ~row:
                return PosetError("relation not transitive")
            m ^= b
    raise AssertionError("no failing pair in an invalid relation")


def make_poset(elements, pairs, name="") -> FinPoset:
    """Close declared pairs reflexively and transitively; fail on cycles.

    Elements are stored sorted lexicographically so output listings are
    deterministic regardless of input order.
    """
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise PosetError("duplicate element identifiers")
    n = len(elements)
    rows = [0] * n
    declared = []
    for x, y in pairs:
        if x not in index or y not in index:
            missing = x if x not in index else y
            raise PosetError(f"pair mentions unknown element {missing!r}")
        rows[index[x]] |= 1 << index[y]
        declared.append((index[x], index[y]))
    closed = _kernels.transitive_closure(rows)
    for cls in _kernels.condense(closed):
        if len(cls) > 1:
            raise CycleError(_find_cycle(elements, declared, cls[0], cls[1]))
    return FinPoset(elements, closed, name=name)


def _find_cycle(elements, declared, i, j):
    """One offending cycle i -> ... -> j -> ... -> i along declared pairs."""
    adj = {}
    for a, b in declared:
        adj.setdefault(a, []).append(b)

    def path(src, dst):
        prev = {src: None}
        queue = [src]
        while queue:
            u = queue.pop(0)
            if u == dst:
                out = []
                while u is not None:
                    out.append(u)
                    u = prev[u]
                return out[::-1]
            for v in sorted(adj.get(u, ())):
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        return None

    there = path(i, j)
    back = path(j, i)
    cycle = there + back[1:-1]
    return tuple(elements[k] for k in cycle)


class MonotoneMap:
    """Order-preserving function between finite posets.

    values[i] names the image of source.elements[i]; monotonicity is checked
    on construction.
    """

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.values = tuple(values)
        if len(self.values) != source.n:
            raise PosetError("value table does not cover the source")
        self._tgt_idx = tuple(target.index(v) for v in self.values)
        for i, j in source.leq_pairs:
            if not target.up_rows[self._tgt_idx[i]] & (1 << self._tgt_idx[j]):
                raise PosetError(
                    f"not monotone: {source.elements[i]} <= {source.elements[j]} "
                    f"but {self.values[i]} !<= {self.values[j]}"
                )

    @classmethod
    def from_dict(cls, source, target, mapping):
        return cls(source, target, tuple(mapping[e] for e in source.elements))

    @classmethod
    def identity(cls, poset):
        return cls(poset, poset, poset.elements)

    def __call__(self, x):
        return self.values[self.source.index(x)]

    def __eq__(self, other):
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in zip(self.source.elements, self.values))
        return f"MonotoneMap({body})"

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise PosetError("composition endpoint mismatch")
        return MonotoneMap(other.source, self.target, tuple(self(v) for v in other.values))

    @cached_property
    def is_injective(self):
        return len(set(self.values)) == len(self.values)

    @cached_property
    def is_surjective(self):
        return len(set(self.values)) == self.target.n

    def is_order_isomorphism(self):
        if not (self.is_injective and self.is_surjective):
            return False
        inv = {y: x for x, y in zip(self.source.elements, self.values)}
        try:
            MonotoneMap.from_dict(self.target, self.source, inv)
        except PosetError:
            return False
        return True

    def inverse(self):
        if not self.is_order_isomorphism():
            raise PosetError("map is not an order isomorphism")
        inv = {y: x for x, y in zip(self.source.elements, self.values)}
        return MonotoneMap.from_dict(self.target, self.source, inv)


def chain_levels(poset, K, strict=False):
    """Levels 0..K of the weakly (or strictly) increasing tuples: level n
    holds the (n+1)-tuples, in lexicographic order of the element names."""
    if K < 0:
        raise PosetError("chain length must be >= 0")
    elements = poset.elements
    order = sorted(range(poset.n), key=elements.__getitem__)
    rank = [0] * poset.n
    for r, i in enumerate(order):
        rank[i] = r
    above = {}
    for i in order:
        m = poset.up_rows[i]
        if strict:
            m &= ~(1 << i)
        js = []
        while m:  # the elements above i, read off the set bits of its up-row
            low = m & -m
            js.append(low.bit_length() - 1)
            m ^= low
        js.sort(key=rank.__getitem__)
        above[elements[i]] = [elements[j] for j in js]
    return _kernels.chain_levels(above, K)


def chain_counts(poset, K, strict=False):
    """The number of weakly (or strictly) increasing (n+1)-tuples for
    n = 0..K in turn, lazily: 1^T Z^n 1 for the zeta matrix Z, the size of
    level n of the nerve, or 1^T (Z - I)^n 1 (Stanley, Enumerative
    Combinatorics I, 3.12).  Each level is one pass of the last one's
    per-element end counts over the up-rows."""
    rows = poset.up_rows
    if strict:
        rows = [row & ~(1 << i) for i, row in enumerate(rows)]
    ends = [1] * poset.n
    yield sum(ends)
    for _ in range(K):
        grown = [0] * poset.n
        for i, row in enumerate(rows):
            m = row
            while m:
                b = m & -m
                grown[b.bit_length() - 1] += ends[i]
                m ^= b
        ends = grown
        yield sum(ends)


def monotone_maps(source, target):
    """All monotone maps source -> target, deterministically ordered."""
    tables = _kernels.list_maps(source.n, target.up_rows, target.down_rows, source.cover_pairs)
    return [
        MonotoneMap(source, target, tuple(target.elements[v] for v in t)) for t in tables
    ]


def count_monotone_maps(source, target):
    """The number of monotone maps source -> target, by source's cached `count_plan`."""
    union = _kernels.DisjointUnion([(target.up_rows, target.down_rows, None)])
    return _kernels.run_plan(source.count_plan, union)[0]


def linear_extension_orders(poset):
    """Every total order containing the poset, lazily, as the tuple of its
    element indices from the bottom up, in lexicographic order: each place
    takes the unplaced elements with nothing unplaced below them.  Each depth
    keeps its unplaced mask and these candidates: placing v drops v and adds
    those upper covers of v with nothing unplaced below them, the only
    elements that placing v can free."""
    n = poset.n
    below = [poset.down_rows[i] & ~(1 << i) for i in range(n)]
    covers = [[] for _ in range(n)]
    for i, j in poset.cover_pairs:
        covers[i].append(j)
    free = [(1 << n) - 1] + [0] * n
    candidates = [[i for i in range(n) if not below[i]]] + [None] * n

    def options(k, seq):
        if k:  # depth k - 1 was last asked for at this prefix (`depth_first`)
            v = seq[k - 1]
            left = free[k] = free[k - 1] ^ (1 << v)
            joined = [u for u in covers[v] if not below[u] & left]
            candidates[k] = sorted([u for u in candidates[k - 1] if u != v] + joined)
        return candidates[k]

    return _kernels.depth_first(n, options)


def linear_extensions(poset):
    """Every total order containing the poset, as FinPosets on the same
    elements, in the order of `linear_extension_orders`."""
    return [chain_poset([poset.elements[i] for i in seq]) for seq in linear_extension_orders(poset)]


def meet_of_extensions(poset, exts):
    """Pointwise conjunction of `exts`, the poset's listed linear extensions
    (at least one), as a relation on the poset."""
    rows = _kernels.meet_rows([ext.up_rows for ext in exts], [exts[0].index(e) for e in poset.elements])
    return FinPoset(poset.elements, rows, name=poset.name)


def intersection_of_extensions(poset):
    """Pointwise conjunction of all linear extensions, as a relation on the poset."""
    return meet_of_extensions(poset, linear_extensions(poset))


def split_retraction(f: MonotoneMap) -> MonotoneMap:
    """Left inverse of an injective monotone map between finite total orders.

    g sends t to the largest source element whose image is <= t, bottoming out
    at the least element; g(f(x)) = x.
    """
    src, tgt = f.source, f.target
    if src.n == 0:
        raise NotSplitMonoError("source must be non-empty")
    if not (src.is_total and tgt.is_total):
        raise NotSplitMonoError("source and target must be totally ordered")
    if not f.is_injective:
        raise NotSplitMonoError("map is not injective")
    xs = src.sorted_by_order()
    g = {}
    for t in tgt.elements:
        below = [x for x in xs if tgt.leq(f(x), t)]
        g[t] = below[-1] if below else xs[0]
    return MonotoneMap.from_dict(tgt, src, g)


def signatures(poset, table):
    """Isomorphism-invariant colour of each element, as a small int: its down-
    and up-set sizes, refined three times by the colours below and above it.

    Each round interns the triple (own colour, sorted colours below, sorted
    colours above) in `table`, a dict from key to colour that grows by one
    entry, numbered len(table), per new key.  Colours are comparable exactly
    between posets coloured through the same table; there, two elements get
    equal colours iff their nested (own, below, above) values are equal, and
    `colour_ranks` orders those values."""
    below = [_kernels.set_bits(row & ~(1 << i)) for i, row in enumerate(poset.down_rows)]
    above = [_kernels.set_bits(row & ~(1 << i)) for i, row in enumerate(poset.up_rows)]
    colour = [table.setdefault((len(b) + 1, len(a) + 1), len(table)) for b, a in zip(below, above)]
    for _ in range(3):
        get = colour.__getitem__
        colour = [
            table.setdefault(
                (own, tuple(sorted(map(get, b))), tuple(sorted(map(get, a)))),
                len(table),
            )
            for own, b, a in zip(colour, below, above)
        ]
    return colour


def colour_ranks(table):
    """Rank of each colour of a `signatures` table within its round, listed
    by colour.  Ranks order each round's colours as Python orders their
    nested values: (down size, up size) for the first round's colours, and
    (own, sorted below, sorted above) for the later ones.

    A key's colours are numbered before the key and lie one round below it,
    so the rounds are ranked in turn: the first by its keys, each later one
    by (rank of own, sorted ranks below, sorted ranks above).  Within a
    round, distinct colours stand for distinct values, so comparing those
    rank triples compares the values."""
    keys = list(table)
    depth = []
    rounds = {}  # in round order, as each round's first colour follows one below
    for c, key in enumerate(keys):
        depth.append(0 if len(key) == 2 else depth[key[0]] + 1)
        rounds.setdefault(depth[c], []).append(c)
    rank = [0] * len(keys)
    get = rank.__getitem__

    def ranked(c):
        if len(keys[c]) == 2:
            return keys[c]
        own, down, up = keys[c]
        return (rank[own], sorted(map(get, down)), sorted(map(get, up)))

    for colours in rounds.values():
        for k, c in enumerate(sorted(colours, key=ranked)):
            rank[c] = k
    return rank


def coloured_isomorphisms(p, q, sp, sq):
    """Order isomorphisms p -> q, lazily, by colour-pruned backtracking, each as
    the tuple of target indices of p's elements: sp and sq are the `signatures`
    of p and q from one table.  Elements are placed fewest same-colour
    candidates first, and a candidate is kept when it is unused and relates to
    the images of the placed elements as the element does to them."""
    n = p.n
    if n != q.n or sorted(sp) != sorted(sq):
        return
    cands = [[j for j in range(n) if sq[j] == sp[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    place = sorted(range(n), key=order.__getitem__)  # the depth at which each element is placed

    def options(k, images):
        i = order[k]
        used = up = down = 0
        for i2, j2 in zip(order[:k], images):
            bit = 1 << j2
            used |= bit
            if p.up_rows[i] >> i2 & 1:
                up |= bit
            if p.down_rows[i] >> i2 & 1:
                down |= bit
        return [
            j
            for j in cands[i]
            if not used >> j & 1 and q.up_rows[j] & used == up and q.down_rows[j] & used == down
        ]

    for images in _kernels.depth_first(n, options):
        yield tuple(map(images.__getitem__, place))


def _isomorphism_search(p, q):
    """`coloured_isomorphisms` with both posets coloured through one table, as
    `MonotoneMap`s."""
    table = {}
    for assign in coloured_isomorphisms(p, q, signatures(p, table), signatures(q, table)):
        yield MonotoneMap(p, q, tuple(q.elements[a] for a in assign))


def isomorphisms(p, q):
    """All order isomorphisms p -> q, by colour-pruned backtracking."""
    return list(_isomorphism_search(p, q))


def find_isomorphism(p, q):
    """First order isomorphism p -> q in canonical search order, or None."""
    return next(_isomorphism_search(p, q), None)


def chain_poset(elements_in_order, name=""):
    """Total order with the given elements listed smallest first."""
    seq = list(elements_in_order)
    index = {e: i for i, e in enumerate(seq)}
    if len(index) != len(seq):
        raise PosetError("duplicate element identifiers")
    stored = sorted(seq)
    rows = []
    for e in stored:
        mask = 0
        for k, f in enumerate(stored):
            if index[e] <= index[f]:
                mask |= 1 << k
        rows.append(mask)
    return FinPoset(stored, rows, name=name)


def ordinal_poset(n):
    """The chain 0 < 1 < ... < n as a poset named [n]."""
    if n < 0:
        raise PosetError("ordinal must be >= 0")
    elems = [str(i) for i in range(n + 1)]
    rows = []
    for i in range(n + 1):
        mask = 0
        for j in range(n + 1):
            if i <= j:
                mask |= 1 << j
        rows.append(mask)
    return FinPoset(elems, rows, name=f"[{n}]")


def antichain_poset(elements, name=""):
    elems = sorted(elements)
    return FinPoset(elems, [1 << i for i in range(len(elems))], name=name)


def product_poset(p, q, name=""):
    """Componentwise order on pairs; element names are 'x,y'."""
    elems = []
    rows = []
    pairs = [(x, y) for x in p.elements for y in q.elements]
    pairs.sort(key=lambda t: f"{t[0]},{t[1]}")
    for x, y in pairs:
        elems.append(f"{x},{y}")
    for x, y in pairs:
        mask = 0
        for k, (x2, y2) in enumerate(pairs):
            if p.leq(x, x2) and q.leq(y, y2):
                mask |= 1 << k
        rows.append(mask)
    return FinPoset(elems, rows, name=name or f"{p.name}x{q.name}")
