"""Truncated simplicial sets, the nerve of a poset, and simplicial map search."""

from __future__ import annotations

from dataclasses import dataclass

from .delta import DeltaMap, factorize
from .posets import MonotoneMap, chains


class SimplicialError(Exception):
    pass


@dataclass(frozen=True)
class IdentityViolation:
    family: str
    level: int
    i: int
    j: int
    simplex: object

    def __str__(self):
        spot = f"level {self.level}, simplex {simplex_label(self.simplex)}"
        return f"{self.family} fails at {spot} (i={self.i}, j={self.j})"


class SimplicialIdentityError(SimplicialError):
    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(head + more)


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

    def _check_structure(self):
        for n, level in enumerate(self.levels):
            if len(set(level)) != len(level):
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
        dom = set(self.levels[n_from])
        cod = set(self.levels[n_to])
        if set(table) != dom:
            raise SimplicialError(f"{what} at level {n_from} is not total on X_{n_from}")
        for value in table.values():
            if value not in cod:
                raise SimplicialError(f"{what} at level {n_from} maps outside X_{n_to}")

    def level(self, n):
        if not 0 <= n <= self.K:
            raise SimplicialError(f"level {n} outside truncation {self.K}")
        return self.levels[n]

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def deg(self, n, i, x):
        return self.degeneracies[(n, i)][x]

    def identity_violations(self):
        """Instances of the dual simplicial identities that fail, if any."""
        out = []
        for m in range(2, self.K + 1):
            for j in range(1, m + 1):
                for i in range(j):
                    fam = 'd_i d_j = d_{j-1} d_i (dual of "delta_j delta_i = delta_i delta_{j-1}")'
                    for x in self.levels[m]:
                        lhs = self.face(m - 1, i, self.face(m, j, x))
                        rhs = self.face(m - 1, j - 1, self.face(m, i, x))
                        if lhs != rhs:
                            out.append(IdentityViolation(fam, m, i, j, x))
        for m in range(0, self.K - 1):
            for j in range(m + 1):
                for i in range(j + 1):
                    fam = 's_i s_j = s_{j+1} s_i (dual of "sigma_j sigma_i = sigma_i sigma_{j+1}")'
                    for x in self.levels[m]:
                        lhs = self.deg(m + 1, i, self.deg(m, j, x))
                        rhs = self.deg(m + 1, j + 1, self.deg(m, i, x))
                        if lhs != rhs:
                            out.append(IdentityViolation(fam, m, i, j, x))
        for m in range(0, self.K):
            for j in range(m + 1):
                for i in range(m + 2):
                    for x in self.levels[m]:
                        got = self.face(m + 1, i, self.deg(m, j, x))
                        if i == j or i == j + 1:
                            fam = 'd_i s_j = id (dual of "sigma_j delta_i = id")'
                            if got != x:
                                out.append(IdentityViolation(fam, m, i, j, x))
                        elif i < j:
                            fam = 'd_i s_j = s_{j-1} d_i (dual of "sigma_j delta_i = delta_i sigma_{j-1}")'
                            rhs = self.deg(m - 1, j - 1, self.face(m, i, x))
                            if got != rhs:
                                out.append(IdentityViolation(fam, m, i, j, x))
                        else:
                            fam = 'd_i s_j = s_j d_{i-1} (dual of "sigma_j delta_i = delta_{i-1} sigma_j")'
                            rhs = self.deg(m - 1, j, self.face(m, i - 1, x))
                            if got != rhs:
                                out.append(IdentityViolation(fam, m, i, j, x))
        return out

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


def nerve(poset, K) -> TruncatedSimplicialSet:
    """Nerve truncated at K: level n holds the weakly increasing (n+1)-tuples,
    d_i deletes position i and s_i duplicates it."""
    if K < 0:
        raise SimplicialError("truncation level must be >= 0")
    levels = [tuple(chains(poset, n)) for n in range(K + 1)]
    faces = {}
    degeneracies = {}
    for n in range(1, K + 1):
        for i in range(n + 1):
            faces[(n, i)] = {t: t[:i] + t[i + 1 :] for t in levels[n]}
    for n in range(K):
        for i in range(n + 1):
            degeneracies[(n, i)] = {t: t[: i + 1] + t[i:] for t in levels[n]}
    return TruncatedSimplicialSet(
        levels, faces, degeneracies, name=f"N({poset.name})" if poset.name else "", validate=False
    )


def evaluate(X, f: DeltaMap):
    """The presheaf action X(f) : X_{target} -> X_{source} as a dict,
    computed through the generator normal form of f."""
    if f.source > X.K or f.target > X.K:
        raise SimplicialError(
            f"map [{f.source}]->[{f.target}] exceeds truncation {X.K}"
        )
    refs = factorize(f).refs()
    action = {"face": X.face, "degeneracy": X.deg}
    out = {}
    for x in X.levels[f.target]:
        y = x
        for kind, n, i in refs:  # contravariant: the leftmost generator acts first
            y = action[kind](n, i, y)
        out[x] = y
    return out


class SimplicialMap:
    """Level-wise function commuting with all face and degeneracy tables."""

    def __init__(self, source, target, components, validate=True):
        if source.K != target.K:
            raise SimplicialError("source and target truncations differ")
        self.source = source
        self.target = target
        self.components = tuple(dict(c) for c in components)
        if len(self.components) != source.K + 1:
            raise SimplicialError("one component per level required")
        if validate:
            self._check()

    def _check(self):
        for n in range(self.source.K + 1):
            comp = self.components[n]
            dom = set(self.source.levels[n])
            if set(comp) != dom:
                raise SimplicialError(f"component at level {n} is not total")
            cod = set(self.target.levels[n])
            for v in comp.values():
                if v not in cod:
                    raise SimplicialError(f"component at level {n} maps outside the target")
        for (n, i), table in self.source.faces.items():
            for x, y in table.items():
                if self.components[n - 1][y] != self.target.faces[(n, i)][self.components[n][x]]:
                    raise SimplicialError(f"does not commute with d_{i} at level {n}")
        for (n, i), table in self.source.degeneracies.items():
            for x, y in table.items():
                if self.components[n + 1][y] != self.target.degeneracies[(n, i)][self.components[n][x]]:
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


def _boundary_index(Y, n):
    """Level n of Y bucketed by boundary (d_0 y, ..., d_n y), each bucket in
    Y.levels[n] order."""
    tables = [Y.faces[(n, i)] for i in range(n + 1)]
    index = {}
    for y in Y.levels[n]:
        index.setdefault(tuple(t[y] for t in tables), []).append(y)
    return index


def _assignments(X, Y):
    """Every simplicial map X -> Y as its list of per-level dicts, in the
    lexicographic order of the slots (level by level, X.levels order) over the
    candidates (Y.levels order).

    The walk keeps its slots on an explicit stack, so its depth is not bound
    by the recursion limit. A level-0 slot may take any vertex of Y. A slot x
    at level n >= 1 looks up the one bucket of Y's boundary index matching the
    images of its faces; a degenerate x, whose image the degeneracy tables fix
    from level n - 1, keeps that image only if it lies in the bucket. Once the
    last face of a simplex is assigned, the walk backs off if that simplex's
    bucket is empty: no completion could fill it, so the order of the maps
    found is unchanged. The yielded dicts are the walker's own state: copy
    them before the next step.
    """
    if X.K != Y.K:
        raise SimplicialError("source and target truncations differ")
    K = X.K
    comps = [dict() for _ in range(K + 1)]
    index = [None] + [_boundary_index(Y, n) for n in range(1, K + 1)]
    # one slot per simplex of X, level by level: (level, simplex, its faces)
    slots = [(0, x, ()) for x in X.levels[0]]
    for n in range(1, K + 1):
        tables = [X.faces[(n, i)] for i in range(n + 1)]
        slots.extend((n, x, tuple(t[x] for t in tables)) for x in X.levels[n])
    if not slots:
        yield comps
        return
    # lookahead: each simplex's bucket is checked at the slot of its last face
    slot_of = {(n, x): s for s, (n, x, _) in enumerate(slots)}
    ahead = [[] for _ in slots]
    for n, x, faces in slots:
        if n:
            ahead[max(slot_of[n - 1, f] for f in faces)].append((index[n], faces))
    forced = [None] * (K + 1)

    def forced_at(n):
        """Images the degeneracies fix at level n, or None when they clash."""
        out = {}
        below = comps[n - 1]
        for i in range(n):
            tgt_tab = Y.degeneracies[(n - 1, i)]
            for xp, x in X.degeneracies[(n - 1, i)].items():
                want = tgt_tab[below[xp]]
                if out.setdefault(x, want) != want:
                    return None
        return out

    def options(s):
        n, x, faces = slots[s]
        if n == 0:
            return Y.levels[0]
        if slots[s - 1][0] != n:
            forced[n] = forced_at(n)
        if forced[n] is None:
            return ()
        below = comps[n - 1]
        bucket = index[n].get(tuple(map(below.__getitem__, faces)), ())
        if x in forced[n]:
            y = forced[n][x]
            return (y,) if y in bucket else ()
        return bucket

    last = len(slots) - 1
    opts = [()] * len(slots)
    pos = [0] * len(slots)
    s = 0
    opts[0] = options(0)
    while s >= 0:
        k = pos[s]
        if k == len(opts[s]):
            s -= 1
            continue
        pos[s] = k + 1
        n, x, _ = slots[s]
        comp = comps[n]
        comp[x] = opts[s][k]
        checks = ahead[s]
        if checks and any(tuple(map(comp.__getitem__, faces)) not in up for up, faces in checks):
            continue
        if s == last:
            yield comps
            continue
        s += 1
        opts[s] = options(s)
        pos[s] = 0


def iter_simplicial_maps(X, Y):
    """The simplicial maps X -> Y one at a time, in the walker's lexicographic
    order.

    Candidates come from a boundary index of Y built afresh for each call
    (one dict per level n >= 1 from (d_0 y, ..., d_n y) to the simplices y
    with that boundary), and the walk over the simplices of X runs on an
    explicit stack. Each assignment found is built as a validated
    `SimplicialMap`, which re-checks that it commutes with every face and
    degeneracy table. This is one of the walk's two consumers; the other,
    `count_simplicial_maps`, only counts.
    """
    for comps in _assignments(X, Y):
        yield SimplicialMap(X, Y, comps)


def simplicial_maps(X, Y):
    """All simplicial maps X -> Y as a list of validated `SimplicialMap`s, in
    the order of `iter_simplicial_maps`."""
    return list(iter_simplicial_maps(X, Y))


def count_simplicial_maps(X, Y):
    """The number of simplicial maps X -> Y: the walk of `iter_simplicial_maps`
    (boundary index, explicit stack), counted without building any map."""
    return sum(1 for _ in _assignments(X, Y))
