"""Skeletal simplex category: finite ordinals, monotone maps, generator calculus.

The object [n] is the chain {0,...,n}; maps are stored as value tables.  Words
of face/degeneracy generators are a derived view with a fixed normal form:
degeneracies (strictly increasing indices, largest applied first) followed by
faces (strictly increasing indices, smallest applied first).
"""

from __future__ import annotations

from .posets import MonotoneMap, ordinal_poset


class DeltaError(Exception):
    pass


class Frozen:
    """Base of the immutable value records: `==` and `hash` go by the
    fields, in the order `__init__` stores them, and assigning or deleting an
    attribute raises AttributeError.  A subclass's `__init__` stores its
    fields once, through `self.__dict__`."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DeltaMap(Frozen):
    def __init__(self, source: int, target: int, values: tuple):
        if source < 0 or target < 0:
            raise DeltaError("ordinals must be non-negative")
        if len(values) != source + 1:
            raise DeltaError("value table does not cover the source ordinal")
        for v in values:
            if not 0 <= v <= target:
                raise DeltaError(f"value {v} outside [{target}]")
        for a, b in zip(values, values[1:]):
            if a > b:
                raise DeltaError("value table is not weakly increasing")
        self.__dict__.update(source=source, target=target, values=values)

    def __call__(self, j):
        return self.values[j]


def identity_delta(n) -> DeltaMap:
    return DeltaMap(n, n, tuple(range(n + 1)))


def face(n, i) -> DeltaMap:
    """delta_i : [n-1] -> [n], skipping i."""
    if n < 1 or not 0 <= i <= n:
        raise DeltaError(f"no face map delta_{i} into [{n}]")
    return DeltaMap(n - 1, n, tuple(j if j < i else j + 1 for j in range(n)))


def degeneracy(n, i) -> DeltaMap:
    """sigma_i : [n+1] -> [n], duplicating i."""
    if n < 0 or not 0 <= i <= n:
        raise DeltaError(f"no degeneracy map sigma_{i} onto [{n}]")
    return DeltaMap(n + 1, n, tuple(j if j <= i else j - 1 for j in range(n + 2)))


def generator(kind, n, i) -> DeltaMap:
    if kind == "face":
        return face(n, i)
    if kind == "degeneracy":
        return degeneracy(n, i)
    raise DeltaError(f"unknown generator kind {kind!r}")


def compose(g: DeltaMap, f: DeltaMap) -> DeltaMap:
    """g after f."""
    if f.target != g.source:
        raise DeltaError(
            f"cannot compose [{f.source}]->[{f.target}] with [{g.source}]->[{g.target}]"
        )
    return DeltaMap(f.source, g.target, tuple(g.values[v] for v in f.values))


class GeneratorWord(Frozen):
    """Normal form of a map out of [source]: degeneracies then faces."""

    def __init__(self, source: int, faces: tuple, degeneracies: tuple):
        for seq in (faces, degeneracies):
            for a, b in zip(seq, seq[1:]):
                if a >= b:
                    raise DeltaError("word indices must be strictly increasing")
        self.__dict__.update(source=source, faces=faces, degeneracies=degeneracies)

    @property
    def target(self):
        return self.source - len(self.degeneracies) + len(self.faces)

    def refs(self):
        """Generator references ((kind, ordinal, index), ...) composed left
        after right, in the convention of `identity_instances`."""
        out = []
        level = self.source
        for j in reversed(self.degeneracies):
            level -= 1
            out.append(("degeneracy", level, j))
        for i in self.faces:
            level += 1
            out.append(("face", level, i))
        return tuple(reversed(out))

    def evaluate(self) -> DeltaMap:
        return _evaluate_refs(self.refs(), self.source)


def factorize(f: DeltaMap) -> GeneratorWord:
    """Epi-mono normal form: degeneracy indices are the repeated positions of f,
    face indices the values f misses."""
    degeneracies = tuple(
        j for j in range(f.source) if f.values[j] == f.values[j + 1]
    )
    hit = set(f.values)
    faces = tuple(i for i in range(f.target + 1) if i not in hit)
    return GeneratorWord(f.source, faces, degeneracies)


def identity_instances(max_n):
    """All instances of the five simplicial identities whose ordinals stay <= [max_n].

    Yields (family, n, i, j, lhs, rhs) where lhs/rhs are generator-reference
    sequences ((kind, ordinal, index), ...) composed left after right.
    """
    if max_n < 1:
        raise DeltaError("max_n must be >= 1")
    for n in range(0, max_n - 1):
        # delta_j delta_i = delta_i delta_{j-1}  (i < j), maps [n] -> [n+2]
        for j in range(0, n + 3):
            for i in range(0, min(j, n + 2)):
                yield (
                    "delta_j delta_i = delta_i delta_{j-1} (i < j)",
                    n,
                    i,
                    j,
                    (("face", n + 2, j), ("face", n + 1, i)),
                    (("face", n + 2, i), ("face", n + 1, j - 1)),
                )
    for n in range(0, max_n - 1):
        # sigma_j sigma_i = sigma_i sigma_{j+1}  (i <= j), maps [n+2] -> [n]
        for j in range(0, n + 1):
            for i in range(0, j + 1):
                yield (
                    "sigma_j sigma_i = sigma_i sigma_{j+1} (i <= j)",
                    n,
                    i,
                    j,
                    (("degeneracy", n, j), ("degeneracy", n + 1, i)),
                    (("degeneracy", n, i), ("degeneracy", n + 1, j + 1)),
                )
    for n in range(1, max_n):
        # sigma_j delta_i = delta_i sigma_{j-1}  (i < j), maps [n] -> [n]
        for j in range(1, n + 1):
            for i in range(0, j):
                yield (
                    "sigma_j delta_i = delta_i sigma_{j-1} (i < j)",
                    n,
                    i,
                    j,
                    (("degeneracy", n, j), ("face", n + 1, i)),
                    (("face", n, i), ("degeneracy", n - 1, j - 1)),
                )
    for n in range(0, max_n):
        # sigma_j delta_i = id  (i = j or i = j + 1), maps [n] -> [n]
        for j in range(0, n + 1):
            for i in (j, j + 1):
                yield (
                    "sigma_j delta_i = id (i = j or i = j+1)",
                    n,
                    i,
                    j,
                    (("degeneracy", n, j), ("face", n + 1, i)),
                    (),
                )
    for n in range(1, max_n):
        # sigma_j delta_i = delta_{i-1} sigma_j  (i > j + 1), maps [n] -> [n]
        for j in range(0, n):
            for i in range(j + 2, n + 2):
                yield (
                    "sigma_j delta_i = delta_{i-1} sigma_j (i > j+1)",
                    n,
                    i,
                    j,
                    (("degeneracy", n, j), ("face", n + 1, i)),
                    (("face", n, i - 1), ("degeneracy", n - 1, j)),
                )


def instance_source(refs):
    """Source ordinal of a non-empty generator-reference composite."""
    return generator(*refs[-1]).source


def _evaluate_refs(refs, source):
    out = identity_delta(source)
    for kind, n, i in reversed(refs):
        out = compose(generator(kind, n, i), out)
    return out


class IdentityReport:
    def __init__(self, max_n: int, entries: list):
        self.max_n = max_n
        self.entries = entries  # (family, n, i, j, passed)

    @property
    def passed(self):
        return all(ok for *_, ok in self.entries)

    @property
    def checked(self):
        return len(self.entries)

    def failures(self):
        return [e for e in self.entries if not e[-1]]


def verify_simplicial_identities(max_n) -> IdentityReport:
    """Evaluate both sides of every identity instance pointwise."""
    entries = []
    for family, n, i, j, lhs, rhs in identity_instances(max_n):
        source = instance_source(lhs)
        left = _evaluate_refs(lhs, source)
        right = _evaluate_refs(rhs, source)
        entries.append((family, n, i, j, left == right))
    return IdentityReport(max_n, entries)


def delta_to_monotone(f: DeltaMap) -> MonotoneMap:
    """The same map between the chain posets [source] and [target]."""
    return MonotoneMap(
        ordinal_poset(f.source),
        ordinal_poset(f.target),
        tuple(str(v) for v in f.values),
    )
