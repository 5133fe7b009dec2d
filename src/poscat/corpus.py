"""Exhaustive enumeration of finite posets up to isomorphism, by orderly
generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978;
Brinkmann & McKay, "Posets on up to 16 Points", Order 2002).

A labelling of a poset on {0,...,n-1} is natural when the integer order
extends the poset order.  Element k is then maximal among 0..k, and it is
given by its strict down-mask, a down-closed subset of {0,...,k-1}; every
finite poset has a natural labelling.  Natural labellings compare by their
tuples of strict down-masks (mask_1, ..., mask_{n-1}), lexicographically, and
each class is represented by its lex-least natural labelling.

Deleting the top element n-1 of a lex-least labelling leaves a lex-least
labelling: a smaller labelling of the rest would stay smaller with n-1 put
back on top.  So every representative with n elements is a child of a
representative with n - 1 elements: that poset with one maximal element added
above a down-closed set.  `poset_classes(n)` grows only those children.  It
walks the parents in lex order of their mask tuples and each parent's masks in
ascending order, so the children come in lex order, and the first child met
in each class is the class's lex-least labelling.  That is the same
representative that deduplicating every natural labelling in lex order would
keep, found by colouring 939 children for 1 <= n <= 6 instead of 5,231
labellings.

Each child is coloured once by 1-dimensional colour refinement
(`posets.signatures`), with every child of one size interning its colours as
ints in one shared table.  A child's bucket is its sorted colour tuple, and it
is tested for isomorphism only against the representatives in its bucket,
reusing both colour lists.

The representatives of one size are named P{n}.{k} in order of relation size,
then of the sorted list of their elements' colours, compared by nested value,
then of the labelling.  `posets.colour_ranks` ranks each colour among the
colours of its round, so the lists compare as sorted lists of ranks.  The
names were pinned when the lists compared by the reprs of their values; for
n <= 9 every size in a value is one digit and the two orders agree, while
from n = 10 on the reprs put (10, 1) before (9, 1) and the orders differ.

The oracle for exhaustiveness and for the orbit identity, a list of every
natural labelling, lives with the tests.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .posets import FinPoset, colour_ranks, coloured_isomorphisms, signatures


def _down_closed_masks(rows, n):
    """All down-closed subsets of the poset on {0..n-1} with up-row masks `rows`."""
    cols = _kernels.transpose(rows, n)
    out = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            b = m & -m
            if cols[b.bit_length() - 1] & ~mask:
                ok = False
                break
            m ^= b
        if ok:
            out.append(mask)
    return out


def _children(rows, k):
    """Row tables of the posets on {0..k} that put k, maximal, above each
    down-closed subset of the poset on {0..k-1} with up-rows `rows`, in
    ascending order of the subset's mask."""
    for mask in _down_closed_masks(rows, k):
        grown = [row | (1 << k) if mask & (1 << i) else row for i, row in enumerate(rows)]
        grown.append(1 << k)
        yield tuple(grown)


def _grow(parents, n):
    """The classes with n >= 1 elements, named, from `parents`, the classes
    with n - 1 elements."""
    elements = tuple(str(i) for i in range(n))
    table = {}
    buckets = {}
    reps = []
    for parent in sorted(parents, key=lambda p: p.down_rows):
        for rows in _children(parent.up_rows, n - 1):
            candidate = FinPoset(elements, rows)
            colours = signatures(candidate, table)
            bucket = buckets.setdefault(tuple(sorted(colours)), [])
            if any(
                next(coloured_isomorphisms(candidate, seen, colours, seen_colours), None) is not None
                for seen, seen_colours in bucket
            ):
                continue
            bucket.append((candidate, colours))
            reps.append((candidate, colours))
    rank = colour_ranks(table)
    reps.sort(
        key=lambda rep: (
            sum(r.bit_count() for r in rep[0].up_rows),
            sorted(rank[c] for c in rep[1]),
        )
    )
    return tuple(
        FinPoset(p.elements, p.up_rows, name=f"P{n}.{k}") for k, (p, _) in enumerate(reps)
    )


# _classes[n] holds the classes with n elements, grown one size at a time.
_classes = [(FinPoset((), (), name="P0.0"),)]


def poset_classes(n):
    """One FinPoset per isomorphism class with exactly n elements, the lex-
    least natural labelling of its class on the elements "0".."n-1", named
    P{n}.{k} in order of relation size, then of the sorted element colours
    by nested value (`posets.colour_ranks`), then of the labelling.  The
    sizes up to n not yet grown are grown in turn, each from the one below;
    for 1 <= n <= 6 that colours 939 children."""
    if n < 0:
        raise ValueError("poset size must be >= 0")
    while len(_classes) <= n:
        _classes.append(_grow(_classes[-1], len(_classes)))
    return _classes[n]


@lru_cache(maxsize=None)
def all_posets(max_size):
    """Isomorphism-class representatives of every poset with at most max_size elements."""
    if max_size < 0:
        raise ValueError("poset size must be >= 0")
    out = []
    for n in range(max_size + 1):
        out.extend(poset_classes(n))
    return tuple(out)
