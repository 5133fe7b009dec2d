"""Exhaustive enumeration of finite posets up to isomorphism.

Naturally labeled posets on {0,...,n-1} (the integer order extends the poset
order) are generated by repeatedly adjoining a maximal element above a
down-closed subset; every finite poset admits such a labeling, so deduplication
against colour buckets yields one representative per isomorphism class.

Each candidate is coloured once by 1-dimensional colour refinement
(`posets.signatures`), with every candidate of one size interning its colours
as ints in one shared table.  A candidate's bucket is its sorted colour tuple,
and it is tested for isomorphism only against the representatives in its
bucket, reusing both colour lists.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .posets import FinPoset, coloured_isomorphisms, nested_colours, signatures


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


def naturally_labeled_posets(n):
    """Row-mask tables of every naturally labeled poset on {0,...,n-1}."""
    tables = [tuple()]
    for k in range(n):
        grown = []
        for rows in tables:
            for mask in _down_closed_masks(rows, k):
                new_rows = [row | (1 << k) if mask & (1 << i) else row for i, row in enumerate(rows)]
                new_rows.append(1 << k)
                grown.append(tuple(new_rows))
        tables = grown
    return tables


@lru_cache(maxsize=None)
def poset_classes(n):
    """One FinPoset per isomorphism class with exactly n elements, named
    P{n}.{k} in order of relation size, then of the repr of the element
    colours' nested values."""
    table = {}
    buckets = {}
    reps = []
    for rows in naturally_labeled_posets(n):
        candidate = FinPoset(tuple(str(i) for i in range(n)), rows)
        colours = signatures(candidate, table)
        bucket = buckets.setdefault(tuple(sorted(colours)), [])
        if any(
            next(coloured_isomorphisms(candidate, seen, colours, seen_colours), None) is not None
            for seen, seen_colours in bucket
        ):
            continue
        bucket.append((candidate, colours))
        reps.append((candidate, colours))
    values = nested_colours(table)
    reps.sort(
        key=lambda rep: (
            sum(bin(r).count("1") for r in rep[0].up_rows),
            repr(sorted(repr(values[c]) for c in rep[1])),
        )
    )
    return tuple(
        FinPoset(p.elements, p.up_rows, name=f"P{n}.{k}") for k, (p, _) in enumerate(reps)
    )


@lru_cache(maxsize=None)
def all_posets(max_size):
    """Isomorphism-class representatives of every poset with at most max_size elements."""
    out = []
    for n in range(max_size + 1):
        out.extend(poset_classes(n))
    return tuple(out)


def naturally_labeled_count(n):
    return len(naturally_labeled_posets(n))
