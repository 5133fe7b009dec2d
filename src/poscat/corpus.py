"""Exhaustive enumeration of finite posets up to isomorphism.

Naturally labeled posets on {0,...,n-1} (the integer order extends the poset
order) are generated by repeatedly adjoining a maximal element above a
down-closed subset; every finite poset admits such a labeling, so deduplication
against signature buckets yields one representative per isomorphism class.
"""

from __future__ import annotations

from functools import lru_cache

from . import _kernels
from .posets import FinPoset, find_isomorphism, signatures


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


def _certificate(poset):
    return repr(sorted(map(repr, signatures(poset))))


@lru_cache(maxsize=None)
def poset_classes(n):
    """One FinPoset per isomorphism class with exactly n elements."""
    buckets = {}
    reps = []
    for rows in naturally_labeled_posets(n):
        candidate = FinPoset(tuple(str(i) for i in range(n)), rows)
        cert = _certificate(candidate)
        bucket = buckets.setdefault(cert, [])
        if any(find_isomorphism(candidate, seen) is not None for seen in bucket):
            continue
        bucket.append(candidate)
        reps.append(candidate)
    reps.sort(key=lambda p: (sum(bin(r).count("1") for r in p.up_rows), _certificate(p)))
    return tuple(
        FinPoset(p.elements, p.up_rows, name=f"P{n}.{k}") for k, p in enumerate(reps)
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
