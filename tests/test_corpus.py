"""Poset enumeration: exhaustiveness, deduplication, class counts."""

import hashlib
import itertools
import random

import pytest

from poscat import corpus, find_isomorphism, isomorphisms, linear_extensions
from poscat.corpus import all_posets, poset_classes
from poscat._kernels import transitive_closure
from poscat.posets import FinPoset, colour_ranks, signatures

from helpers import (
    colour_rounds,
    naturally_labeled_count,
    naturally_labeled_posets,
    nested_colours,
)


def test_class_counts_small():
    assert [len(poset_classes(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]


def test_negative_sizes_are_refused():
    for call in (poset_classes, all_posets):
        with pytest.raises(ValueError, match="poset size must be >= 0"):
            call(-1)


def test_naturally_labeled_counts_small():
    assert [naturally_labeled_count(n) for n in range(6)] == [1, 1, 2, 7, 40, 357]


def test_labeled_enumeration_is_exhaustive_n3():
    # brute force: every reflexive-transitive-antisymmetric relation on {0,1,2}
    # that extends the integer order appears in the generator output
    got = set(naturally_labeled_posets(3))
    brute = set()
    pairs = [(0, 1), (0, 2), (1, 2)]
    for chosen in itertools.product([0, 1], repeat=3):
        rows = [1 << i for i in range(3)]
        for flag, (i, j) in zip(chosen, pairs):
            if flag:
                rows[i] |= 1 << j
        transitive = all(
            not (rows[i] & (1 << j) and rows[j] & (1 << k)) or rows[i] & (1 << k)
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        if transitive:
            brute.add(tuple(rows))
    assert got == brute


def test_classes_pairwise_nonisomorphic_n4():
    classes = poset_classes(4)
    for a, b in itertools.combinations(classes, 2):
        assert find_isomorphism(a, b) is None


def test_every_labeled_poset_is_represented():
    for n in range(6):
        classes = poset_classes(n)
        for rows in naturally_labeled_posets(n):
            candidate = FinPoset(tuple(str(i) for i in range(n)), rows)
            assert any(find_isomorphism(candidate, rep) is not None for rep in classes)


def strict_down_masks(poset, order):
    """The strict down-mask of each position of `order`, a linear extension
    of the poset given as a sequence of element indices."""
    position = {e: k for k, e in enumerate(order)}
    return tuple(
        sum(1 << position[j] for j in range(poset.n) if j != i and poset.down_rows[i] >> j & 1)
        for i in order
    )


def test_representatives_are_lex_least_labellings():
    # the invariant that lets each size grow from the one below: every
    # representative's strict down-masks, in label order, are the least over
    # all natural relabellings of its class
    for n in range(6):
        for p in poset_classes(n):
            own = strict_down_masks(p, range(n))
            relabellings = [
                strict_down_masks(p, [p.index(e) for e in ext.sorted_by_order()])
                for ext in linear_extensions(p)
            ]
            assert own == min(relabellings), p.name


def grow_again(monkeypatch, n):
    """The classes with n >= 1 elements grown again from those with n - 1,
    the number of candidates `_grow` coloured, and the one colour table they
    all went through."""
    parents = poset_classes(n - 1)
    tables = []

    def recording(poset, table):
        tables.append(table)
        return signatures(poset, table)

    monkeypatch.setattr(corpus, "signatures", recording)
    grown = corpus._grow(parents, n)
    monkeypatch.undo()
    assert all(table is tables[0] for table in tables)
    return grown, len(tables), tables[0]


def test_orderly_generation_colours_939_candidates(monkeypatch):
    # one candidate per down-closed set of each representative below;
    # deduplicating every natural labelling would colour 1 + 2 + 7 + 40 + 357
    # + 4,824 = 5,231
    counts = []
    for n in range(1, 7):
        grown, count, _ = grow_again(monkeypatch, n)
        assert [(p.name, p.up_rows) for p in grown] == [(p.name, p.up_rows) for p in poset_classes(n)]
        down_sets = sum(
            all(p.down_rows[i] & ~mask == 0 for i in range(p.n) if mask >> i & 1)
            for p in poset_classes(n - 1)
            for mask in range(1 << p.n)
        )
        assert count == down_sets
        counts.append(count)
    assert counts == [1, 2, 7, 28, 135, 766]
    assert sum(counts) == 939


def assert_ranks_follow_reprs(table):
    """Within each round of `table`, rank order is the order of the reprs of
    the nested values, the order the P{n}.{k} names were pinned under."""
    values = nested_colours(table)
    rank = colour_ranks(table)
    for colours in colour_rounds(values):
        assert sorted(colours, key=rank.__getitem__) == sorted(
            colours, key=lambda c: repr(values[c])
        )


def test_colour_ranks_name_as_the_reprs_did(monkeypatch):
    # every colour of the tables the corpus is named through, for n <= 6
    for n in range(1, 7):
        _, _, table = grow_again(monkeypatch, n)
        assert_ranks_follow_reprs(table)
    # and seeded random posets of up to nine elements, where every size in a
    # value is still one digit, through one table
    rng = random.Random(20021)
    table = {}
    for _ in range(300):
        n = rng.randint(1, 9)
        density = rng.random()
        rows = [
            (1 << i) | sum(1 << j for j in range(i + 1, n) if rng.random() < density)
            for i in range(n)
        ]
        signatures(FinPoset(tuple(str(i) for i in range(n)), transitive_closure(rows)), table)
    assert_ranks_follow_reprs(table)


def test_orbit_identity_n4():
    # each class accounts for e(P)/|Aut(P)| naturally labeled posets
    total = 0
    for p in poset_classes(4):
        total += len(linear_extensions(p)) // len(isomorphisms(p, p))
    assert total == naturally_labeled_count(4)


def test_all_posets_accumulates_sizes():
    corpus = all_posets(3)
    assert [p.n for p in corpus] == [0, 1, 2, 2, 3, 3, 3, 3, 3]
    names = [p.name for p in corpus]
    assert len(set(names)) == len(names)


def test_deterministic_order():
    # the classes, their order and names are the same under any hash seed
    import os
    import subprocess
    import sys

    import poscat

    import_root = os.path.dirname(os.path.dirname(os.path.abspath(poscat.__file__)))
    code = (
        "from poscat.corpus import poset_classes\n"
        "print(repr([(p.name, p.up_rows) for p in poset_classes(5)]))"
    )
    here = repr([(p.name, p.up_rows) for p in poset_classes(5)])
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed, "PYTHONPATH": import_root},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here


def test_corpus_is_pinned_n6():
    # names, elements and relations of all 406 classes, as the P{n}.{k} names
    # in witnesses and benchmark digests depend on them
    corpus = all_posets(6)
    assert sum(p.n == 6 for p in corpus) == 318
    text = repr([(p.name, p.elements, p.up_rows) for p in corpus])
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "0cc2201651a788f72cc204a154da7c32265be2ccaa116ea73421355ca62a6a35"
    )


def test_corpus_is_pinned_n7():
    # computed by deduplicating every naturally labeled poset on seven
    # elements, before each size was grown from the one below
    classes = poset_classes(7)
    assert len(classes) == 2045
    text = repr([(p.name, p.elements, p.up_rows) for p in classes])
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "29c7e7b8d83e343dc937d47a01bdf877c015ae8a0d85781284b706943b5aa827"
    )
