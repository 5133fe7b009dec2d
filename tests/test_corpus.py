"""Poset enumeration: exhaustiveness, deduplication, class counts."""

import hashlib
import itertools

from poscat import find_isomorphism, isomorphisms, linear_extensions
from poscat.corpus import (
    all_posets,
    naturally_labeled_count,
    naturally_labeled_posets,
    poset_classes,
)
from poscat.posets import FinPoset


def test_class_counts_small():
    assert [len(poset_classes(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]


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


def test_every_labeled_poset_is_represented_n4():
    classes = poset_classes(4)
    for rows in naturally_labeled_posets(4):
        candidate = FinPoset(tuple(str(i) for i in range(4)), rows)
        assert any(find_isomorphism(candidate, rep) is not None for rep in classes)


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
    a = [p.up_rows for p in poset_classes(4)]
    poset_classes.cache_clear()
    b = [p.up_rows for p in poset_classes(4)]
    assert a == b


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
