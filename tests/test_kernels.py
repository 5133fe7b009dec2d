"""Kernel correctness against brute-force oracles."""

import itertools
import random

from poscat._kernels import (
    EQ,
    LEQ,
    LT,
    backend,
    count_maps,
    count_plan,
    list_maps,
    run_plan,
    target_view,
    transitive_closure,
    transpose,
)
from poscat.colimits import _closure
from poscat.corpus import all_posets


def naive_closure(rows):
    n = len(rows)
    mat = [[bool(rows[i] & (1 << j)) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                mat[i][j] = mat[i][j] or (mat[i][k] and mat[k][j])
    return [sum(1 << j for j in range(n) if mat[i][j]) for i in range(n)]


def naive_maps(n_slots, n_tgt, up_rows, pairs):
    out = []
    for f in itertools.product(range(n_tgt), repeat=n_slots):
        ok = True
        for i, j, kind in pairs:
            le = bool(up_rows[f[i]] & (1 << f[j]))
            if kind == LEQ and not le:
                ok = False
            elif kind == EQ and f[i] != f[j]:
                ok = False
            elif kind == LT and not (le and f[i] != f[j]):
                ok = False
        if ok:
            out.append(f)
    return out


def random_relation(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.3:
                rows[i] |= 1 << j
    return rows


def random_pairs(rng, n_slots):
    pairs = []
    for _ in range(rng.randint(0, 2 * n_slots)):
        pairs.append(
            (rng.randrange(n_slots), rng.randrange(n_slots), rng.choice([LEQ, EQ, LT]))
        )
    return pairs


def test_closure_against_naive():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 8)
        rows = random_relation(rng, n)
        assert transitive_closure(rows) == naive_closure(rows)


def test_maps_against_naive():
    rng = random.Random(11)
    for _ in range(80):
        n_slots = rng.randint(0, 6)
        pairs = random_pairs(rng, n_slots) if n_slots else []
        if n_slots and rng.random() < 0.5:
            s = rng.randrange(n_slots)
            pairs.append((s, s, rng.choice([LEQ, EQ, LT])))  # a self-pair
        plan = count_plan(n_slots, pairs)
        for _ in range(4):
            n_tgt = rng.randint(0, 4)
            rows = random_relation(rng, n_tgt)  # rows need not be reflexive
            expected = naive_maps(n_slots, n_tgt, rows, pairs)
            got = list_maps(n_slots, n_tgt, rows, pairs)
            assert got == expected  # lexicographic order matches itertools.product
            assert count_maps(n_slots, n_tgt, rows, pairs) == len(expected)
            cols = transpose(rows, n_tgt)
            planned = 0 if plan is None else run_plan(plan, target_view(rows, cols))
            assert planned == len(expected)
            # one random mask of allowed values per slot
            domains = [rng.randrange(1 << n_tgt) for _ in range(n_slots)]
            inside = [f for f in expected if all(domains[s] >> v & 1 for s, v in enumerate(f))]
            planned = 0 if plan is None else run_plan(plan, target_view(rows, cols), domains)
            assert planned == len(inside)


def test_list_maps_runs_deep_chains():
    # 3000 chained slots into a one-element target: deeper than the recursion limit
    pairs = [(k, k + 1, LEQ) for k in range(2999)]
    assert list_maps(3000, 1, [1], pairs) == [(0,) * 3000]


def test_count_handles_disconnected_slots():
    # ten unconstrained slots over a three-element target: counted, not enumerated
    assert count_maps(10, 3, [1, 2, 4], []) == 3**10


def test_backend_reports_a_known_name():
    assert backend() == "pure"


def same_closure(rng, n_slots, pairs):
    """Another LEQ/EQ list with the reflexive-transitive closure of `pairs`:
    every pair of the closure, an EQ for some two-way pairs, a few repeats,
    shuffled."""
    rows = [0] * n_slots
    for i, j, kind in pairs:
        rows[i] |= 1 << j
        if kind == EQ:
            rows[j] |= 1 << i
    closed = naive_closure(rows)
    out = []
    for i in range(n_slots):
        for j in range(n_slots):
            if closed[i] >> j & 1 and (i != j or rng.random() < 0.2):
                both = closed[j] >> i & 1 and i < j and rng.random() < 0.5
                out.append((i, j, EQ if both else LEQ))
    out += rng.choices(out, k=min(2, len(out)))
    rng.shuffle(out)
    return out


def test_equal_closures_count_alike_into_posets():
    # verify_universal counts a constraint list once per closure, with the
    # plan of the first list that has it: into a poset, lists with one
    # closure have the same solutions
    rng = random.Random(17)
    targets = all_posets(4)
    seen = {}  # closure -> solution counts into every target
    for _ in range(40):
        n_slots = rng.choice([1, 2, 2, 3, 3, 4, 5])
        pairs = [
            (rng.randrange(n_slots), rng.randrange(n_slots), rng.choice([LEQ, EQ]))
            for _ in range(rng.randint(0, 2 * n_slots))
        ]
        other = same_closure(rng, n_slots, pairs)
        assert _closure(n_slots, other) == _closure(n_slots, pairs)
        for constraints in (pairs, other):
            counts = tuple(
                len(naive_maps(n_slots, t.n, t.up_rows, constraints)) for t in targets
            )
            assert seen.setdefault(_closure(n_slots, constraints), counts) == counts
        plan = count_plan(n_slots, pairs)
        for target in targets:
            expected = naive_maps(n_slots, target.n, target.up_rows, pairs)
            domains = [rng.randrange(1 << target.n) for _ in range(n_slots)]
            inside = [f for f in expected if all(domains[s] >> v & 1 for s, v in enumerate(f))]
            assert run_plan(plan, target.kernel_view, domains) == len(inside)
    assert len(seen) < 40  # lists drawn in different rounds shared a closure
