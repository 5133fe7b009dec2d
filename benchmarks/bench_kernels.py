"""Compare the pure-Python kernels against the compiled extension.

Run as `python benchmarks/bench_kernels.py`.  Workloads mirror the hot paths:
relation closure, monotone-map enumeration (chains), and the constrained
counting that drives colimit verification (one search plan run repeatedly).
"""

import random
import time

from poscat._kernels import LEQ, pure

try:
    from poscat._kernels import _speedups
except ImportError:
    _speedups = None


def chain_rows(n):
    return [sum(1 << j for j in range(i, n)) for i in range(n)]


def random_poset_rows(rng, n):
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                rows[i] |= 1 << j
    return pure.transitive_closure(rows)


def workload_closure():
    rng = random.Random(3)
    inputs = [random_poset_rows(rng, 48) for _ in range(60)]

    def run(kernel):
        for rows in inputs:
            kernel.transitive_closure(rows)

    return "closure of 60 random 48-element relations", run


def workload_chains():
    rows = random_poset_rows(random.Random(5), 9)
    pairs = [(k, k + 1, LEQ) for k in range(6)]

    def run(kernel):
        for _ in range(40):
            kernel.list_maps(7, 9, rows, pairs)

    return "length-6 chain enumeration in a 9-element poset, 40 runs", run


def workload_star_count():
    # one bottom below twelve incomparable slots, counted into a 6-chain:
    # the shape that dominates universal-property verification, which builds
    # one plan per shape and runs it against each target.  The compiled
    # extension has no plan runner, so its column times count_maps.
    rows = chain_rows(6)
    down = pure.transpose(rows, 6)
    pairs = [(0, j, LEQ) for j in range(1, 13)]

    def run(kernel):
        if kernel is pure:
            plan = pure.count_plan(13, pairs)
            for _ in range(400):
                pure.run_plan(plan, rows, down)
        else:
            for _ in range(400):
                kernel.count_maps(13, 6, rows, pairs)

    return "star-shaped counting into a 6-chain, one plan, 400 runs", run


def measure(run, kernel, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run(kernel)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    workloads = [workload_closure(), workload_chains(), workload_star_count()]
    print(f"{'workload':<58} {'pure':>9} {'compiled':>9} {'speedup':>8}")
    for label, run in workloads:
        pure_t = measure(run, pure)
        if _speedups is None:
            print(f"{label:<58} {pure_t * 1e3:8.1f}ms {'-':>9} {'-':>8}")
            continue
        fast_t = measure(run, _speedups)
        print(
            f"{label:<58} {pure_t * 1e3:8.1f}ms {fast_t * 1e3:7.1f}ms {pure_t / fast_t:7.1f}x"
        )
    if _speedups is None:
        print("compiled extension not built; showing pure timings only")


if __name__ == "__main__":
    main()
