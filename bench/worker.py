"""One workload in one fresh process: set-up, timed rounds, then checks.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--setup-only]
        [--trace SPANS.csv.gz] [--in-process]

The worker prints one JSON line.  `ready` is the CLOCK_MONOTONIC time of the
first timed operation, so the parent can measure set-up from the moment it
started this process.  A run attempts whole rounds of the workload's fixed
list of operations until S seconds have passed and at least MIN_ROUNDS
rounds were timed (two, when they took ENOUGH_S); with --trace it times
exactly one round.

Between operations the worker times short slices of fixed pure-Python
work (`reference_slice`), one whenever SLICE_EVERY_S of operation time has
passed since the last, and reports them beside the operation times, so that
the parent can scale every time to a host of fixed speed.  The worker pins
itself, and so its children, to the processor it starts on: the two
processors of a small VM change speed independently, and a slice says
something about an operation only if both ran on the same one.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The host alternates between fast and slow spells of seconds to tens of
# seconds, so a run's samples should span more than one: a run times at
# least three rounds, or two when those took ENOUGH_S.
MIN_ROUNDS = 3
ENOUGH_S = 20.0
# A reference slice is 1-2 ms of fixed pure-Python work of three kinds:
# an arithmetic loop, a brute-force count of monotone maps (tuples and set
# lookups) and an enumeration of weak chains (a list used as a stack).  On a
# 2-vCPU VM whose speed changed up to twofold from minute to minute, no one
# kind followed every workload's drift, while a mix of about equal parts
# came within a few per cent of the best mix for each.  Its working set is a
# few kilobytes, so it leaves the caches much as the operations left them,
# and it shares no code with poscat or the oracles, so that neither can
# change what it measures.
SLICE_EVERY_S = 0.025
# Slices timed right before and right after set-up, to scale the set-up time.
SETUP_SLICES = 15
_CHAIN = tuple(range(4))
_CHAIN_LEQ = frozenset((i, j) for i in _CHAIN for j in _CHAIN if i <= j)
_CHAIN_COVERS = ((0, 1), (1, 2), (2, 3))
_VEE_UP = {0: (0, 1, 2, 3), 1: (1, 3), 2: (2, 3), 3: (3,)}


def reference_slice():
    t0 = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc = (acc + i * i) % 1_000_003
    for _ in range(2):
        for values in itertools.product(_CHAIN, repeat=4):
            if all((values[a], values[b]) in _CHAIN_LEQ for a, b in _CHAIN_COVERS):
                acc += 1
    stack = [(x, 0) for x in _VEE_UP]
    while stack:
        x, depth = stack.pop()
        if depth == 9:
            acc += 1
        else:
            stack.extend((y, depth + 1) for y in _VEE_UP[x])
    return time.perf_counter() - t0


def pin_to_current_cpu():
    """Pin this process to the processor it runs on now; a no-op where the
    processor cannot be read or affinity cannot be set."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        os.sched_setaffinity(0, {int(fields[36])})
    except (OSError, IndexError, ValueError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--in-process", action="store_true")
    args = parser.parse_args()

    pin_to_current_cpu()
    slices_before = [reference_slice() for _ in range(SETUP_SLICES)]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    import poscat
    import poscat.cli  # noqa: F401  (the cli workload calls poscat.cli.run in-process)

    workload = workloads.WORKLOADS[args.workload](
        poscat, args.seed, root=ROOT, in_process=args.in_process or bool(tracer)
    )
    try:
        ready = time.monotonic()
        slices = {"slices_before_s": slices_before}
        slices["slices_after_s"] = [reference_slice() for _ in range(SETUP_SLICES)]
        if args.setup_only:
            print(json.dumps({"ready": ready, **slices}))
            return 0
        result = timed_rounds(workload, args.seconds, tracer)
        result.update(ready=ready, **slices)
        result["backend"] = poscat.kernel_backend()
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            tracer.write(args.trace)
        print(json.dumps(result))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    return 0


def timed_rounds(workload, seconds, tracer):
    """Time whole rounds of the workload's operations.

    Each output is digested, and checked the first time its digest is seen,
    right after its operation's timer stops; it is then dropped, so that no
    round holds the outputs of earlier ones.  A round's time is the sum of
    its operations' times, which leaves this bookkeeping and the reference
    slices out.  `slices_s[r]` holds (k, seconds) for each slice timed in
    round r right after operation k.
    """
    ops = workload.ops
    clock = time.perf_counter
    times = []  # per round, per operation
    walls = []
    slices = []
    since_slice = 0.0
    first_digest = []
    verdicts = {}
    failures = []
    failed = 0
    reproducible = True
    start = clock()
    while True:
        took = []
        round_slices = []
        round_start = clock()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.set_op(k)
            t0 = clock()
            try:
                value = op()
            except Exception as exc:  # a raising operation is a failed operation
                value = workloads.OpError(exc)
            took.append(clock() - t0)
            if tracer is not None:
                tracer.set_op(-1)
            digest = workload.digest(k, value)
            if not times:
                first_digest.append(digest)
            elif digest != first_digest[k]:
                reproducible = False
            if (k, digest) not in verdicts:
                verdicts[(k, digest)] = workload.check(k, value)
                if verdicts[(k, digest)] and len(failures) < 10:
                    failures.append(verdicts[(k, digest)])
            failed += bool(verdicts[(k, digest)])
            del value
            since_slice += took[-1]
            if since_slice >= SLICE_EVERY_S:
                round_slices.append((k, reference_slice()))
                since_slice = 0.0
        walls.append(clock() - round_start)
        times.append(took)
        slices.append(round_slices)
        if tracer is not None:
            break
        elapsed = clock() - start
        if elapsed >= seconds and (len(times) >= MIN_ROUNDS or (len(times) >= 2 and elapsed >= ENOUGH_S)):
            break
    children = getattr(workload, "measures_children", False)
    usage = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    problems = []
    if not reproducible:
        problems.append("an operation gave different outputs in different rounds")
    why = workload.self_check()
    if why:
        problems.append(why)
    return {
        "rounds_s": [sum(took) for took in times],
        "round_walls_s": walls,
        "op_s": times,
        "slices_s": slices,
        "attempted": len(ops) * len(times),
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }


if __name__ == "__main__":
    sys.exit(main())
