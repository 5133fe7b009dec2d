"""poscat end-to-end benchmark.

    python3 bench/run.py --workload {universal,nerves,kan,cli} --seed N
        --seconds S --trace {0,1}

Run from the root of a poscat source tree.  Each workload runs in fresh
Python processes (bench/worker.py), one at a time, each on one thread.

--trace 0 prints the end-to-end metrics: set-up is measured in fresh
processes before and after the timing process, and reported as the median;
the timing process times whole rounds of the workload's operations: at
least three (two, when they took 20 s) and for at least S seconds.  Every
time is scaled to a host of fixed speed by reference slices timed in the
same process (see REF_NOMINAL_S); the unscaled figures are printed beside
them and kept in the record.
--trace 1 prints the per-layer metrics: one untraced process times rounds as
above, then one traced process runs one round with spans around every public
poscat function; trace.overhead_s is the difference of their round times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with its environment,
is written to .bench_out/, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("universal", "nerves", "kan", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Set-up is measured in fresh processes, half before and half after the
# timing process (whose own set-up counts too), so that the measurements
# span the whole run rather than one spell of the host's speed: on each side
# at least once and until one second was measured, at most seven times.
SETUP_SIDE_SECONDS = 1.0
SETUP_SIDE_MAX = 7
IMPORT_REPEATS = 5
# Every run must end within 180 s; workers are stopped past this budget.
BUDGET_S = 170.0
# Times are reported in seconds of a host on which one reference slice
# (worker.reference_slice, fixed pure-Python work) takes REF_NOMINAL_S.
# A small shared VM's speed drifts by up to twofold over minutes, and the
# slices, timed on the same processor between the operations, drift with it.
REF_NOMINAL_S = 0.0015
HALF_WINDOW = 5


class BenchError(Exception):
    pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "poscat", "__init__.py")):
        print(f"error: no poscat sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    try:
        build(deadline)
        if args.trace:
            record = traced_run(args, deadline)
        else:
            record = timed_run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["env"].update(environment())
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, label + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for line in record["failures"] + record["problems"]:
        print(f"# {line}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        raw = record.get("raw_metrics", {}).get(name)
        unscaled = "" if raw is None or raw == m["value"] else f"  (unscaled {raw:.6g})"
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}{unscaled}")
    correct = not record["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def build(deadline):
    """Byte-compile the sources, so no timed process pays for it.  A tree
    that cannot be written to is still run, only with compiling in set-up."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC],
        cwd=ROOT,
        capture_output=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def worker_env():
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run.
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)


def run_child(argv, deadline):
    """Run a child to completion; return (start time, last stdout line as JSON)."""
    what = " ".join([os.path.basename(argv[1])] + argv[2:4])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left in the budget for {what}")
    started = time.monotonic()
    # A process group of its own, so that a stopped child takes its children along.
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=os.setpgrp,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{what} did not finish within the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        return started, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{what} printed no result") from None


def worker(args, deadline, *extra):
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        *extra,
    ]
    started, result = run_child(argv, deadline)
    # The slices timed before set-up are not part of it.
    result["raw_setup_s"] = result["ready"] - started - sum(result["slices_before_s"])
    slices = result["slices_before_s"] + result["slices_after_s"]
    result["setup_s"] = result["raw_setup_s"] * REF_NOMINAL_S / statistics.median(slices)
    return result


def scaled_op_times(result):
    """Per round, each operation's time scaled to the nominal host speed by
    the median of the 2 * HALF_WINDOW slices of its round timed nearest to
    it: the host changes speed within a round, too."""
    out = []
    for took, slices in zip(result["op_s"], result["slices_s"]):
        after = [k for k, _ in slices]
        times = [t for _, t in slices]
        scaled = []
        for k, t in enumerate(took):
            j = bisect.bisect_left(after, k)
            window = times[max(0, j - HALF_WINDOW) : j + HALF_WINDOW]
            scaled.append(t * REF_NOMINAL_S / statistics.median(window))
        out.append(scaled)
    return out


def reference_loop():
    """A fixed pure-Python loop, timed five times: a slow host shows here."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return {"reference_loop_s": times, "reference_loop_median_s": statistics.median(times)}


def setup_side(args, deadline, count=None):
    """The results of `count` setup-only processes or, without a count, of
    as many as SETUP_SIDE_SECONDS of set-up takes (at most SETUP_SIDE_MAX)."""
    results = []

    def more():
        if count:
            return len(results) < count
        spent = sum(r["raw_setup_s"] for r in results)
        return len(results) < SETUP_SIDE_MAX and spent < SETUP_SIDE_SECONDS

    while more():
        results.append(worker(args, deadline, "--setup-only"))
    return results


def timed_run(args, deadline):
    before = setup_side(args, deadline)
    env = reference_loop()
    result = worker(args, deadline)
    after = setup_side(args, deadline, len(before))
    setups = before + [result] + after
    values = summary([s["setup_s"] for s in setups], scaled_op_times(result), result["peak_rss_mb"])
    raw = summary([s["raw_setup_s"] for s in setups], result["op_s"], result["peak_rss_mb"])
    env["backend"] = result["backend"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "problems": result["problems"],
        "env": env,
        "raw_metrics": raw,
        "samples": {
            "setups_s": [s["raw_setup_s"] for s in setups],
            "setup_slices_s": [s["slices_before_s"] + s["slices_after_s"] for s in setups],
            "slices_s": result["slices_s"],
            "rounds_s": result["rounds_s"],
            "round_walls_s": result["round_walls_s"],
            "op_s": result["op_s"],
        },
    }


def summary(setups_s, op_s, peak_rss_mb):
    """The end-to-end metrics from set-up times and per-round operation times."""
    ops_ms = [t * 1000.0 for took in op_s for t in took]
    return {
        "setup_s": statistics.median(setups_s),
        "run_s": statistics.median(sum(took) for took in op_s),
        "op_p50_ms": statistics.median(ops_ms),
        "op_p90_ms": statistics.quantiles(ops_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }


def import_seconds(deadline):
    """Median time to import poscat.cli in a fresh process."""
    code = "import time; t = time.perf_counter(); import poscat.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        _, value = run_child([sys.executable, "-c", code], deadline)
        times.append(value)
    return statistics.median(times)


def traced_run(args, deadline):
    in_process = ("--in-process",) if args.workload == "cli" else ()
    env = reference_loop()
    plain = worker(args, deadline, *in_process)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    traced = worker(args, deadline, "--trace", spans)
    values = dict(traced["per_layer"])
    values["cli.import_s"] = import_seconds(deadline)
    # Scaled like run_s, since the two processes may meet different host speeds.
    plain_s = statistics.median(sum(took) for took in scaled_op_times(plain))
    values["trace.overhead_s"] = sum(scaled_op_times(traced)[0]) - plain_s
    env.update(backend=traced["backend"], spans=os.path.relpath(spans, ROOT))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER},
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "problems": plain["problems"] + traced["problems"],
        "env": env,
    }


def environment():
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """SHA-256 over the paths and contents of the tracked kinds of source files."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
