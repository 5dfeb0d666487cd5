#!/usr/bin/env python3
"""Benchmark of the ecgan lab: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from a checkout of the repository. The workload's inputs are made
from --seed. Set-up is the imports, preparing the inputs (done three
times; the median counts) and one warm-up operation. Then the operation
runs back to back for about --seconds: another starts only while its
expected end is within that time. Every operation's outputs are checked
and fingerprinted, and must match the warm-up operation's.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
measured untraced. With --trace 1, operations alternate between traced
and untraced; the result holds the per-layer metrics, taken from the
traced operations, and the traced fingerprint must equal the untraced one.

Human-readable lines come first; the last line of standard output is the
result as one JSON object. A full record, with the machine, every sample
and the self time of each span, goes to .bench_out/ beside the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PREPARE_REPEATS = 3
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# Set to 1 unless already set. At batch 4 a second BLAS thread buys no speed
# but doubles CPU time and ties every timing to the load on the other core;
# one thread also leaves the second core free for cross-cell parallelism.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: smallest inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cpu_steal_s():
    """Seconds the hypervisor took from this machine's CPUs (0 when unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(loadavg):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = {}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def summarize(samples):
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (absent when there are too few samples)."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            out[f"p{q:g}"] = s[math.ceil(q / 100 * n) - 1]
            break
    return out


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_operation(workload, index, tracer, traced):
    """Run and check one operation; returns its record."""
    from workloads import Outcome

    error = None
    before = os.times()
    start = time.perf_counter()
    if traced:
        tracer.op = index
    try:
        status = workload.run()
        if status != 0:
            error = f"exit status {status}"
    except Exception:  # a failed operation is counted, and the loop goes on
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.op = None
    wall = time.perf_counter() - start
    after = os.times()
    cpu = sum(after[i] - before[i] for i in range(4))
    if error is None:
        try:
            outcome = workload.check()
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        outcome = Outcome(attempted=workload.operations, problems=[error])
    return {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu, "outcome": outcome}


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "ecgan" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'ecgan'} is missing")
    loadavg = os.getloadavg()

    for variable in THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (its import is part of set-up)

    import layers
    import workloads

    import_s = time.perf_counter() - import_start
    machine = machine_record(loadavg)

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)

    try:
        workload = workloads.make(args.workload, args.seed, args.size, work_dir)
        prepare_s = [timed(workload.prepare) for _ in range(PREPARE_REPEATS)]
    except Exception:
        traceback.print_exc()
        print("perfbench: set-up failed", file=sys.stderr)
        return 1
    # The first operation in a process runs slower than later ones; it is
    # the warm-up, timed into set-up, and its fingerprint is the reference.
    warmup = run_operation(workload, -1, None, False)
    if warmup["outcome"].problems:
        print(f"perfbench: warm-up operation failed: {warmup['outcome'].problems[0]}", file=sys.stderr)
        return 1
    warmup_s = warmup["wall_s"]
    reference = warmup["outcome"].fingerprint
    setup_s = import_s + statistics.median(prepare_s) + warmup_s

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    steal_start = cpu_steal_s()
    ops = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 0
        ops.append(run_operation(workload, len(ops), tracer, traced))
        elapsed = time.perf_counter() - loop_start
        expected = statistics.median(op["wall_s"] for op in ops)
        if len(ops) >= (2 if args.trace else 1) and elapsed + expected > args.seconds:
            break
    loop_s = time.perf_counter() - loop_start
    steal_s = cpu_steal_s() - steal_start

    for op in ops:
        outcome = op["outcome"]
        if not outcome.problems and outcome.fingerprint != reference:
            outcome.problems.append(f"fingerprint {outcome.fingerprint} differs from {reference}")
    attempted = sum(op["outcome"].attempted for op in ops)
    failed = sum(op["outcome"].failed for op in ops)
    for op in ops:
        if op["outcome"].problems:
            print(f"perfbench: operation {op['index']} failed: {op['outcome'].problems[0]}", file=sys.stderr)
    good = warmup["outcome"]

    untraced = [op for op in ops if not op["traced"]]
    wall = summarize(op["wall_s"] for op in untraced)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall["median"],
        "img_per_s": good.images / wall["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_test_acc": good.accuracy,
        "error_rate": failed / attempted,
    }
    self_times = {}
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        per_op = [layers.layer_metrics(tracer, op["index"], op["wall_s"]) for op in traced_ops]
        for name in set().union(*per_op):
            metrics[name] = statistics.median(m.get(name, 0.0) for m in per_op)
        cpu_s = statistics.median(op["cpu_s"] for op in untraced)
        metrics["process.cpu_s"] = cpu_s
        metrics["process.cpu_util"] = cpu_s / wall["median"]
        traced_wall = statistics.median(op["wall_s"] for op in traced_ops)
        metrics["trace.overhead_frac"] = traced_wall / wall["median"] - 1.0
        if good.cells_requested:
            metrics["harness.sweep.cells_requested"] = good.cells_requested
            metrics["harness.sweep.cells_trained"] = good.cells_trained
            metrics["harness.sweep.cache_hit_ratio"] = 1.0 - good.cells_trained / good.cells_requested
        self_times = {
            k[: -len(".self_s")]: v for k, v in sorted(metrics.items()) if k.endswith(".self_s")
        }

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    result_metrics = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in chosen
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": machine, "cpu_steal_s": steal_s, "loop_s": loop_s,
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s},
        "wall_s": wall,
        "operations": [
            {"index": op["index"], "traced": op["traced"], "wall_s": op["wall_s"], "cpu_s": op["cpu_s"],
             "fingerprint": op["outcome"].fingerprint, "problems": op["outcome"].problems}
            for op in ops
        ],
        "fingerprint": reference,
        "error_rate": metrics["error_rate"],
        "metrics": result_metrics,
        "measured": sorted(name for name in result_metrics if name in metrics),
        "self_s": self_times,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print(f"machine {json.dumps(machine)}")
    print(f"cpu steal during the timed loop: {steal_s:.2f} s of {loop_s:.2f} s")
    print(f"set-up: import {import_s:.3f} s, prepare {statistics.median(prepare_s):.3f} s "
          f"(median of {len(prepare_s)}), warm-up operation {warmup_s:.3f} s")
    tail = {k: round(v, 4) for k, v in wall.items() if k.startswith("p")}
    print(f"wall_s: median {wall['median']:.4f} s over {wall['n']} operations"
          + (f", {tail}" if tail else ", no percentile has 10 samples beyond it"))
    print(f"error_rate {metrics['error_rate']:.4f} fraction ({failed} of {attempted} operations failed)")
    print(f"fingerprint sha256:{reference}")
    for name, m in result_metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, value in self_times.items():
        print(f"  self time {name:38s} {value:14.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
