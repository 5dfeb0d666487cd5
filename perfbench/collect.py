#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize the spread of each metric.

    python3 perfbench/collect.py --seeds 0-9 [--workloads a,b] [--traced-seed 0]
                                 [--out FILE] [--compare EARLIER.json]

For every workload and seed this runs `perfbench/run.py --trace 0` for the
`run_seconds` of BENCHMARK.json, and reports per end-to-end metric the
median, the quartiles (as `statistics.quantiles(values, n=4)` gives them)
and their distance as a share of the median. A spread above the metric's
bound, setup_s excepted, is flagged. `--traced-seed` adds one traced run
per workload for the per-layer metrics. `--compare` checks each median
against an earlier summary: worse by more than the bound is flagged.
The exit status is 1 when anything is flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    flagged = []
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, record = run(workload, seed, spec["run_seconds"], 0)
            runs.append((seed, result, record))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            if not result["correct"]:
                flagged.append(f"{workload} seed {seed}: incorrect result")
        entry = {
            "machine": runs[0][2]["machine"],
            "fingerprints": {str(seed): record["fingerprint"] for seed, _, record in runs},
            "error_rate": [record["error_rate"] for _, _, record in runs],
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([result["metrics"][name]["value"] for _, result, _ in runs])
            entry["end_to_end"][name] = stats
            note = ""
            if name != "setup_s" and stats["spread"] > metric["bound"]:
                flagged.append(f"{workload} {name}: spread {stats['spread']:.4f} > bound {metric['bound']}")
                note = "  SPREAD ABOVE BOUND"
            old = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if old is not None:
                worse = worse_by(metric, stats["median"], old["median"])
                note += f"  vs earlier median {old['median']:.5g}: worse by {worse:+.4f}"
                if worse > metric["bound"]:
                    flagged.append(f"{workload} {name}: median worse by {worse:.4f} > bound {metric['bound']}")
                    note += "  ABOVE BOUND"
            print(f"  {name:16s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']}, a third {metric['bound'] / 3:.4f}){note}", flush=True)
        if args.traced_seed is not None:
            result, record = run(workload, args.traced_seed, spec["run_seconds"], 1)
            if not result["correct"]:
                flagged.append(f"{workload} traced seed {args.traced_seed}: incorrect result")
            entry["traced"] = {
                "seed": args.traced_seed,
                "fingerprint": record["fingerprint"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "self_s": record["self_s"],
            }
        summary["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for line in flagged:
        print(f"FLAGGED: {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
