"""Self-test of the benchmark: every workload at its smallest size, untraced
and traced.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EFFECTS = json.loads((ROOT / "perfbench" / "expected_effects.json").read_text())["effects"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (stdout, final JSON result, full record)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            record = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed0-trace{trace}.json").read_text()
            )
            out[workload, trace] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]), record)
    return out


def test_names_and_units_use_only_the_allowed_characters():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_every_metric_is_emitted_with_its_unit(runs):
    for (workload, trace), (_, result, _) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in expected], (workload, trace)
        for metric in expected:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert math.isfinite(emitted["value"]), (workload, metric["name"])


def test_no_operation_fails(runs):
    for key, (stdout, result, record) in runs.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, key
        assert record["error_rate"] == 0, key
        assert re.search(r"^error_rate 0\.0000 fraction", stdout, re.M), key


def test_traced_and_untraced_runs_give_the_same_fingerprint(runs):
    for workload in WORKLOADS:
        untraced, traced = runs[workload, 0][2], runs[workload, 1][2]
        assert re.fullmatch(r"[0-9a-f]{64}", untraced["fingerprint"])
        assert traced["fingerprint"] == untraced["fingerprint"], workload
        assert all(op["fingerprint"] == traced["fingerprint"] for op in traced["operations"])


def test_every_layer_metric_is_measured_on_some_workload(runs):
    measured = set().union(*(runs[w, 1][2]["measured"] for w in WORKLOADS))
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in measured] == []


def test_expected_effects_name_a_metric_and_workload_for_every_layer_metric():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for effect in EFFECTS:
        assert set(effect["moves"]) <= end_to_end, effect
        assert set(effect["on"]) <= set(WORKLOADS), effect
    for metric in SPEC["per_layer"]:
        assert any(
            metric["name"].startswith(prefix) for e in EFFECTS for prefix in e["layers"]
        ), metric["name"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
