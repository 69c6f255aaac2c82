"""Smoke check of the benchmark at toy sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--toy`` and fails
(exit 1) unless each run's last stdout line is the result object with every
metric that BENCHMARK.json names, in its unit, all checks passed, and the
trace file parses with consistent self times: no span's children cover
more than the span, and the per-name self times add up to the root spans'
durations.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
EPS = 1e-6


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict], what: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    names = [m["name"] for m in expected]
    assert sorted(result["metrics"]) == sorted(names), f"{what}: metric names differ"
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{what}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), what


def check_trace(path: Path, what: str):
    with open(path) as handle:
        trace = json.load(handle)
    stats, spans = trace["stats"], trace["spans"]
    roots = {name for _, parent, name, _, _ in spans if parent == 0}
    assert roots, f"{what}: no root spans"
    total_self = sum(s["self_s"] for s in stats.values())
    root_time = sum(stats[name]["s"] for name in roots)
    assert abs(total_self - root_time) <= EPS * max(1.0, root_time), \
        f"{what}: self times add to {total_self}, root spans last {root_time}"
    assert all(s["self_s"] >= -EPS for s in stats.values()), f"{what}: negative self time"
    if trace["dropped_spans"]:
        return
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for span_id, _, name, start, end in spans:
        assert (end - start) - child_time.get(span_id, 0.0) >= -EPS, f"{what}: {name}"


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(run(workload, 0), bench["end_to_end"], f"{workload} end-to-end")
        check_result(run(workload, 1), bench["per_layer"], f"{workload} traced")
        check_trace(ROOT / ".perfbench_out" / f"trace-{workload}-seed{SEED}.json", workload)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
