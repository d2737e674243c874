"""Smoke check of the benchmark's output contract.

Runs every workload for one cycle, untraced twice and traced once, and
checks that: the last stdout line has exactly the result keys; every
metric that BENCHMARK.json names is printed with its unit and nothing
else is; no task failed; two untraced runs with the same seed print the
same digest; and every layer metric named in layer_map.json exists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(script: Path, root: Path, workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def _check_result(result: dict, expected: dict[str, str], where: str) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: failed_ratio {result['failed']}/{result['attempted']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    return problems


def smoke(script: Path, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer_map = json.loads((script.parent / "layer_map.json").read_text(encoding="utf-8"))
    problems = []
    for entry in layer_map["layers"]:
        for name in entry["metrics"]:
            if not any(m == name or m.startswith(name + ".") for m in per_layer):
                problems.append(f"layer_map.json: no per-layer metric {name}")
        for name in entry["moves"]:
            if name not in end_to_end:
                problems.append(f"layer_map.json: no end-to-end metric {name}")
    for workload in (w["name"] for w in spec["workloads"]):
        first, result = _run(script, root, workload, 0)
        problems += _check_result(result, end_to_end, f"{workload} trace=0")
        again, _ = _run(script, root, workload, 0)
        if first["digest"] != again["digest"]:
            problems.append(f"{workload}: digest differs between two runs of seed 7")
        _, traced = _run(script, root, workload, 1)
        problems += _check_result(traced, per_layer, f"{workload} trace=1")
        print(f"smoke {workload}: {result['attempted']} tasks, digest {first['digest'][:16]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0
