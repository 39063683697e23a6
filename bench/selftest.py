"""Smoke-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at smoke size, untraced and traced,
and checks that each result is well formed and correct and that it names
exactly the workloads, metrics and units BENCHMARK.json declares.  Run from
the root of a checkout:

    python3 bench/selftest.py

Exits with code 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared(entries) -> dict[str, tuple[str, str]]:
    return {entry["name"]: (entry["unit"], entry["better"]) for entry in entries}


def run(command, *extra) -> tuple[int, list[str], str]:
    done = subprocess.run(
        [*command, *extra], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    problems = []
    workloads = [entry["name"] for entry in spec["workloads"]]
    if sorted(workloads) != sorted(measure.WORKLOADS):
        problems.append(f"workloads {workloads} != benchmark's {sorted(measure.WORKLOADS)}")
    expected = {
        0: declared(spec["end_to_end"]),
        1: declared(spec["per_layer"]),
    }
    for trace, table in ((0, measure.END_TO_END), (1, measure.PER_LAYER)):
        mine = {name: tuple(info[:2]) for name, info in table.items()}
        if mine != expected[trace]:
            problems.append(f"trace {trace}: metrics {mine} != BENCHMARK.json {expected[trace]}")

    for workload in workloads:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, lines, err = run(
                spec["command"],
                *("--workload", workload, "--seed", "1", "--seconds", "1"),
                *("--trace", str(trace), "--smoke"),
            )
            if code or len(lines) < 2:
                problems.append(f"{label}: exit code {code}, {len(lines)} lines of output\n{err}")
                continue
            result = json.loads(lines[-1])
            header = json.loads(lines[-2])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if header["provenance"]["workload"] != workload:
                problems.append(f"{label}: provenance names {header['provenance']['workload']}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct {result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {name: unit for name, (unit, _) in expected[trace].items()}
            if units != want:
                problems.append(f"{label}: metrics {units} != {want}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")

    code, _, _ = run(spec["command"], "--workload", "no-such", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    if code == 0:
        problems.append("an unknown workload was accepted")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
