"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

Usage, from the root of a checkout:
    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs bench/run.py untraced and
traced and asserts that each metric BENCHMARK.json names is emitted with its
unit and that every job passed its output check. It then reruns each
workload with --corrupt, which alters every job's output before the check,
and asserts that each of those jobs is counted as failed. Exits 0 on success.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{label}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {spec['name']} is {got}, "
                            f"expected unit {spec['unit']}")
    extra = set(result["metrics"]) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            problems += check_result(result, expected, label)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: clean run reported {result['failed']} failed "
                                f"of {result['attempted']}")
        corrupted = run(workload, 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] != corrupted["attempted"]:
            problems.append(f"{workload} --corrupt: {corrupted['failed']} of "
                            f"{corrupted['attempted']} counted failed, "
                            f"correct={corrupted['correct']}")
        print(f"{workload}: checked", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
