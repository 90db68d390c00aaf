"""Record the reference output of every workload variant into references.json.

Usage, from the root of a checkout:
    python3 bench/record_references.py [--scale full|tiny ...]

Runs one job per (workload, scale, variant) on the current sources and
stores its summary. Re-record only when a change is meant to alter results,
and say so with the change: the benchmark compares every timed job with
these values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", nargs="+", choices=("full", "tiny"), default=["tiny", "full"])
    args = parser.parse_args()
    doc = (json.loads(workloads.REFERENCES.read_text()) if workloads.REFERENCES.exists()
           else {"workloads": {}})
    workdir = run.RUN_DIR / "record"
    try:
        for name, cls in workloads.WORKLOADS.items():
            for scale in args.scale:
                table = doc["workloads"].setdefault(name, {}).setdefault(scale, {})
                for variant in range(workloads.VARIANTS):
                    workdir.mkdir(parents=True, exist_ok=True)
                    job = cls(variant, scale, workdir).job()
                    own = [p for p in job["problems"] if not p.startswith("no reference")]
                    if job["summary"] is None or own:
                        print(f"error: {name}/{scale}/{variant}: {own}", file=sys.stderr)
                        return 1
                    table[str(variant)] = job["summary"]
                    print(f"{name}/{scale}/{variant}: {job['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["recorded_at"] = {"git_commit": run.git_commit(), "source_sha256": run.source_digest()}
    workloads.REFERENCES.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
