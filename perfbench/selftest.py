"""Determinism self-test for the benchmark.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload it checks that

* two traced runs of one seed, each in a fresh process, report identical
  crowd outcomes (dollars, HITs, accuracy, simulated latency) and identical
  per-layer counts;
* each of those runs passed its own checks, which include that its traced
  repetitions reproduce its untraced ones exactly (the wrappers change no
  behaviour);
* another seed generates a different query stream.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer units whose values are counts of work, not wall-clock readings.
DETERMINISTIC_UNITS = {"count", "fraction", "USD/query", "HITs/query", "sim_s", "B/query", "B"}


def traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stdout}{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def deterministic(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in DETERMINISTIC_UNITS and not name.startswith("trace.")
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()

    failures = []
    for name in args.workload:
        first = deterministic(traced_run(name, args.seed))
        second = deterministic(traced_run(name, args.seed))
        differing = sorted(key for key in first if first[key] != second.get(key))
        if differing:
            failures.append(f"{name}: same-seed runs differ in {differing}")
        if WORKLOADS[name](args.seed).sql == WORKLOADS[name](args.seed + 1).sql:
            failures.append(f"{name}: seeds {args.seed} and {args.seed + 1} give the same queries")
        print(f"{name}: {len(first)} deterministic metrics compared", flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
