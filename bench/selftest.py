"""Seed-determinism self-test for the benchmark harness.

  python3 bench/selftest.py

BENCHMARK.json lists exactly the metrics of metrics.py.  For every
workload, with seeds A = 1 and B = 2:
  * two interpreters building the inputs of seed A report byte-identical
    input digests;
  * two traced runs of seed A give identical exact counts (every
    per-layer metric with unit "count") and no failed query;
  * seed B builds different inputs, and every known answer still holds.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
from time import monotonic

from metrics import END_TO_END, PER_LAYER, WORKLOADS
from run import ROOT, Worker

COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]
SEEDS = (1, 2)


def check_workload(worker: Worker, name: str, seed_a: int, seed_b: int) -> list[str]:
    problems = []
    digest_a = [worker("setup", name, seed_a)["digest"] for _ in range(2)]
    if digest_a[0] != digest_a[1]:
        problems.append(f"seed {seed_a}: input digests differ: {digest_a}")
    if worker("setup", name, seed_b)["digest"] == digest_a[0]:
        problems.append(f"seeds {seed_a} and {seed_b} build the same inputs")
    runs = [worker("trace", name, seed, 0) for seed in (seed_a, seed_a, seed_b)]
    for seed, run in zip((seed_a, seed_a, seed_b), runs):
        if run["failed"]:
            problems.append(f"seed {seed}: {run['failed']} failed queries: {run['errors']}")
    counts = [{k: run["metrics"].get(k, 0) for k in COUNTS} for run in runs[:2]]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in COUNTS if counts[0][k] != counts[1][k]}
        problems.append(f"seed {seed_a}: exact counts differ between runs: {diff}")
    return problems


def check_catalogue() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from metrics.WORKLOADS")
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] != list(END_TO_END):
        problems.append("end_to_end differs from metrics.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] != list(PER_LAYER):
        problems.append("per_layer differs from metrics.PER_LAYER")
    return problems


def main() -> int:
    worker = Worker(monotonic() + 900)
    problems = check_catalogue()
    print(f"BENCHMARK.json: {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"  {problem}")
    failures = len(problems)
    for name in WORKLOADS:
        problems = check_workload(worker, name, *SEEDS)
        failures += len(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
