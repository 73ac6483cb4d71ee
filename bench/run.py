"""regint benchmark: four seeded, offline workloads, each a closed loop
with one client that runs its queries back to back.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search-enum (the shortlex enumerator), search-check (the
machine-language checkers), decide (both deciders and the PDA path) and
cli (`python -m regint.cli` subprocess calls).  `--workload all` runs
the four in turn.

Every phase runs in a fresh interpreter with PYTHONHASHSEED=0, without
REGINT_WORKER_COUNT, importing regint from this checkout's src/.  The
set-up (import plus building the inputs) runs SETUP_REPEATS times, each
in its own interpreter, and setup_s is their median.  With --trace 0 the
timed passes run untraced and the end-to-end metrics are printed; with
--trace 1 a traced run prints the per-layer metrics, the tracing
overhead and, for the search workloads, the peak of a separate
tracemalloc pass.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

from metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
TIME_LIMIT_S = 170  # the whole invocation must end within 180 s


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REGINT_WORKER_COUNT"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_identity() -> dict:
    """The commit when the checkout has git metadata, and always a digest
    of the package sources (the benchmark checkout has no .git)."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "regint").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Worker:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = pinned_env()

    def __call__(self, phase: str, workload: str, seed: int, seconds: float = 0) -> dict:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--phase", phase,
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for the {phase} phase")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{phase} phase failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, worker: Worker) -> dict:
    setups = [worker("setup", name, seed) for _ in range(SETUP_REPEATS)]
    digests = {s["digest"] for s in setups}
    if trace:
        result = worker("trace", name, seed, seconds)
        if name.startswith("search-"):
            alloc = worker("alloc", name, seed)
            result["metrics"].update(alloc["metrics"])
            result["attempted"] += alloc["attempted"]
            result["failed"] += alloc["failed"]
            result["errors"] += alloc["errors"]
            digests.add(alloc["digest"])
        wanted = [row[0] for row in PER_LAYER]
    else:
        result = worker("time", name, seed, seconds)
        result["metrics"]["setup_s"] = median([s["setup_s"] for s in setups])
        wanted = [row[0] for row in END_TO_END]
    digests.add(result["digest"])
    if len(digests) != 1:
        result["failed"] += 1
        result["errors"].append(f"input digest differs between interpreters: {sorted(digests)}")
    info = {
        "workload": name, "seed": seed, "trace": trace, "input_digest": sorted(digests),
        "python": platform.python_version(), "nproc": os.cpu_count(), **source_identity(),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "details": result.get("details", {}), "errors": result["errors"],
    }
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"].get(m, 0), "unit": UNITS[m]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "regint" / "__init__.py").is_file():
        print(f"regint sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = monotonic() + TIME_LIMIT_S * len(names)
    worker = Worker(deadline)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), worker)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
