"""One phase of one workload, in a fresh interpreter started by run.py.

Phases:
  setup  import regint and build the inputs; report the time and digest
  time   build, then run untraced passes for --seconds
  trace  build under the tracer, then run an untraced warm-up pass and
         pairs of one untraced and one traced pass for --seconds; write
         the spans under .work/.  The tracer cannot see into the cli
         workload's subprocesses, so cli runs untraced passes only.
  alloc  run each query once under tracemalloc (search workloads)

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from statistics import median, median_low
from time import perf_counter
from typing import Optional

from metrics import UNITS, layer_metrics, percentile
from tracer import Tracer, span_cost_s, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, ".work")  # cli inputs and span files; git ignores it
BUDGET_LIMIT_S = 0.1  # wall-clock limit of the search-enum budget query


@dataclass
class Row:
    qid: str
    group: str
    seconds: float
    error: Optional[str]
    words: Optional[int]


def build(name: str, seed: int):
    if name == "cli":
        import clicases

        return clicases.build_cli(seed, WORK_DIR)
    import workloads

    return workloads.BUILDERS[name](seed)


def run_query(query) -> tuple[float, Optional[str], object]:
    start = perf_counter()
    try:
        result = query.run()
    except Exception as exc:  # noqa: BLE001 - a raising query counts as failed
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}", None
    seconds = perf_counter() - start
    try:
        error = query.gate(result)
    except Exception as exc:  # noqa: BLE001
        error = f"gate raised {type(exc).__name__}: {exc}"
    return seconds, error, result


def run_pass(workload, tag: str, tracer=None) -> list[Row]:
    rows = []
    for query in workload.queries:
        if tracer is not None:
            tracer.query = f"{tag}:{query.qid}"
        seconds, error, result = run_query(query)
        rows.append(Row(query.qid, query.group, seconds, error, getattr(result, "words_tested", None)))
    return rows


def pass_wall(rows: list[Row]) -> float:
    return sum(r.seconds for r in rows)


def pass_modes(tracer):
    """Without a tracer, plain passes only.  With one, a warm-up pass and
    then pairs of one plain and one traced pass whose order alternates
    (plain-traced, traced-plain, ...), so neither mode always runs first."""
    if tracer is None:
        while True:
            yield "plain"
    yield "warmup"
    while True:
        yield from ("plain", "traced")
        yield from ("traced", "plain")


def run_passes(workload, seconds: float, tracer=None) -> list[tuple[str, list[Row]]]:
    """Whole passes until about `seconds` have gone: another pass (or,
    with a tracer, another pair) starts only while more than half of its
    median time remains.  With a tracer at least one pair runs."""
    step, least = (1, 1) if tracer is None else (2, 3)
    passes: list[tuple[str, list[Row]]] = []
    modes = pass_modes(tracer)
    begin = perf_counter()
    while True:
        mode = next(modes)
        tag = f"p{len(passes)}"
        if mode == "traced":
            with tracer:
                rows = run_pass(workload, tag, tracer)
        else:
            rows = run_pass(workload, tag)
        passes.append((mode, rows))
        if len(passes) < least or (len(passes) - least) % step:
            continue
        timed = [pass_wall(rows) for m, rows in passes if m != "warmup"]
        if perf_counter() - begin + step * median(timed) / 2 >= seconds:
            return passes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def pass_metrics(passes, cli: bool) -> tuple[dict, dict]:
    """End-to-end metrics from the plain passes, plus details: the
    workload-specific figures under their per-layer names and the pass
    counts."""
    plain = [rows for mode, rows in passes if mode == "plain"]
    every = [r for _, rows in passes for r in rows]
    failed = sum(1 for r in every if r.error is not None)
    # one pass over the queries, each taken at its median over the passes
    e2e = {
        "wall_s": sum(median([rows[i].seconds for rows in plain]) for i in range(len(plain[0]))),
        "peak_rss_mb": peak_rss_mb(children=cli),
        "ok_share": 1 - failed / len(every),
    }
    details = {"failed_share": failed / len(every), "passes": len(plain),
               "queries_per_pass": len(plain[0])}

    def per_pass(fn):
        values = [fn(rows) for rows in plain]
        values = [v for v in values if v is not None]
        return median(values) if values else None

    def group_seconds(rows, group):
        picked = [r.seconds for r in rows if r.group == group]
        return sum(picked) if picked else None

    def words_per_s(rows):
        done = [r for r in rows if r.group == "complete" and r.error is None]
        return sum(r.words for r in done) / sum(r.seconds for r in done) if done else None

    def budget_ratio(rows):
        budget = group_seconds(rows, "budget")
        return budget / BUDGET_LIMIT_S if budget is not None else None

    found = {
        "search.words_per_s": per_pass(words_per_s),
        "search.budget_stop_ratio": per_pass(budget_ratio),
        "deciders.unary_s": per_pass(lambda rows: group_seconds(rows, "unary")),
        "deciders.sequential_s": per_pass(lambda rows: group_seconds(rows, "sequential")),
    }
    details.update({k: v for k, v in found.items() if v is not None})
    if cli:
        calls = [r.seconds * 1000 for rows in plain for r in rows]
        details["cli.call_ms.p50"] = median(calls)
        details["cli.call_ms.p90"] = percentile(calls, 90)
        for sub in ("check", "decide", "search", "reduce", "solve"):
            details[f"cli.{sub}.ms"] = median([r.seconds * 1000 for rows in plain for r in rows
                                               if r.group == sub])
    errors = sorted({f"{r.qid}: {r.error}" for r in every if r.error is not None})
    return e2e, {"details": details, "attempted": len(every), "failed": failed, "errors": errors[:10]}


def import_ms(repeats: int = 5) -> float:
    """`python -c "import regint"` minus `python -c pass`, median of pairs."""
    def timed(code):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return perf_counter() - start

    return median([(timed("import regint") - timed("pass")) * 1000 for _ in range(repeats)])


def phase_setup(args) -> dict:
    start = perf_counter()
    workload = build(args.workload, args.seed)
    seconds = perf_counter() - start
    workload.close()
    return {"setup_s": seconds, "digest": workload.digest}


def phase_time(args) -> dict:
    workload = build(args.workload, args.seed)
    try:
        passes = run_passes(workload, args.seconds)
    finally:
        workload.close()
    e2e, info = pass_metrics(passes, cli=args.workload == "cli")
    return {"metrics": e2e, "digest": workload.digest, **info}


def phase_trace(args) -> dict:
    if args.workload == "cli":  # the tracer cannot see into subprocesses
        result = phase_time(args)
        layers = {k: v for k, v in result["details"].items() if k in UNITS}
        layers["cli.import_ms"] = import_ms()
        return {**result, "metrics": layers}

    tracer = Tracer()
    with tracer:
        workload = build(args.workload, args.seed)
    try:
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        workload.close()
    _, info = pass_metrics(passes, cli=False)
    layers = {k: v for k, v in info["details"].items() if k in UNITS}

    setup = summarize(tracer.spans, lambda q: q == "setup")
    per_pass = []
    for index, (mode, _) in enumerate(passes):
        if mode == "traced":
            prefix = f"p{index}:"
            summary = summarize(tracer.spans, lambda q: q.startswith(prefix))
            for name, entry in setup.items():
                merged = summary.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    merged[key] += value
            per_pass.append(layer_metrics(summary))
    for name in set().union(*per_pass):
        values = [m.get(name, 0) for m in per_pass]
        layers[name] = median_low(values) if UNITS[name] == "count" else median(values)
    # The tracer's cost per traced pass: its spans times what one span
    # costs.  A traced pass minus a plain one is also reported, paired so
    # that drift between pairs and the cold warm-up pass stay out of it,
    # but run-to-run noise of a few percent of a pass swamps the spans'
    # microseconds, so it can come out negative.
    layers["trace.overhead_s"] = layers["trace.spans"] * span_cost_s()
    timed = passes[1:]
    pairs = [{mode: pass_wall(rows) for mode, rows in timed[i:i + 2]}
             for i in range(0, len(timed), 2)]

    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.tsv")
    tracer.write(spans_path)
    info["details"].update({"untraced_wall_s": median([p["plain"] for p in pairs]),
                            "traced_wall_s": median([p["traced"] for p in pairs]),
                            "traced_minus_untraced_s": median([p["traced"] - p["plain"] for p in pairs]),
                            "pairs": len(pairs),
                            "spans_file": os.path.relpath(spans_path, os.path.dirname(BENCH_DIR))})
    return {"metrics": layers, "digest": workload.digest, **info}


def phase_alloc(args) -> dict:
    import tracemalloc

    workload = build(args.workload, args.seed)
    peaks, errors = [], []
    try:
        for query in workload.queries:
            tracemalloc.start()
            try:
                _, error, _ = run_query(query)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
            if error is not None:
                errors.append(f"{query.qid}: {error}")
    finally:
        workload.close()
    return {"metrics": {"search.peak_mb": max(peaks, default=0)}, "attempted": len(peaks),
            "failed": len(errors), "errors": errors, "digest": workload.digest}


PHASES = {"setup": phase_setup, "time": phase_time, "trace": phase_trace, "alloc": phase_alloc}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True, choices=sorted(PHASES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()
    print(json.dumps(PHASES[args.phase](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
