"""The metric catalogue (mirrored by BENCHMARK.json) and the statistics
that turn pass timings and spans into metric values."""

from __future__ import annotations

WORKLOADS = ("search-enum", "search-check", "decide", "cli")

# DFA sizes of the decide workload; they name its per-size metrics.
UNARY_NONEMPTY = (8, 12, 16, 20)
UNARY_EMPTY_BASE = (5, 7, 9)  # products with the odd-'a' DFA have 2n states
SEQ_NONEMPTY = (50, 100, 150)
SEQ_EMPTY_BASE = (20, 30, 40)  # products with the a-then-b DFA have 3n states


def decider_sizes() -> dict[str, list[int]]:
    """Input sizes of the decide workload, per decider."""
    return {
        "unary": sorted(UNARY_NONEMPTY + tuple(2 * n for n in UNARY_EMPTY_BASE)),
        "sequential": sorted(SEQ_NONEMPTY + tuple(3 * n for n in SEQ_EMPTY_BASE)),
    }


# name, unit, better, bound (share of the parent's median).  The timing
# bounds are near the 0.25 cap: on a shared 2-vCPU virtual machine the
# same inputs ran up to 60% slower a few minutes apart.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.001),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("automata.closure.calls", "count", "lower"),
        ("automata.closure.s", "s", "lower"),
        ("automata.determinize.s", "s", "lower"),
        ("automata.determinize.states", "count", "lower"),
        ("automata.intersect_dfa.s", "s", "lower"),
        ("automata.intersect_dfa.states", "count", "lower"),
        ("automata.erase_letters.s", "s", "lower"),
        ("search.find_witness.s", "s", "lower"),
        ("search.enum_s", "s", "lower"),
        ("search.check_s", "s", "lower"),
        ("search.words_tested", "count", "lower"),
        ("search.words_per_s", "1/s", "higher"),
        ("search.budget_stop_ratio", "ratio", "lower"),
        ("search.peak_mb", "MB", "lower"),
        ("problems.member_bounded_tiling.us_per_word", "us", "lower"),
    ]
    rows += [(f"problems.member_machine_language.us_per_word.{mode}", "us", "lower")
             for mode in ("NL", "NP", "PSPACE")]
    sizes = decider_sizes()
    rows += [(f"deciders.decide_intreg_unary_shuffled.s.n{n}", "s", "lower") for n in sizes["unary"]]
    rows += [(f"deciders.decide_intreg_sequential_string_eq.s.n{n}", "s", "lower")
             for n in sizes["sequential"]]
    rows += [
        ("deciders.sequential.self_s", "s", "lower"),
        ("deciders.unary_s", "s", "lower"),
        ("deciders.sequential_s", "s", "lower"),
        ("pda.pda_intersect_dfa.s", "s", "lower"),
        ("pda.pda_intersect_dfa.states", "count", "lower"),
        ("pda.pda_to_cfg.s", "s", "lower"),
        ("pda.pda_to_cfg.productions", "count", "lower"),
        ("pda.cfg_generating.s", "s", "lower"),
        ("reductions.s", "s", "lower"),
        ("reductions.nfa_states", "count", "lower"),
    ]
    rows += [(f"cli.{sub}.ms", "ms", "lower") for sub in ("check", "decide", "search", "reduce", "solve")]
    rows += [
        ("cli.call_ms.p50", "ms", "lower"),
        ("cli.call_ms.p90", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer values from one `tracer.summarize` result."""
    def get(name, key="s"):
        return summary.get(name, {}).get(key, 0)

    def total(prefix, key="s"):
        return sum(v[key] for k, v in summary.items() if k.startswith(prefix))

    out = {
        "automata.closure.calls": get("automata.closure", "calls"),
        "automata.closure.s": get("automata.closure"),
        "automata.determinize.s": get("automata.determinize"),
        "automata.determinize.states": get("automata.determinize", "count"),
        "automata.intersect_dfa.s": get("automata.intersect_dfa"),
        "automata.intersect_dfa.states": get("automata.intersect_dfa", "count"),
        "automata.erase_letters.s": get("automata.erase_letters"),
        "search.find_witness.s": get("search.find_witness"),
        "search.words_tested": get("search.find_witness", "count"),
        "deciders.sequential.self_s": total("deciders.decide_intreg_sequential_string_eq.", "self_s"),
        "pda.pda_intersect_dfa.s": get("pda.pda_intersect_dfa"),
        "pda.pda_intersect_dfa.states": get("pda.pda_intersect_dfa", "count"),
        "pda.pda_to_cfg.s": get("pda.pda_to_cfg"),
        "pda.pda_to_cfg.productions": get("pda.pda_to_cfg", "count"),
        "pda.cfg_generating.s": get("pda.cfg_generating"),
        "reductions.s": total("reductions.", "self_s"),
        "reductions.nfa_states": total("reductions.", "count"),
        "trace.spans": total("", "calls"),
    }
    check_s = total("problems.member_")
    out["search.check_s"] = check_s
    out["search.enum_s"] = out["search.find_witness.s"] - check_s if out["search.find_witness.s"] else 0
    checkers = {"problems.member_bounded_tiling.us_per_word": "problems.member_bounded_tiling"}
    checkers.update({f"problems.member_machine_language.us_per_word.{m}":
                     f"problems.member_machine_language.{m}" for m in ("NL", "NP", "PSPACE")})
    for metric, span in checkers.items():
        calls = get(span, "calls")
        out[metric] = get(span) / calls * 1e6 if calls else 0
    for decider in ("decide_intreg_unary_shuffled", "decide_intreg_sequential_string_eq"):
        for name, entry in summary.items():
            prefix = f"deciders.{decider}."
            if name.startswith(prefix):
                out[f"deciders.{decider}.s.{name[len(prefix):]}"] = entry["s"]
    return out
