"""Spans around calls into regint's public functions, made from the
benchmark's side by rebinding module attributes in the traced process.

A span records its name, start and end (perf_counter seconds), the span
that was open when it started, the query it belongs to and one count
taken at the boundary (result size or words tested).  Decider spans
carry their input DFA size in the name, checker spans the machine mode.
Spans stay in memory until `write` dumps them as tab-separated lines.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _states_of_result(args, result):
    return result.states


def _productions(args, result):
    return len(result.productions)


def _words_tested(args, result):
    return result.words_tested


def _language_states(args, result):
    nfa = getattr(result, "nfa", None)
    return nfa.states if nfa is not None else 0


def _machine_mode(args):
    return args[1]


def _size_suffix(args):
    return f"n{args[0].states}"


# (module, attribute, span name, count taken at the boundary, name suffix)
BOUNDARIES = (
    ("regint.automata", "closure", "automata.closure", None, None),
    ("regint.search", "closure", "automata.closure", None, None),
    ("regint.automata", "determinize", "automata.determinize", _states_of_result, None),
    ("regint.automata", "intersect_dfa", "automata.intersect_dfa", _states_of_result, None),
    ("regint.deciders", "intersect_dfa", "automata.intersect_dfa", _states_of_result, None),
    ("regint.deciders", "erase_letters", "automata.erase_letters", None, None),
    ("regint.search", "find_witness", "search.find_witness", _words_tested, None),
    ("regint.problems.tiling", "member_bounded_tiling", "problems.member_bounded_tiling", None, None),
    ("regint.problems.machines", "member_machine_language", "problems.member_machine_language",
     None, _machine_mode),
    ("regint.deciders", "decide_intreg_unary_shuffled", "deciders.decide_intreg_unary_shuffled",
     None, _size_suffix),
    ("regint.deciders", "decide_intreg_sequential_string_eq",
     "deciders.decide_intreg_sequential_string_eq", None, _size_suffix),
    ("regint.deciders", "pda_intersect_dfa", "pda.pda_intersect_dfa", _states_of_result, None),
    ("regint.pda", "pda_to_cfg", "pda.pda_to_cfg", _productions, None),
    ("regint.pda", "cfg_generating", "pda.cfg_generating", None, None),
    ("regint.reductions", "reduce_ntm_to_tiles", "reductions.reduce_ntm_to_tiles", None, None),
    ("regint.reductions", "reduce_ntm_to_tiling_lang", "reductions.reduce_ntm_to_tiling_lang",
     _language_states, None),
    ("regint.reductions", "reduce_tm_to_machine_lang", "reductions.reduce_tm_to_machine_lang",
     _language_states, None),
)


class Tracer:
    """Records spans while installed; `query` tags every span opened."""

    def __init__(self):
        # (name, start, end, parent index or -1, query, count)
        self.spans: list[tuple[str, float, float, int, str, int]] = []
        self.query = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count_fn, suffix_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            full = name if suffix_fn is None else f"{name}.{suffix_fn(args)}"
            spans.append(None)  # reserve the slot so children point at it
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = count_fn(args, result) if count_fn is not None and result is not None else 0
                spans[index] = (full, start, end, parent, self.query, count)

        return traced

    def install(self) -> None:
        for module_name, attr, name, count_fn, suffix_fn in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count_fn, suffix_fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tquery\tcount\n")
            for i, (name, start, end, parent, query, count) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\t{count}\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the best of `repeats` timings of
    `calls` calls through a tracing wrapper that takes a count and a name
    suffix, as the costliest boundaries do, minus the same calls made
    directly, per call."""
    def noop(arg):
        return arg

    def best(fn):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                fn(None)
            times.append(perf_counter() - start)
        return min(times)

    wrapped = Tracer()._wrap(noop, "noop", lambda args, result: 0, lambda args: "x")
    return max(best(wrapped) - best(noop), 0.0) / calls


def summarize(spans, keep) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and summed count,
    over the spans whose query passes `keep`."""
    child_time = defaultdict(float)
    for name, start, end, parent, query, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, query, count) in enumerate(spans):
        if not keep(query):
            continue
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["count"] += count
    return out
