"""Budgeted witness search: enumerate L(A) in shortlex order and test
each word with a problem checker.

This is the semi-decision side of the intersection-emptiness question:
a hit proves L(A) ∩ P nonempty; running out of budget proves nothing.
Words stream from a length-exact depth-first enumerator, so every budget
is checked per word and no length layer is ever built whole.  The
witness is always the shortlex-least passing word, parallel or not.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .automata import Automaton, image
from .automata import closure  # noqa: F401 - kept by name: bench/tracer.py wraps search.closure
from .errors import CheckerError, MalformedInputError

WORKER_ENV = "REGINT_WORKER_COUNT"


@dataclass(frozen=True)
class SearchBudget:
    max_word_length: int
    max_words_tested: int
    wall_clock_limit: float  # seconds

    def __post_init__(self):
        # chained comparisons reject NaN and infinities, and unlike
        # math.isfinite they accept ints beyond the float range
        if not (1 <= self.max_word_length < math.inf and 1 <= self.max_words_tested < math.inf
                and 0 < self.wall_clock_limit < math.inf):
            raise MalformedInputError("budget: all limits must be positive and finite")


@dataclass(frozen=True)
class WitnessReport:
    outcome: str  # "witness" | "exhausted" | "budget-exceeded"
    witness: Optional[str]
    words_tested: int
    elapsed: float  # seconds
    bound: Optional[int]  # length bound that was exhausted, if any

    def to_json(self, deterministic: bool = False) -> dict:
        return {
            "outcome": self.outcome,
            "witness": self.witness,
            "wordsTested": self.words_tested,
            "elapsedMs": 0 if deterministic else round(self.elapsed * 1000, 3),
            "bound": self.bound,
        }


def enumerate_words(automaton: Automaton, max_len: int) -> Iterator[str]:
    """All accepted words of length ≤ max_len, strictly shortlex, streamed.

    For each length L, a lexicographic depth-first search over state sets
    enters a branch only if its set reaches a final state in exactly the
    letters left (Ackerman & Shallit, "Efficient enumeration of words in
    regular languages", TCS 410, 2009).  It keeps at most L frames, the
    table `fin` and the branches of each (state set, `fin` value) pair it
    reached: O(max_len·|Q|·|Σ|) for a DFA, however large the language.
    """
    t = automaton.tables
    fin = [t.finals]  # fin[r]: states with a path of exactly r letters to a final state
    first = {t.finals: 0}  # where each fin value first appeared, until one repeats
    period = 0
    viable: dict[tuple[int, int], list[tuple[str, int]]] = {}

    def branches(states: int, need: int) -> Iterator[tuple[str, int]]:
        out = viable.get((states, need))
        if out is None:
            out = viable[states, need] = [(sym, nxt) for sym in t.symbols if (nxt := t.step(states, sym)) & need]
        return iter(out)

    for length in range(max_len + 1):
        if period:
            fin.append(fin[-period])
        elif length:
            grown = image(fin[-1], t.pred)
            period = length - first.setdefault(grown, length)
            if period and not any(t.start & f for f in fin[-period:]):
                return  # every longer length repeats this cycle, which holds no word
            fin.append(grown)
        if not t.start & fin[length]:
            continue
        if not length:
            yield ""
            continue
        word: list[str] = []
        stack = [branches(t.start, fin[length - 1])]
        while stack:
            for sym, nxt in stack[-1]:  # the next branch of the innermost frame
                break
            else:
                stack.pop()
                if word:
                    word.pop()
                continue
            if len(word) + 1 == length:
                yield "".join(word) + sym
            else:
                word.append(sym)
                stack.append(branches(nxt, fin[length - len(word) - 1]))


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, workers)
    raw = os.environ.get(WORKER_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def find_witness(
    automaton: Automaton,
    checker: Callable[[str], bool],
    budget: SearchBudget,
    workers: Optional[int] = None,
) -> WitnessReport:
    """Shortlex-least word of L(automaton) passing the checker, within budget.

    Outcomes: "witness" with the word; "exhausted" when every word up
    to the length bound was tested; "budget-exceeded" when the word or
    wall-clock budget ran out first.  With several workers the checker
    runs speculatively on chunks, but the reported witness and
    wordsTested match the sequential run exactly.

    Checker exceptions are re-raised as CheckerError naming the word.
    """
    count = _worker_count(workers)
    start_time = time.perf_counter()

    def report(outcome: str, witness: Optional[str], tested: int, bound: Optional[int]) -> WitnessReport:
        return WitnessReport(outcome, witness, tested, time.perf_counter() - start_time, bound)

    def run_checker(word: str) -> bool:
        try:
            return checker(word)
        except Exception as exc:  # noqa: BLE001 - wrapped with the offending word
            raise CheckerError(word, exc) from exc

    stream = enumerate_words(automaton, budget.max_word_length)
    tested = 0
    if count == 1:
        for word in stream:
            if tested >= budget.max_words_tested:
                return report("budget-exceeded", None, tested, None)
            if time.perf_counter() - start_time > budget.wall_clock_limit:
                return report("budget-exceeded", None, tested, None)
            tested += 1
            if run_checker(word):
                return report("witness", word, tested, None)
        return report("exhausted", None, tested, budget.max_word_length)

    chunk_size = 4 * count
    with ThreadPoolExecutor(max_workers=count) as pool:
        while True:
            if time.perf_counter() - start_time > budget.wall_clock_limit:
                return report("budget-exceeded", None, tested, None)
            remaining = budget.max_words_tested - tested
            if remaining <= 0:
                if next(stream, None) is None:
                    return report("exhausted", None, tested, budget.max_word_length)
                return report("budget-exceeded", None, tested, None)
            chunk = list(islice(stream, min(chunk_size, remaining)))
            if not chunk:
                return report("exhausted", None, tested, budget.max_word_length)
            # Speculative: evaluate the whole chunk, then take the first hit
            # in shortlex order so parallelism never changes the answer.
            results = list(pool.map(run_checker, chunk))
            for i, hit in enumerate(results):
                if hit:
                    return report("witness", chunk[i], tested + i + 1, None)
            tested += len(chunk)
