"""Budgeted witness search: enumerate L(A) in shortlex order and test
each word with a problem checker.

This is the semi-decision side of the intersection-emptiness question:
a hit proves L(A) ∩ P nonempty; running out of budget proves nothing.
Words stream from a length-exact depth-first enumerator, so every budget
is checked per word and no length layer is ever built whole.  The
witness is always the shortlex-least passing word.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .automata import Automaton, image
from .automata import closure  # noqa: F401 - kept by name: bench/tracer.py wraps search.closure
from .errors import CheckerError, MalformedInputError


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


_BLOCK = 64  # states per block of the backward chain's memo


def enumerate_words(automaton: Automaton, max_len: int) -> Iterator[str]:
    """All accepted words of length ≤ max_len, strictly shortlex, streamed.

    For each length L, a lexicographic depth-first search over state sets
    enters a branch only if its set reaches a final state in exactly the
    letters left (Ackerman & Shallit, "Efficient enumeration of words in
    regular languages", TCS 410, 2009).  Work is shared across lengths:
    the successors of a state set are stepped once per call and kept, and
    each (state set, `fin` value) pair keeps the branches filtered from
    them.  The backward chain `fin` memoises its predecessor image per
    block of `_BLOCK` states.  The word is spelled from one path string
    cut back to the current depth, so the search holds at most L frames
    and O(L) letters.  Memory is O(max_len·|Q|) for `fin`, plus the
    successors of each state set reached and its filtered branches, plus
    the block memo, however large the language.
    """
    t = automaton.tables
    fin = [t.finals]  # fin[r]: states with a path of exactly r letters to a final state
    first = {t.finals: 0}  # where each fin value first appeared, until one repeats
    period = 0
    succ: dict[int, list[tuple[str, int]]] = {}  # state set -> its non-empty steps
    viable: dict[tuple[int, int], list[tuple[str, int]]] = {}
    back: dict[tuple[int, int], int] = {}  # (block, its bits) -> their predecessors
    block_mask = (1 << _BLOCK) - 1

    def branches(states: int, need: int) -> Iterator[tuple[str, int]]:
        out = viable.get((states, need))
        if out is None:
            steps = succ.get(states)
            if steps is None:
                steps = succ[states] = [(sym, nxt) for sym in t.symbols if (nxt := t.step(states, sym))]
            out = viable[states, need] = [step for step in steps if step[1] & need]
        return iter(out)

    def predecessors(states: int) -> int:
        out = 0
        block = 0
        while states:
            bits = states & block_mask
            if bits:
                got = back.get((block, bits))
                if got is None:
                    got = back[block, bits] = image(bits << block * _BLOCK, t.pred)
                out |= got
            states >>= _BLOCK
            block += 1
        return out

    for length in range(max_len + 1):
        if period:
            fin.append(fin[-period])
        elif length:
            grown = predecessors(fin[-1])
            period = length - first.setdefault(grown, length)
            if period and not any(t.start & f for f in fin[-period:]):
                return  # every longer length repeats this cycle, which holds no word
            fin.append(grown)
        if not t.start & fin[length]:
            continue
        if not length:
            yield ""
            continue
        path = ""  # path[:depth] spells the prefix of the innermost frame
        depth = 0
        stack = [branches(t.start, fin[length - 1])]
        while stack:
            for sym, nxt in stack[-1]:  # the next branch of the innermost frame
                break
            else:
                stack.pop()
                depth -= 1
                continue
            if depth + 1 == length:
                yield path[:depth] + sym
            else:
                if len(path) > depth:  # cut back what the popped frames spelled
                    path = path[:depth]
                path += sym
                depth += 1
                stack.append(branches(nxt, fin[length - depth - 1]))


def find_witness(
    automaton: Automaton,
    checker: Callable[[str], bool],
    budget: SearchBudget,
) -> WitnessReport:
    """Shortlex-least word of L(automaton) passing the checker, within budget.

    Outcomes: "witness" with the word; "exhausted" when every word up
    to the length bound was tested; "budget-exceeded" when the word or
    wall-clock budget ran out first.  Words are tested one at a time in
    shortlex order, so the witness and wordsTested are reproducible.

    Checker exceptions are re-raised as CheckerError naming the word.
    """
    start_time = time.perf_counter()

    def report(outcome: str, witness: Optional[str], tested: int, bound: Optional[int]) -> WitnessReport:
        return WitnessReport(outcome, witness, tested, time.perf_counter() - start_time, bound)

    tested = 0
    for word in enumerate_words(automaton, budget.max_word_length):
        if tested >= budget.max_words_tested:
            return report("budget-exceeded", None, tested, None)
        if time.perf_counter() - start_time > budget.wall_clock_limit:
            return report("budget-exceeded", None, tested, None)
        tested += 1
        try:
            hit = checker(word)
        except Exception as exc:  # noqa: BLE001 - wrapped with the offending word
            raise CheckerError(word, exc) from exc
        if hit:
            return report("witness", word, tested, None)
    return report("exhausted", None, tested, budget.max_word_length)
