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
_TAIL = 4  # longest tail: last letters of a word spelled once per state set, shared by its prefixes
_MEMO_CAP = 2**14  # entries the successor, tail and block memos hold before they clear


def _tail_length(letters: int) -> int:
    """Tail letters over an alphabet of `letters` symbols: at most `_TAIL`,
    and few enough that one tail list fills at most a quarter of
    `_MEMO_CAP`, so a list is built in bounded time and several fit
    between clears.  At least one: a one-letter tail list is no longer
    than the successor list the search steps anyway."""
    r = _TAIL
    while r > 1 and letters**r > _MEMO_CAP // 4:
        r -= 1
    return r


def enumerate_words(automaton: Automaton, max_len: int) -> Iterator[str]:
    """All accepted words of length ≤ max_len, strictly shortlex, streamed.

    For each length L, a lexicographic depth-first search over state sets
    enters a branch only if its set reaches a final state in exactly the
    letters left (Ackerman & Shallit, "Efficient enumeration of words in
    regular languages", TCS 410, 2009).  Work is shared across lengths:
    the successors of a state set are stepped once per call and kept, and
    each frame filters that shared list by its `fin` value as it walks
    it.  The last R letters are shared too (Ackerman & Mäkinen, "Three
    new algorithms for regular language enumeration", COCOON 2009): the
    search stops R letters above the leaves, where every prefix that
    reaches the same state set takes one list of its tails, spelled once
    in lexicographic order.  R is `_tail_length(|Σ|)`: at most `_TAIL`,
    and small enough that |Σ|^R is at most a quarter of `_MEMO_CAP`.  A
    length of at most R is the tail list of the start set.  The backward
    chain `fin` memoises its predecessor image per block of `_BLOCK`
    states.  The prefix is spelled from one path string cut back to the
    current depth, so the search holds fewer than L frames and O(L)
    letters besides the tails.

    Memory is O(max_len·|Q|) for `fin`, plus the successor, tail and
    block memos, however large the language or its alphabet.  A tail
    list holds at most |Σ|^R strings.  The three memos clear together
    once they hold `_MEMO_CAP` entries, each tail string counted as one;
    the lists that live frames still walk stay theirs, and each memo is
    a pure function of its key, so the stream is the same.
    """
    t = automaton.tables
    share = _tail_length(len(t.symbols))
    fin = [t.finals]  # fin[r]: states with a path of exactly r letters to a final state
    first = {t.finals: 0}  # where each fin value first appeared, until one repeats
    period = 0
    succ: dict[int, list[tuple[str, int]]] = {}  # state set -> its non-empty steps
    tail: dict[tuple[int, int], list[str]] = {}  # (state set, r) -> its r-letter tails
    held = 0  # memo entries, each tail string counted as one
    back: dict[tuple[int, int], int] = {}  # (block, its bits) -> their predecessors
    block_mask = (1 << _BLOCK) - 1

    def keep(memo: dict, key, value, size: int = 1):
        nonlocal held
        if held >= _MEMO_CAP:
            succ.clear()
            tail.clear()
            back.clear()
            held = 0
        held += size
        memo[key] = value
        return value

    def steps(states: int) -> list[tuple[str, int]]:
        out = succ.get(states)
        if out is None:
            out = keep(succ, states, [(sym, nxt) for sym in t.symbols if (nxt := t.step(states, sym))])
        return out

    def tails(states: int, r: int) -> list[str]:
        out = tail.get((states, r))
        if out is None:
            # level by level, in lexicographic order: each level extends
            # the last by one letter, keeping only steps into fin[left]
            level = [("", states)]
            for left in range(r - 1, -1, -1):
                need = fin[left]
                level = [(word + sym, nxt) for word, now in level for sym, nxt in steps(now) if nxt & need]
            out = keep(tail, (states, r), [word for word, _ in level], len(level))
        return out

    def predecessors(states: int) -> int:
        out = 0
        block = 0
        while states:
            bits = states & block_mask
            if bits:
                got = back.get((block, bits))
                if got is None:
                    got = keep(back, (block, bits), image(bits << block * _BLOCK, t.pred))
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
        if length <= share:
            yield from tails(t.start, length)
            continue
        stem = length - share  # letters spelled by the search; tails give the rest
        path = ""  # path[:depth] spells the prefix of the innermost frame
        stack = [iter(steps(t.start))]
        while stack:
            need = fin[length - len(stack)]
            for sym, nxt in stack[-1]:  # the innermost frame's next step into `need`
                if nxt & need:
                    break
            else:
                stack.pop()
                continue
            depth = len(stack) - 1
            if depth + 1 == stem:
                yield from map((path[:depth] + sym).__add__, tails(nxt, share))
            else:
                if len(path) > depth:  # cut back what the popped frames spelled
                    path = path[:depth]
                path += sym
                stack.append(iter(steps(nxt)))


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
