"""Pushdown automata, context-free grammars, and emptiness.

A PDA move pops the stack top and pushes a (possibly empty) string
whose first symbol becomes the new top.  Acceptance requires the input
to be consumed in a final state with the stack holding exactly the
bottom symbol.  Emptiness goes through the standard state-pair grammar
construction followed by the generating-symbol fixpoint, so no stack
bound ever has to be guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .automata import Dfa, _check_states, _transition_order
from .errors import AlphabetError, MalformedInputError, raise_first_fault

# (state, label or None, popped top, next state, pushed string; push[0] is the new top)
PdaTransition = tuple[int, Optional[str], str, int, tuple[str, ...]]


@dataclass(frozen=True)
class Pda:
    states: int
    input_alphabet: frozenset[str]
    stack_alphabet: frozenset[str]
    bottom: str
    transitions: frozenset[PdaTransition]
    start: int
    finals: frozenset[int]

    def __post_init__(self):
        _check_states(self.states, self.start, self.finals)
        if self.bottom not in self.stack_alphabet:
            raise MalformedInputError("bottom: not a stack symbol")
        raise_first_fault(self._faults, self.transitions, lambda t: _transition_order(t) + t[3:])

    def _faults(self, transitions: Iterable[PdaTransition]) -> Iterator[str]:
        """The first failing check of each faulty transition, in order."""
        for src, label, top, dst, push in transitions:
            if not (0 <= src < self.states and 0 <= dst < self.states):
                yield "transitions: state out of range"
            elif label is not None and label not in self.input_alphabet:
                yield f"transitions: label {label!r} not in input alphabet"
            elif top not in self.stack_alphabet:
                yield f"transitions: popped symbol {top!r} not in stack alphabet"
            elif not self.stack_alphabet.issuperset(push):
                bad = next(sym for sym in push if sym not in self.stack_alphabet)
                yield f"transitions: pushed symbol {bad!r} not in stack alphabet"


@dataclass(frozen=True)
class Cfg:
    """Grammar over hashable symbols; a symbol is terminal iff it is in
    `terminals`, so nonterminals may be arbitrary tuples."""

    terminals: frozenset
    productions: frozenset  # of (head, body tuple)
    start: object


def pda_intersect_dfa(pda: Pda, dfa: Dfa) -> Pda:
    """Product PDA for L(pda) ∩ L(dfa); the DFA only advances on
    labeled moves."""
    if pda.input_alphabet != dfa.alphabet:
        raise AlphabetError("pda_intersect_dfa requires identical input alphabets")

    def pair(p: int, d: int) -> int:
        return p * dfa.states + d

    transitions: set[PdaTransition] = set()
    for src, label, top, dst, push in pda.transitions:
        for d in range(dfa.states):
            d_next = d if label is None else dfa.delta[(d, label)]
            transitions.add((pair(src, d), label, top, pair(dst, d_next), push))
    finals = frozenset(pair(f, g) for f in pda.finals for g in dfa.finals)
    return Pda(
        states=pda.states * dfa.states,
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet,
        bottom=pda.bottom,
        transitions=transitions,
        start=pair(pda.start, dfa.start),
        finals=finals,
    )


def pda_to_cfg(pda: Pda) -> Cfg:
    """State-pair grammar with L(grammar) = L(pda).

    Nonterminal ("T", q, X, r) derives the inputs that take the PDA from
    q with X on top to r with X popped.  A virtual end state past the
    real ones absorbs the final bottom-symbol pop, so acceptance by
    final state + bare bottom becomes exactly reaching it.
    """
    end = pda.states
    every = range(pda.states + 1)
    moves: list[PdaTransition] = list(pda.transitions)
    for f in pda.finals:
        moves.append((f, None, pda.bottom, end, ()))

    productions: set[tuple] = {("S", (("T", pda.start, pda.bottom, end),))}
    for src, label, top, dst, push in moves:
        prefix: tuple = (label,) if label is not None else ()
        if not push:
            productions.add((("T", src, top, dst), prefix))
            continue
        # One body per choice of intermediate states between the pushed symbols.
        chains: list[tuple[tuple, int]] = [((), dst)]
        for sym in push[:-1]:
            chains = [
                (body + (("T", prev, sym, mid),), mid)
                for body, prev in chains
                for mid in every
            ]
        for body, prev in chains:
            for last in every:
                productions.add(
                    (("T", src, top, last), prefix + body + (("T", prev, push[-1], last),))
                )
    return Cfg(
        terminals=frozenset(pda.input_alphabet),
        productions=frozenset(productions),
        start="S",
    )


def cfg_generating(cfg: Cfg) -> frozenset:
    """Symbols that derive at least one terminal word (iterative fixpoint)."""
    generating: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in cfg.productions:
            if head in generating:
                continue
            if all(sym in cfg.terminals or sym in generating for sym in body):
                generating.add(head)
                changed = True
    return frozenset(generating)


def cfg_is_empty(cfg: Cfg) -> bool:
    return cfg.start not in cfg_generating(cfg)


def pda_is_empty(pda: Pda) -> bool:
    """True iff the PDA accepts no word at all."""
    return cfg_is_empty(pda_to_cfg(pda))
