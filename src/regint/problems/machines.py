"""Nondeterministic Turing machines, their bit-string encoding, and the
resource-bounded machine languages.

A word ⟨M⟩$x$aⁿ asks whether the encoded machine accepts x within the
resource budget read off n: at most n steps (NP mode), with the head
confined to the first n cells (PSPACE mode), or reading at most
⌊log₂ n⌋ distinct tape positions (NL mode).  The tape is one-way
infinite; cell 1 is the leftmost and holds the first input symbol.

The encoding covers transitions only, so machine layout is fixed by
convention: state 1 is the start, state 2 the accept (state 1 when
there is only one state), tape symbol 1 is the blank '_', and the
remaining tape symbols are the input alphabet named '0', '1', ... in
order.  encode_tm rejects machines not presented in that layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

from ..errors import (MalformedInputError, MalformedWordError, ResourceLimitError, document, entries, is_chars,
                      is_int, raise_first_fault, require)

# 1-based wire codes for head moves, and the head shift of each move.
_MOVE_CODE = {"L": 1, "R": 2, "S": 3}
_MOVE_NAME = {1: "L", 2: "R", 3: "S"}
_SHIFT = {"L": -1, "R": 1, "S": 0}

# (from state, read symbol, to state, written symbol, move)
TmTransition = tuple[int, str, int, str, str]

# A tape is a string of one-character codes.  Two codes are reserved:
# an NL cell not read yet, and the cell past the NL read budget, which
# has no symbol.  The tape symbols take the codes from _FIRST_CODE on.
_UNREAD, _PAST = "\0", "\1"
_FIRST_CODE = 2

_MAX_CONFIGS = 200_000  # configurations a run may visit before the checker gives up
_MAX_CELLS = 2**24  # tape cells those configurations may hold between them
_MEMO_CAP = 2**13  # finished runs kept before their memo clears, a long key counting as more


class _Coding(NamedTuple):
    """A machine on coded tapes: `codes` translates an input string, and
    `rows[state][code]` lists that pair's (to state, written code, head
    shift) moves in sorted transition order."""

    codes: dict[int, str]
    blank: str
    rows: tuple[dict[str, tuple[tuple[int, str, int], ...]], ...]


@dataclass(frozen=True)
class TmSpec:
    states: int
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    start: int
    accept: int
    transitions: frozenset[TmTransition]

    def __post_init__(self):
        if self.states < 1:
            raise MalformedInputError("states: need at least one state")
        if len(set(self.tape_alphabet)) != len(self.tape_alphabet):
            raise MalformedInputError("tape: duplicate symbols")
        tape = set(self.tape_alphabet)
        if self.blank not in tape:
            raise MalformedInputError("blank: not a tape symbol")
        if self.blank in self.input_alphabet:
            raise MalformedInputError("blank: may not be an input symbol")
        if not set(self.input_alphabet) <= tape:
            raise MalformedInputError("input: not a subset of the tape alphabet")
        for q in (self.start, self.accept):
            if not 0 <= q < self.states:
                raise MalformedInputError(f"start/accept: state {q} out of range")
        raise_first_fault(self._faults, self.transitions)

    def _faults(self, transitions: Iterable[TmTransition]) -> Iterator[str]:
        """The first failing check of each faulty transition, in order."""
        tape = set(self.tape_alphabet)
        for src, read, dst, write, move in transitions:
            if not (0 <= src < self.states and 0 <= dst < self.states):
                yield "delta: state out of range"
            elif read not in tape or write not in tape:
                yield "delta: symbol not in tape alphabet"
            elif move not in _MOVE_CODE:
                yield f"delta: move must be one of L/R/S, got {move!r}"
            elif src == self.accept:
                yield "delta: accept state may not have outgoing transitions"

    # Built once per machine: decode_tm shares one TmSpec across every
    # word with the same encoding, so these are read-only by convention.
    @cached_property
    def _inputs(self) -> frozenset[str]:
        return frozenset(self.input_alphabet)

    @cached_property
    def _coding(self) -> _Coding:
        # The symbols a run can meet: the blank, the input symbols x can
        # spell (one character each), and those the moves read or write.
        # Only they get a code, so the codes stay in chr's range whatever
        # the size of the tape alphabet.
        met = {self.blank, *(s for s in self.input_alphabet if len(s) == 1)}
        met.update(sym for t in self.transitions for sym in (t[1], t[3]))
        code = {sym: chr(i) for i, sym in enumerate((s for s in self.tape_alphabet if s in met), _FIRST_CODE)}
        rows: dict[int, dict[str, list[tuple[int, str, int]]]] = {}
        for src, read, dst, write, move in sorted(self.transitions):
            rows.setdefault(src, {}).setdefault(code[read], []).append((dst, code[write], _SHIFT[move]))
        stuck: dict = {}  # one shared row for every state without moves
        return _Coding(
            codes={ord(s): c for s, c in code.items() if len(s) == 1},
            blank=code[self.blank],
            rows=tuple({c: tuple(moves) for c, moves in rows[q].items()} if q in rows else stuck
                       for q in range(self.states)),
        )


# --------------------------------------------------------------------------
# Bit-string encoding


def _canonical_layout_error(tm: TmSpec) -> str | None:
    expected_accept = 1 if tm.states > 1 else 0
    if tm.start != 0 or tm.accept != expected_accept:
        return f"start must be 0 and accept {expected_accept}"
    if not tm.tape_alphabet or tm.tape_alphabet[0] != "_" or tm.blank != "_":
        return "tape symbol 1 must be the blank '_'"
    if tm.input_alphabet != tm.tape_alphabet[1:]:
        return "input alphabet must be the tape alphabet minus the blank, in order"
    expected_names = tuple(str(i) for i in range(len(tm.input_alphabet)))
    if tm.input_alphabet != expected_names:
        return f"input symbols must be named {expected_names}"
    return None


def encode_tm(tm: TmSpec) -> str:
    """Unary-coded transition list: header 0^S 1 0^T 11, then transitions
    0^i 1 0^j 1 0^k 1 0^l 1 0^m (all indices 1-based, move L/R/S = 1/2/3)
    joined by 11, in sorted transition order."""
    problem = _canonical_layout_error(tm)
    if problem is not None:
        raise MalformedInputError(f"encode_tm requires the canonical layout: {problem}")
    sym_index = {sym: i + 1 for i, sym in enumerate(tm.tape_alphabet)}
    chunks = []
    for src, read, dst, write, move in sorted(
        tm.transitions, key=lambda t: (t[0], sym_index[t[1]], t[2], sym_index[t[3]], _MOVE_CODE[t[4]])
    ):
        chunks.append(
            "0" * (src + 1) + "1" + "0" * sym_index[read] + "1"
            + "0" * (dst + 1) + "1" + "0" * sym_index[write] + "1"
            + "0" * _MOVE_CODE[move]
        )
    header = "0" * tm.states + "1" + "0" * len(tm.tape_alphabet) + "11"
    return header + "11".join(chunks)


# header 0^S 1 0^T 11, then transitions 0^i 1 0^j 1 0^k 1 0^l 1 0^m joined by 11
_ENCODING = re.compile(r"0+10+11(?:(?:0+1){4}0+(?:11(?:0+1){4}0+)*)?")

# Distinct encodings whose decoded machine is kept.  Every word of a
# machine language repeats one ⟨M⟩, so a handful suffices; the bound
# keeps the memory fixed whatever words arrive.
_ENCODINGS_KEPT = 64


@lru_cache(maxsize=_ENCODINGS_KEPT)
def decode_tm(bits: str) -> TmSpec:
    """Inverse of encode_tm; raises MalformedWordError on any deviation
    from the scheme or an invalid resulting machine.

    Each distinct encoding is decoded once and the frozen TmSpec shared;
    a rejected one raises on every call, since a raise is not kept."""
    if not _ENCODING.fullmatch(bits):
        raise MalformedWordError("not a machine encoding 0^S 1 0^T 11 (transitions joined by 11)")
    states, tape_size, *fields = [len(run) for run in bits.split("1") if run]
    tape = ("_",) + tuple(str(i) for i in range(tape_size - 1))
    decoded: list[TmTransition] = []
    for t in range(0, len(fields), 5):
        src, read, dst, write, move = fields[t:t + 5]
        if src > states or dst > states:
            raise MalformedWordError(f"transition state index out of range 1..{states}")
        if read > tape_size or write > tape_size:
            raise MalformedWordError(f"transition symbol index out of range 1..{tape_size}")
        if move not in _MOVE_NAME:
            raise MalformedWordError(f"move code {move} not in 1..3")
        decoded.append((src - 1, tape[read - 1], dst - 1, tape[write - 1], _MOVE_NAME[move]))
    try:
        return TmSpec(
            states=states,
            input_alphabet=tape[1:],
            tape_alphabet=tape,
            blank="_",
            start=0,
            accept=1 if states > 1 else 0,
            transitions=frozenset(decoded),
        )
    except MalformedInputError as exc:
        raise MalformedWordError(f"decoded machine invalid: {exc}") from exc


# --------------------------------------------------------------------------
# Machine words and the three bounded-acceptance modes


@dataclass(frozen=True)
class MachineWord:
    machine_encoding: str
    x: str
    pad_count: int
    tm: TmSpec


def _parse(word: str) -> tuple[str, TmSpec, str, int]:
    """The encoding, machine, input and pad count of ⟨M⟩$x$aⁿ, or
    MalformedWordError."""
    parts = word.split("$")
    if len(parts) != 3:
        raise MalformedWordError("expected exactly two '$' separators")
    encoding, x, pads = parts
    tm = decode_tm(encoding)
    if not tm._inputs.issuperset(x):
        bad = next(c for c in x if c not in tm._inputs)
        raise MalformedWordError(f"input symbol {bad!r} not in the machine's input alphabet")
    if pads.count("a") != len(pads):
        raise MalformedWordError("padding must be a run of 'a'")
    return encoding, tm, x, len(pads)


def parse_machine_word(word: str) -> MachineWord:
    encoding, tm, x, n = _parse(word)
    return MachineWord(encoding, x, n, tm)


# The finished runs member_machine_language keeps, and their count as
# `_MEMO_CAP` counts them.  Each outcome is a pure function of its key,
# so threads racing on the two can misplace a clear but change no answer.
_runs: dict[tuple[str, str, str, int, int], bool] = {}
_held = 0


def member_machine_language(word: str, mode: str) -> bool:
    """Does the word's machine accept its input within the mode's budget?

    Malformed words are non-members.  When the configuration space
    exceeds `_MAX_CONFIGS`, or its tapes `_MAX_CELLS` cells, the checker
    raises ResourceLimitError instead of answering.

    A run sees only the machine, the mode, the configuration cap and a
    window of the initial tape: the first n+1 cells in NP mode, the first
    n in PSPACE mode, and in NL mode the ⌊log₂ n⌋ cells it may read plus
    the cell past them.  So each finished run's answer is kept, in one
    memo for all machines, under ⟨M⟩, the mode, the input letters in the
    window, its width (which with the mode fixes the step bound) and the
    cap: the words of a machine language repeat one ⟨M⟩ and share few
    windows.  The NP cut is exact: the head starts on cell 1, moves at
    most one cell per step, and moves only from a depth of at most n-1,
    so it never reads, writes or reaches a cell past n+1.  The cap still
    comes from the uncut width max(|x|, n+1), and the cut configurations
    match the uncut ones one to one, in the same order, so every answer,
    and every raise at the cap, is the same.  A raise is never kept.  The
    memo clears once it holds `_MEMO_CAP` entries, one for an e-bit ⟨M⟩
    and a w-cell window counted as 1 + (e + w) // 64.
    """
    global _held
    if mode not in ("NL", "NP", "PSPACE"):
        raise ValueError(f"mode must be NL, NP or PSPACE, got {mode!r}")
    if mode == "NL" and word.endswith("$"):
        return False  # no pads (log 0 is undefined) or malformed, whatever the machine
    try:
        encoding, tm, x, n = _parse(word)
    except MalformedWordError:
        return False
    if tm.start == tm.accept:
        return n > 0 or mode != "NL"  # accepted in zero steps, but log 0 is undefined
    if n < 1:
        return False  # no step to take, no cell to stand on, or log 0 undefined
    if mode == "NP":
        cells = n + 1
        width = max(len(x), cells)  # the uncut tape, whose width sets the cap
    elif mode == "PSPACE":
        cells = width = n
    else:
        # Reads start at cell 1 and the head moves one cell at a time, so
        # the cells read so far are always an interval [1, k]: at most
        # floor(log2 n) of them, then the cell past the budget, which has
        # no symbol to read.
        cells = n.bit_length() - 1
        width = cells + 1
    cap = min(_MAX_CONFIGS, _MAX_CELLS // width)
    key = (encoding, mode, x[:cells], cells, cap)
    accepted = _runs.get(key)
    if accepted is None:
        coding = tm._coding
        window = (x.translate(coding.codes) + coding.blank * cells)[:cells]
        if mode == "NL":
            window += _PAST
        accepted = _accepts(tm, mode, window, n if mode == "NP" else None, cap)
        if _held >= _MEMO_CAP:
            _runs.clear()
            _held = 0
        _held += 1 + (len(encoding) + cells) // 64
        _runs[key] = accepted
    return accepted


def _accepts(tm: TmSpec, mode: str, fresh: str, steps: int | None, cap: int) -> bool:
    """Layered breadth-first search over configurations (state, head,
    tape) from (start, 0, tape0) for a run into the accept state within
    `steps` steps (None: no step bound), raising ResourceLimitError once
    it has seen more than `cap` configurations.  The tape is a string of
    the machine's one-character codes; the start state is not the accept
    state.

    tape0 is `fresh`, except in NL mode, where every cell starts
    _UNREAD: such a cell reads as its `fresh` code, and the write that
    follows every read marks it read.  A position merely parked on is
    not read.  The head stays on the tape.  The frontier is a list, so
    configurations are visited in one fixed order and the cap is hit at
    the same point on every run.
    """
    tape0 = _UNREAD * len(fresh) if mode == "NL" else fresh
    coding = tm._coding
    rows, accept, last = coding.rows, tm.accept, len(tape0) - 1
    frontier = [(tm.start, 0, tape0)]
    seen = set(frontier)
    depth = 0
    while frontier and depth != steps:
        depth += 1
        layer, frontier = frontier, []
        for state, head, tape in layer:
            symbol = tape[head]
            if symbol == _UNREAD:
                symbol = fresh[head]
            for dst, write, shift in rows[state].get(symbol, ()):
                new_head = head + shift
                if not 0 <= new_head <= last:
                    continue
                if dst == accept:
                    return True
                cfg = (dst, new_head, tape[:head] + write + tape[head + 1:])
                if cfg not in seen:
                    seen.add(cfg)
                    frontier.append(cfg)
                    if len(seen) > cap:
                        raise ResourceLimitError(f"{mode}-mode configuration cap exceeded")
    return False


# --------------------------------------------------------------------------
# JSON wire format


def tm_to_json(tm: TmSpec) -> dict:
    return {
        "states": tm.states,
        "input": list(tm.input_alphabet),
        "tape": list(tm.tape_alphabet),
        "blank": tm.blank,
        "start": tm.start,
        "accept": tm.accept,
        "delta": [
            {"from": src, "read": read, "to": dst, "write": write, "move": move}
            for src, read, dst, write, move in sorted(tm.transitions)
        ],
    }


def tm_from_json(obj: object) -> TmSpec:
    obj = document(obj)
    states = require(obj, "states", is_int, "an integer")
    input_alphabet = require(obj, "input", is_chars, "a list of single-character strings")
    tape_alphabet = require(obj, "tape", is_chars, "a list of single-character strings")
    blank = require(obj, "blank", lambda v: isinstance(v, str) and len(v) == 1, "a single character")
    start = require(obj, "start", is_int, "an integer")
    accept = require(obj, "accept", is_int, "an integer")
    transitions = []
    for i, entry in entries(obj, "delta", ("from", "read", "to", "write", "move")):
        for key in ("from", "to"):
            if not is_int(entry[key]):
                raise MalformedInputError(f"delta[{i}].{key}: expected an integer")
        for key in ("read", "write", "move"):
            if not isinstance(entry[key], str):
                raise MalformedInputError(f"delta[{i}].{key}: expected a string")
        transitions.append((entry["from"], entry["read"], entry["to"], entry["write"], entry["move"]))
    return TmSpec(states, tuple(input_alphabet), tuple(tape_alphabet), blank, start, accept, frozenset(transitions))
