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

from ..errors import MalformedInputError, MalformedWordError, ResourceLimitError

# 1-based wire codes for head moves, and the head shift of each move.
_MOVE_CODE = {"L": 1, "R": 2, "S": 3}
_MOVE_NAME = {1: "L", 2: "R", 3: "S"}
_SHIFT = {"L": -1, "R": 1, "S": 0}

# (from state, read symbol, to state, written symbol, move)
TmTransition = tuple[int, str, int, str, str]


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
        for src, read, dst, write, move in self.transitions:
            if not (0 <= src < self.states and 0 <= dst < self.states):
                raise MalformedInputError("delta: state out of range")
            if read not in tape or write not in tape:
                raise MalformedInputError("delta: symbol not in tape alphabet")
            if move not in _MOVE_CODE:
                raise MalformedInputError(f"delta: move must be one of L/R/S, got {move!r}")
            if src == self.accept:
                raise MalformedInputError("delta: accept state may not have outgoing transitions")

    def moves_from(self) -> dict[tuple[int, str], list[TmTransition]]:
        return {key: list(moves) for key, moves in self._moves.items()}

    # Built once per machine: decode_tm shares one TmSpec across every
    # word with the same encoding, so these are read-only by convention.
    @cached_property
    def _moves(self) -> dict[tuple[int, str], tuple[TmTransition, ...]]:
        out: dict[tuple[int, str], list[TmTransition]] = {}
        for t in sorted(self.transitions):
            out.setdefault((t[0], t[1]), []).append(t)
        return {key: tuple(moves) for key, moves in out.items()}

    @cached_property
    def _inputs(self) -> frozenset[str]:
        return frozenset(self.input_alphabet)


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


def parse_machine_word(word: str) -> MachineWord:
    parts = word.split("$")
    if len(parts) != 3:
        raise MalformedWordError("expected exactly two '$' separators")
    encoding, x, pads = parts
    tm = decode_tm(encoding)
    inputs = tm._inputs
    for c in x:
        if c not in inputs:
            raise MalformedWordError(f"input symbol {c!r} not in the machine's input alphabet")
    if pads.count("a") != len(pads):
        raise MalformedWordError("padding must be a run of 'a'")
    return MachineWord(encoding, x, len(pads), tm)


def member_machine_language(word: str, mode: str, max_configs: int = 200_000) -> bool:
    """Does the word's machine accept its input within the mode's budget?

    Malformed words are non-members.  When the configuration space
    exceeds max_configs the checker raises ResourceLimitError instead
    of answering.
    """
    if mode not in ("NL", "NP", "PSPACE"):
        raise ValueError(f"mode must be NL, NP or PSPACE, got {mode!r}")
    try:
        mw = parse_machine_word(word)
    except MalformedWordError:
        return False
    tm, x, n = mw.tm, mw.x, mw.pad_count
    if mode == "NP":
        width = max(len(x), n + 1)  # the head cannot pass cell n+1 in n steps
        tape = tuple((x + tm.blank * width)[:width])
        return _accepts(tm, tape, tape, n, max_configs, mode)
    if mode == "PSPACE":
        # the head stays on the first n cells, and the cells past them keep
        # their initial content, so the tape holds only those n
        if n < 1:
            return tm.start == tm.accept  # no cell for the head to stand on
        tape = tuple((x + tm.blank * n)[:n])
        return _accepts(tm, tape, tape, None, max_configs, mode)
    if n < 1:
        return False  # log of 0 undefined; such words are non-members
    # Reads start at cell 1, so the cells read so far are always an
    # interval [1, k]: None marks the cells past it, and the one cell past
    # the budget of floor(log2 n) reads has no symbol to read.
    cells = n.bit_length() - 1
    fresh = tuple((x + tm.blank * cells)[:cells]) + (None,)
    return _accepts(tm, (None,) * (cells + 1), fresh, None, max_configs, mode)


def _accepts(
    tm: TmSpec, tape0: tuple, fresh: tuple, steps: int | None, max_configs: int, mode: str
) -> bool:
    """Layered breadth-first search over configurations (state, head,
    tape) from (start, 0, tape0) for a run into the accept state within
    `steps` steps (None: no step bound).

    The head stays on the tape.  A None cell has not been read yet
    (NL mode): it reads as its `fresh` symbol, and the write that
    follows every read marks it read.  A position merely parked on is
    not read.  The frontier is a list, so configurations are visited in
    one fixed order and the cap is hit at the same point on every run.
    """
    if tm.start == tm.accept:
        return True
    moves = tm._moves
    frontier = [(tm.start, 0, tape0)]
    seen = set(frontier)
    depth = 0
    while frontier and depth != steps:
        depth += 1
        layer, frontier = frontier, []
        for state, head, tape in layer:
            symbol = tape[head]
            if symbol is None:
                symbol = fresh[head]
            for _, _, dst, write, move in moves.get((state, symbol), ()):
                new_head = head + _SHIFT[move]
                if not 0 <= new_head < len(tape):
                    continue
                if dst == tm.accept:
                    return True
                cfg = (dst, new_head, tape[:head] + (write,) + tape[head + 1:])
                if cfg not in seen:
                    seen.add(cfg)
                    frontier.append(cfg)
                    if len(seen) > max_configs:
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
    if not isinstance(obj, dict):
        raise MalformedInputError("document: expected a JSON object")
    states = obj.get("states")
    if not isinstance(states, int) or isinstance(states, bool):
        raise MalformedInputError("states: expected an integer")
    for key in ("input", "tape"):
        value = obj.get(key)
        if not isinstance(value, list) or not all(isinstance(s, str) and len(s) == 1 for s in value):
            raise MalformedInputError(f"{key}: expected a list of single-character strings")
    blank = obj.get("blank")
    if not isinstance(blank, str) or len(blank) != 1:
        raise MalformedInputError("blank: expected a single character")
    for key in ("start", "accept"):
        if not isinstance(obj.get(key), int) or isinstance(obj.get(key), bool):
            raise MalformedInputError(f"{key}: expected an integer")
    delta = obj.get("delta")
    if not isinstance(delta, list):
        raise MalformedInputError("delta: expected a list")
    transitions = []
    for i, entry in enumerate(delta):
        if not isinstance(entry, dict):
            raise MalformedInputError(f"delta[{i}]: expected an object")
        for key in ("from", "read", "to", "write", "move"):
            if key not in entry:
                raise MalformedInputError(f"delta[{i}].{key}: missing")
        for key in ("from", "to"):
            if not isinstance(entry[key], int) or isinstance(entry[key], bool):
                raise MalformedInputError(f"delta[{i}].{key}: expected an integer")
        for key in ("read", "write", "move"):
            if not isinstance(entry[key], str):
                raise MalformedInputError(f"delta[{i}].{key}: expected a string")
        transitions.append(
            (entry["from"], entry["read"], entry["to"], entry["write"], entry["move"])
        )
    return TmSpec(
        states=states,
        input_alphabet=tuple(obj["input"]),
        tape_alphabet=tuple(obj["tape"]),
        blank=blank,
        start=obj["start"],
        accept=obj["accept"],
        transitions=frozenset(transitions),
    )
