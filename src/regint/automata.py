"""Regular expressions and finite automata.

Regexes use `~` for the empty set, `_` for the empty word, `|` for
alternation, juxtaposition for concatenation and `*` for iteration,
with star binding tighter than concatenation and concatenation tighter
than alternation.  Both metacharacters exist so that `~` and `_` stay
available as ordinary letters of *encoded* languages elsewhere in the
package; inside a regex they are never literals.

Automata are immutable and safe to share between threads.  NFAs may
carry silent transitions (label ``None``); DFAs are total over their
alphabet, with any required dead state materialized on construction.
Both kinds list their moves as `transitions` and share one move check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (AlphabetError, MalformedInputError, RegexSyntaxError, document, entries, is_chars, is_int,
                     raise_first_fault, require)
from .symbols import METACHARS


# --------------------------------------------------------------------------
# Regex ASTs


@dataclass(frozen=True)
class EmptySet:
    pass


@dataclass(frozen=True)
class EmptyWord:
    pass


@dataclass(frozen=True)
class Lit:
    symbol: str


@dataclass(frozen=True)
class Concat:
    left: "RegexNode"
    right: "RegexNode"


@dataclass(frozen=True)
class Alt:
    left: "RegexNode"
    right: "RegexNode"


@dataclass(frozen=True)
class Star:
    child: "RegexNode"


RegexNode = Union[EmptySet, EmptyWord, Lit, Concat, Alt, Star]


@dataclass(frozen=True)
class RegexAst:
    """A parsed regex together with the alphabet it was parsed against."""

    root: RegexNode
    alphabet: frozenset[str]


class _Group:
    """A group being parsed: the alternation of its closed branches, the
    concatenation of the open branch, and the open branch's last atom,
    which a following star applies to."""

    def __init__(self, opening: Optional[int]):
        self.opening = opening
        self.alt: Optional[RegexNode] = None
        self.cat: Optional[RegexNode] = None
        self.last: Optional[RegexNode] = None

    def push(self, atom: RegexNode) -> None:
        if self.last is not None:
            self.cat = self.last if self.cat is None else Concat(self.cat, self.last)
        self.last = atom

    def close_branch(self, pos: int) -> RegexNode:
        """The group's node so far; an empty open branch is an error."""
        if self.last is None:
            raise RegexSyntaxError("empty expression", pos)
        branch = self.last if self.cat is None else Concat(self.cat, self.last)
        return branch if self.alt is None else Alt(self.alt, branch)


def parse_regex(text: str, alphabet: Iterable[str]) -> RegexAst:
    """Parse `text` over `alphabet` into an ast.

    Raises RegexSyntaxError (with position) on bad syntax or on a
    literal outside the alphabet, and AlphabetError if the alphabet
    itself contains a metacharacter.
    """
    alpha = frozenset(alphabet)
    bad = alpha & METACHARS
    if bad:
        raise AlphabetError(f"alphabet may not contain metacharacters: {sorted(bad)}")
    for sym in alpha:
        if len(sym) != 1:
            raise AlphabetError(f"alphabet symbols must be single characters: {sym!r}")

    # one left-to-right scan; each open group is a frame on `groups`,
    # the whole text the bottom one, so nesting depth costs no recursion
    groups = [_Group(None)]
    for pos, c in enumerate(text):
        group = groups[-1]
        if c == "(":
            groups.append(_Group(pos))
        elif c == "|":
            group.alt, group.cat, group.last = group.close_branch(pos), None, None
        elif c == ")":
            node = group.close_branch(pos)
            if len(groups) == 1:
                raise RegexSyntaxError("unexpected trailing input", pos)
            groups.pop()
            groups[-1].push(node)
        elif c == "*":
            if group.last is None:
                raise RegexSyntaxError("star needs an operand", pos)
            group.last = Star(group.last)
        elif c == "~":
            group.push(EmptySet())
        elif c == "_":
            group.push(EmptyWord())
        elif c in alpha:
            group.push(Lit(c))
        else:
            raise RegexSyntaxError(f"literal {c!r} not in alphabet", pos)
    root = groups[-1].close_branch(len(text))
    if len(groups) > 1:
        raise RegexSyntaxError("unclosed group", groups[-1].opening)
    return RegexAst(root, alpha)


# --------------------------------------------------------------------------
# Automata


Transition = tuple[int, Optional[str], int]


def _transition_order(t: Transition) -> tuple:
    """The codec order: automaton_to_json lists transitions in this order."""
    return (t[0], (t[1] is not None, t[1] or ""), t[2])


def _check_states(states: int, start: int, finals: Iterable[int]) -> None:
    """The state-count, start and finals checks of every automaton kind."""
    if states < 1:
        raise MalformedInputError("states: need at least one state")
    if not 0 <= start < states:
        raise MalformedInputError(f"start: state {start} out of range")
    for f in finals:
        if not 0 <= f < states:
            raise MalformedInputError(f"finals: state {f} out of range")


class _Compiled:
    """What Nfa and Dfa share: both list their moves as `transitions`,
    checked by one rule (the first fault in codec order) and compiled."""

    def __post_init__(self):
        _check_states(self.states, self.start, self.finals)
        raise_first_fault(self._faults, self.transitions, _transition_order)

    def _faults(self, transitions: Iterable[Transition]) -> Iterator[str]:
        """The first failing check of each faulty transition, in order."""
        for src, label, dst in transitions:
            if not (0 <= src < self.states and 0 <= dst < self.states):
                yield f"transitions: state out of range in ({src}, {label!r}, {dst})"
            elif label is not None and label not in self.alphabet:
                yield f"transitions: label {label!r} not in alphabet"

    @cached_property
    def tables(self) -> Tables:
        """This automaton in int-indexed form, built on first use and kept."""
        return _compile(self)


@dataclass(frozen=True)
class Nfa(_Compiled):
    """Nondeterministic finite automaton; label None means a silent move."""

    states: int
    alphabet: frozenset[str]
    transitions: frozenset[Transition]
    start: int
    finals: frozenset[int]


@dataclass(frozen=True, eq=True)
class Dfa(_Compiled):
    """Deterministic finite automaton, total over its alphabet."""

    states: int
    alphabet: frozenset[str]
    delta: Mapping[tuple[int, str], int] = field(hash=False)
    start: int
    finals: frozenset[int]

    @property
    def transitions(self) -> frozenset[Transition]:
        """The moves of `delta` as (state, letter, state) triples."""
        return frozenset((src, sym, dst) for (src, sym), dst in self.delta.items())

    def __post_init__(self):
        super().__post_init__()
        # every key is a distinct in-range (state, letter or None) pair, so the count
        # alone decides totality; the walk names a missing move, or else a key is silent
        if len(self.delta) != self.states * len(self.alphabet):
            letters = sorted(self.alphabet)
            for q in range(self.states):
                for sym in letters:
                    if (q, sym) not in self.delta:
                        raise MalformedInputError(f"transitions: missing move for state {q} on {sym!r}")
            raise MalformedInputError("transitions: silent moves are not allowed in a dfa")


Automaton = Union[Nfa, Dfa]


def _bits(mask: int) -> Iterator[int]:
    """The states in the bitmask `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(states: int, edges: Sequence[int]) -> int:
    """Union of the bitmasks edges[q] over the states q in `states`."""
    out = 0
    while states:  # _bits inlined: this is the hottest loop of every search
        low = states & -states
        out |= edges[low.bit_length() - 1]
        states ^= low
    return out


def _reach(seed: int, edges: Sequence[int]) -> int:
    """States reachable from the bitmask `seed` along `edges`."""
    seen = todo = seed
    while todo:
        todo = image(todo, edges) & ~seen
        seen |= todo
    return seen


@dataclass(frozen=True)
class Tables:
    """An automaton in int-indexed form.  A set of states is an int
    bitmask with bit q for state q; `start` and every `moves` entry are
    closed under silent moves, so stepping never closes again."""

    symbols: tuple[str, ...]  # the alphabet, sorted
    closures: tuple[int, ...]  # closures[q]: silent closure of {q}
    moves: Mapping[str, tuple[int, ...]]  # moves[sym][q]: closed successors of q
    start: int
    finals: int

    def step(self, states: int, sym: str) -> int:
        return image(states, self.moves[sym])

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """pred[p]: states q with p in some moves[sym][q].  Built on first
        read, since only the backward searches (`is_empty`, the
        enumerator, the deciders) need it."""
        pred = [0] * len(self.closures)
        for row in self.moves.values():
            for q, succ in enumerate(row):
                for p in _bits(succ):
                    pred[p] |= 1 << q
        return tuple(pred)


def _compile(automaton: Automaton) -> Tables:
    n = automaton.states
    symbols = tuple(sorted(automaton.alphabet))
    transitions = automaton.transitions  # a Dfa builds its triples on each read
    silent = [0] * n
    for src, label, dst in transitions:
        if label is None:
            silent[src] |= 1 << dst
    # a state with no silent move is its own closure, as every state of a DFA is
    closures = tuple(_reach(1 << q, silent) if silent[q] else 1 << q for q in range(n))
    rows = {sym: [0] * n for sym in symbols}
    for src, label, dst in transitions:
        if label is not None:
            rows[label][src] |= closures[dst]
    moves = {sym: tuple(row) for sym, row in rows.items()}
    finals = sum(1 << q for q in automaton.finals)
    return Tables(symbols, closures, moves, closures[automaton.start], finals)


def closure(nfa: Nfa, states: Iterable[int]) -> frozenset[int]:
    """States reachable from `states` by silent moves alone."""
    seed = sum(1 << q for q in set(states))
    return frozenset(_bits(image(seed, nfa.tables.closures)))


def regex_to_nfa(ast: RegexAst) -> Nfa:
    """Compile an ast to an NFA with silent moves (Thompson-style)."""
    transitions: list[Transition] = []
    counter = 0
    # post-order walk on an explicit stack: a node is pushed bare, then
    # again, under its children, with its (entry, exit) pair, or with ()
    # for a Concat, whose pair is its left entry and right exit.  Alt and
    # Star number their pair before their children, leaves on the visit,
    # so numbering follows a left-to-right pre-order.
    built: list[tuple[int, int]] = []  # (entry, exit) of finished subtrees
    stack: list[tuple[RegexNode, object]] = [(ast.root, None)]
    while stack:
        node, ends = stack.pop()
        if ends is not None:  # the children are built: link them
            if isinstance(node, Star):
                s, t = ends
                c_in, c_out = built.pop()
                transitions += [(s, None, c_in), (c_out, None, t), (s, None, t), (c_out, None, c_in)]
            else:
                r_in, r_out = built.pop()
                l_in, l_out = built.pop()
                if isinstance(node, Concat):
                    transitions.append((l_out, None, r_in))
                    ends = (l_in, r_out)
                else:
                    s, t = ends
                    transitions += [(s, None, l_in), (l_out, None, t), (s, None, r_in), (r_out, None, t)]
            built.append(ends)
        elif isinstance(node, Concat):
            stack += [(node, ()), (node.right, None), (node.left, None)]
        elif isinstance(node, Alt):
            stack += [(node, (counter, counter + 1)), (node.right, None), (node.left, None)]
            counter += 2
        elif isinstance(node, Star):
            stack += [(node, (counter, counter + 1)), (node.child, None)]
            counter += 2
        else:
            s, t = counter, counter + 1
            if isinstance(node, Lit):
                transitions.append((s, node.symbol, t))
            elif isinstance(node, EmptyWord):
                transitions.append((s, None, t))
            elif not isinstance(node, EmptySet):
                raise TypeError(f"not a regex node: {node!r}")
            built.append((s, t))
            counter += 2
    start, final = built.pop()
    return Nfa(
        states=counter,
        alphabet=ast.alphabet,
        transitions=frozenset(transitions),
        start=start,
        finals=frozenset({final}),
    )


def _number(start, symbols: Sequence[str], step: Callable) -> tuple[list, dict[tuple[int, str], int]]:
    """Number the states reachable from `start` breadth-first, trying
    `symbols` in order: state i is order[i], and delta[(i, sym)] is the
    number of step(order[i], sym)."""
    index = {start: 0}
    order = [start]
    delta: dict[tuple[int, str], int] = {}
    # `order` grows while it is walked, so it is its own breadth-first queue
    for src, state in enumerate(order):
        for sym in symbols:
            target = step(state, sym)
            if target not in index:
                index[target] = len(order)
                order.append(target)
            delta[(src, sym)] = index[target]
    return order, delta


def determinize(nfa: Nfa) -> Dfa:
    """Subset-construct an equivalent total DFA (reachable part only)."""
    t = nfa.tables
    order, delta = _number(t.start, t.symbols, t.step)
    finals = frozenset(i for i, subset in enumerate(order) if subset & t.finals)
    return Dfa(len(order), nfa.alphabet, delta, 0, finals)


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    return Nfa(dfa.states, dfa.alphabet, dfa.transitions, dfa.start, dfa.finals)


def accepts(automaton: Automaton, word: str) -> bool:
    """Membership test.  Symbols outside the alphabet raise AlphabetError."""
    for c in word:
        if c not in automaton.alphabet:
            raise AlphabetError(f"symbol {c!r} not in automaton alphabet")
    t = automaton.tables
    current = t.start
    for c in word:
        current = t.step(current, c)
        if not current:
            return False
    return bool(current & t.finals)


def intersect_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Product DFA for L(a) ∩ L(b); reachable product states only."""
    if a.alphabet != b.alphabet:
        raise AlphabetError("intersect_dfa requires identical alphabets")
    order, delta = _number((a.start, b.start), sorted(a.alphabet),
                           lambda pair, sym: (a.delta[(pair[0], sym)], b.delta[(pair[1], sym)]))
    finals = frozenset(i for i, (qa, qb) in enumerate(order) if qa in a.finals and qb in b.finals)
    return Dfa(len(order), a.alphabet, delta, 0, finals)


def is_empty(automaton: Automaton) -> bool:
    """True iff no final state is reachable (silent moves included)."""
    t = automaton.tables
    return not t.start & _reach(t.finals, t.pred)


def erase_letters(automaton: Automaton, erase: Iterable[str]) -> Nfa:
    """Image under the homomorphism sending each symbol in `erase` to the
    empty word and fixing the rest: erased labels become silent moves."""
    erase_set = frozenset(erase)
    extra = erase_set - automaton.alphabet
    if extra:
        raise AlphabetError(f"cannot erase symbols outside the alphabet: {sorted(extra)}")
    transitions = frozenset((src, None if label in erase_set else label, dst)
                            for src, label, dst in automaton.transitions)
    return Nfa(automaton.states, automaton.alphabet - erase_set, transitions, automaton.start, automaton.finals)


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Language equality.  Walks pairs of state sets breadth-first from
    the two start sets, stepping each side on its compiled tables, and
    stops at the first pair where exactly one side holds a final state;
    NFAs are taken as they are, so no DFA is built."""
    if a.alphabet != b.alphabet:
        raise AlphabetError("equivalent requires identical alphabets")
    ta, tb = a.tables, b.tables
    pairs = [(ta.start, tb.start)]
    seen = set(pairs)
    for x, y in pairs:  # grows while walked: a breadth-first queue
        if bool(x & ta.finals) != bool(y & tb.finals):
            return False
        for sym in ta.symbols:
            nxt = (ta.step(x, sym), tb.step(y, sym))
            if nxt not in seen:
                seen.add(nxt)
                pairs.append(nxt)
    return True


# --------------------------------------------------------------------------
# JSON wire format


def automaton_to_json(automaton: Automaton) -> dict:
    """Serialize to the interchange dict; key order and sorting are stable."""
    triples = sorted(automaton.transitions, key=_transition_order)
    return {
        "kind": "dfa" if isinstance(automaton, Dfa) else "nfa",
        "alphabet": sorted(automaton.alphabet),
        "states": automaton.states,
        "start": automaton.start,
        "finals": sorted(automaton.finals),
        "transitions": [{"from": src, "on": label, "to": dst} for src, label, dst in triples],
    }


def automaton_from_json(obj: object) -> Automaton:
    """Parse and validate the interchange dict.

    Raises MalformedInputError naming the offending field; for the dfa
    kind the transition table must be total and single-valued.
    """
    obj = document(obj)
    kind = obj.get("kind")
    if kind not in ("nfa", "dfa"):
        raise MalformedInputError(f"kind: expected 'nfa' or 'dfa', got {kind!r}")
    alphabet = require(obj, "alphabet", is_chars, "a list of single-character strings")
    if len(set(alphabet)) != len(alphabet):
        raise MalformedInputError("alphabet: duplicate symbols")
    states = require(obj, "states", lambda v: is_int(v) and v >= 1, "a positive integer")
    start = require(obj, "start", is_int, "an integer")
    finals = require(obj, "finals", lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers")
    triples: list[Transition] = []
    for i, entry in entries(obj, "transitions", ("from", "on", "to")):
        src, label, dst = entry["from"], entry["on"], entry["to"]
        if not (is_int(src) and is_int(dst)):
            raise MalformedInputError(f"transitions[{i}]: 'from' and 'to' must be integers")
        if label is not None and not (isinstance(label, str) and len(label) == 1):
            raise MalformedInputError(f"transitions[{i}].on: expected a single character or null")
        triples.append((src, label, dst))
    if kind == "nfa":
        return Nfa(states, frozenset(alphabet), frozenset(triples), start, frozenset(finals))
    delta: dict[tuple[int, str], int] = {}
    for i, (src, label, dst) in enumerate(triples):
        if label is None:
            raise MalformedInputError(f"transitions[{i}].on: silent moves are not allowed in a dfa")
        if (src, label) in delta:
            raise MalformedInputError(f"transitions[{i}]: duplicate move for state {src} on {label!r}")
        delta[(src, label)] = dst
    return Dfa(states, frozenset(alphabet), delta, start, frozenset(finals))
