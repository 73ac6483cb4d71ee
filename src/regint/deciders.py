"""Decision procedures for regular-intersection emptiness.

Two problem families admit a genuine decision procedure instead of a
bounded witness search: words u$u' whose sides agree after erasing the
pad letter, and interleavings of two pad-equal unary words.  Each
decider's docstring gives its method.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .automata import Dfa, Nfa, _bits, _reach, erase_letters, image, intersect_dfa
from .errors import AlphabetError
from .pda import pda_intersect_dfa  # noqa: F401  (unused; bench/tracer.py wraps it here by name)
from .symbols import SEPARATOR


def decide_intreg_unary_shuffled(a: Dfa, unary_symbol: str, pad_symbol: str) -> bool:
    """Does L(a) contain an interleaving of two pad-equal unary words?

    Such a word has even length and as many unary letters at even
    positions as at odd ones, so the search reads letter pairs with a
    counter: `a_` adds 1, `_a` subtracts 1, `aa` and `__` add 0, and each
    state keeps its counters as a bitmask, bit c + C for counter c.  The
    answer is yes iff a path of pair steps over the K useful states
    (reachable from the start, co-reaching a final) ends final at 0.

    Such a path exists with its counter in [-C, C] for C = K².  Take a
    shortest one, peaking at H.  For k = 0..H let u_k and d_k be the first
    and last points at counter k, so u_0 < ... < u_H <= d_H < ... < d_0.
    If H >= K², two levels k < k' share (state at u_k, state at d_k);
    cutting out the loops u_k..u_k' (+(k'-k)) and d_k'..d_k (-(k'-k))
    leaves a shorter path.  The trough is alike.  The order is needed: an
    (a_)^p start loop, __a_ exit and (_a)^(p-1) final loop peak at (p-1)².
    """
    for name, sym in (("unary", unary_symbol), ("pad", pad_symbol)):
        if len(sym) != 1:
            raise AlphabetError(f"{name} symbol must be a single character, got {sym!r}")
    if unary_symbol == pad_symbol:
        raise AlphabetError("unary and pad symbols must differ")
    expected = frozenset({unary_symbol, pad_symbol})
    if a.alphabet != expected:
        raise AlphabetError(
            f"automaton alphabet {sorted(a.alphabet)} is not {sorted(expected)}"
        )
    u, p, delta = unary_symbol, pad_symbol, a.delta
    # the pair steps, labelled with their counter shift
    steps = frozenset((q, shift, delta[(delta[(q, x)], y)]) for q in range(a.states)
                      for x, y, shift in ((u, u, 0), (p, p, 0), (u, p, 1), (p, u, -1)))
    t = Nfa(a.states, frozenset((0, 1, -1)), steps, a.start, a.finals).tables
    succ = [t.moves[0][q] | t.moves[1][q] | t.moves[-1][q] for q in range(a.states)]
    useful = _reach(t.start, succ) & _reach(t.finals, t.pred)
    cap = useful.bit_count() ** 2
    zero = 1 << cap
    full = (zero << cap + 1) - 1
    seen = {a.start: zero}
    todo = dict(seen)
    while todo:
        if any(todo.get(f, 0) & zero for f in a.finals):
            return True
        out: dict[int, int] = {}
        for q, mask in todo.items():
            for shift, moved in ((0, mask), (1, mask << 1 & full), (-1, mask >> 1)):
                for r in _bits(t.moves[shift][q] & useful):
                    out[r] = out.get(r, 0) | moved
        todo = _add_new(seen, out)
    return False


def _shape_dfa(full_alphabet: frozenset[str], side_letters: frozenset[str]) -> Dfa:
    """Three-state automaton for side* $ side* over the full alphabet."""
    delta: dict[tuple[int, str], int] = {}
    for sym in full_alphabet:
        if sym == SEPARATOR:
            delta[(0, sym)] = 1
            delta[(1, sym)] = 2
        elif sym in side_letters:
            delta[(0, sym)] = 0
            delta[(1, sym)] = 1
        else:
            delta[(0, sym)] = 2
            delta[(1, sym)] = 2
        delta[(2, sym)] = 2
    return Dfa(3, full_alphabet, delta, 0, frozenset({1}))


def _add_new(seen: dict[int, int], nodes: dict[int, int]) -> dict[int, int]:
    """Add `nodes` to `seen` and return the part of `nodes` that is new."""
    fresh = {}
    for key, mask in nodes.items():
        mask &= ~seen.get(key, 0)
        if mask:
            fresh[key] = mask
            seen[key] = seen.get(key, 0) | mask
    return fresh


def _least_word(start, labels, step, found) -> Optional[str]:
    """The least shortest word w for which `found` holds, or None.

    A node set maps a key to a state bitmask.  `start` is the node set
    the empty word reaches and `step(nodes, label)` the set one label
    further.  Each layer lists (group, node set) pairs in word order,
    and a node joins the group of the first word that reaches it, so
    every node sits in the group of its least shortest word and `found`
    is asked of each group in that order.  A group keeps only its
    (parent group, label) link; the word is spelled once, at the end.
    """
    seen = dict(start)
    links = [(0, "")]
    layer = [(0, start)]
    while layer:
        nxt = []
        for g, nodes in layer:
            if found(nodes):
                word = []
                while g:
                    g, label = links[g]
                    word.append(label)
                return "".join(reversed(word))
            for label in labels:
                fresh = _add_new(seen, step(nodes, label))
                if fresh:
                    nxt.append((len(links), fresh))
                    links.append((g, label))
        layer = nxt
    return None


def decide_intreg_sequential_string_eq(
    a: Dfa, alphabet: Iterable[str], pad_symbol: str
) -> tuple[bool, Optional[str]]:
    """Does L(a) contain a word u$u' whose sides have equal pad-erased
    images?  On success the second component is such a witness.

    The product P of `a` with the separator-shape automaton is split at
    its separator moves, and pads become silent moves.  A prefix state q
    with separator successor q' and a final qf fit when some erased word
    v leads from the start to q and from q' to qf; one search over state
    pairs per q' finds every fitting (q, qf).  The witness is fixed: the
    first fitting (q, qf) in P's state order, v the least of the
    shortest common erased words, and u and u' the least shortest words
    of P, pads reinserted, whose erasure is v and which lead from the
    start to q and from q' to qf.
    """
    sigma = frozenset(alphabet)
    for sym in sigma | {pad_symbol}:
        if len(sym) != 1:
            raise AlphabetError(f"symbols must be single characters, got {sym!r}")
    if pad_symbol in sigma or SEPARATOR in sigma or pad_symbol == SEPARATOR:
        raise AlphabetError("pad symbol and separator must lie outside the base alphabet")
    needed = sigma | {pad_symbol, SEPARATOR}
    if not needed <= a.alphabet:
        raise AlphabetError(
            f"automaton alphabet {sorted(a.alphabet)} must cover {sorted(needed)}"
        )

    product = intersect_dfa(a, _shape_dfa(a.alphabet, sigma | {pad_symbol}))
    steps = frozenset((src, sym, dst) for (src, sym), dst in product.delta.items() if sym != SEPARATOR)
    base = Nfa(product.states, product.alphabet - {SEPARATOR}, steps, product.start, product.finals)
    t = erase_letters(base, {pad_symbol}).tables
    co_reach = _reach(t.finals, t.pred)
    # split points: the prefix states whose separator successor co-reaches
    splits = sum(1 << q for q in range(product.states)
                 if t.closures[product.delta[(q, SEPARATOR)]] & co_reach)
    xs = _reach(splits, t.pred)

    def pair_step(pairs: dict[int, int], syms: Iterable[str]) -> dict[int, int]:
        """Pairs (x, y) as {x: y-bitmask}, one common letter of `syms`
        further; x must still reach a split point and y a final."""
        out: dict[int, int] = {}
        for sym in syms:
            row = t.moves[sym]
            for x, ys in pairs.items():
                ys = image(ys, row) & co_reach
                if ys:
                    for x2 in _bits(row[x] & xs):
                        out[x2] = out.get(x2, 0) | ys
        return out

    def start_pairs(qp: int) -> dict[int, int]:
        return {x: t.closures[qp] & co_reach for x in _bits(t.start & xs)}

    # every pair the two sides reach on a common erased word, per q'
    reached: dict[int, dict[int, int]] = {}

    def pairs_from(qp: int) -> dict[int, int]:
        if qp not in reached:
            seen = start_pairs(qp)
            todo = dict(seen)
            while todo:
                todo = _add_new(seen, pair_step(todo, t.symbols))
            reached[qp] = seen
        return reached[qp]

    for q in _bits(splits):
        qp = product.delta[(q, SEPARATOR)]
        ends = pairs_from(qp).get(q, 0) & t.finals
        if ends:
            break
    else:
        return False, None
    qf = next(_bits(ends))
    v = _least_word(start_pairs(qp), t.symbols, pair_step,
                    lambda pairs: pairs.get(q, 0) >> qf & 1)
    moves = product.tables.moves

    def lift_step(nodes: dict[int, int], sym: str) -> dict[int, int]:
        """(position in v, state) nodes as {position: state bitmask}."""
        if sym == pad_symbol:
            return {pos: image(states, moves[sym]) for pos, states in nodes.items()}
        return {pos + 1: image(states, moves[sym])
                for pos, states in nodes.items() if pos < len(v) and v[pos] == sym}

    def lift(source: int, goal: int) -> str:
        return _least_word({0: 1 << source}, sorted(set(v) | {pad_symbol}), lift_step,
                           lambda nodes: nodes.get(len(v), 0) >> goal & 1)

    return True, lift(product.start, q) + SEPARATOR + lift(qp, qf)
