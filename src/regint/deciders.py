"""Decision procedures for regular-intersection emptiness.

Two problem families admit a genuine decision procedure instead of a
bounded witness search: words u$u' whose sides agree after erasing the
pad letter, and interleavings of two pad-equal unary words.  Each
decider's docstring gives its method.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Iterable, Iterator, Optional

from .automata import Dfa, Nfa, _bits, _reach, determinize, erase_letters, image, intersect_dfa
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

    An exact residue check runs first.  Only useful states lie on an
    accepting path, and a breadth-first walk of pair steps from the start
    through co-reaching states visits exactly them (a state that steps
    to a co-reaching one co-reaches), so K is the number it visits.  Let
    φ(q) be the counter along q's walk path and g the gcd, over the pair
    steps p -> r between useful states with shift s, of φ(p) + s - φ(r).
    Each such step keeps counter - φ ≡ 0 (mod g), so by induction every
    path from the start to q ends at a counter ≡ φ(q) (mod g).  Hence if
    no useful final f has φ(f) ≡ 0 (mod g), no path ends final at 0 and
    the answer is no.  If g = 0, every path to q ends at exactly φ(q),
    and the walk reaches f at φ(f), so the answer is yes iff some useful
    final f has φ(f) = 0.  Otherwise the counter search decides, masked
    to co-reaching states: it holds only states reached from the start.
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
    co_reach = _reach(t.finals, t.pred)
    # the residue check: potentials of the useful states, and the gcd of the steps' deviations
    phi = {a.start: 0}
    queue = [a.start]
    g = 0
    for q in queue:  # grows while it is read
        for shift in (0, 1, -1):
            for r in _bits(t.moves[shift][q] & co_reach):
                if r not in phi:
                    phi[r] = phi[q] + shift
                    queue.append(r)
                g = gcd(g, phi[q] + shift - phi[r])
    ends = [phi[f] for f in a.finals if f in phi]
    if g == 0:
        return 0 in ends
    if all(end % g for end in ends):
        return False
    cap = len(phi) ** 2  # K²: phi labels every useful state
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
                for r in _bits(t.moves[shift][q] & co_reach):
                    out[r] = out.get(r, 0) | moved
        todo = _add_new(seen, out)
    return False


def _add_new(seen: dict[int, int], nodes: dict[int, int]) -> dict[int, int]:
    """Add `nodes` to `seen` and return the part of `nodes` that is new."""
    fresh = {}
    for key, mask in nodes.items():
        mask &= ~seen.get(key, 0)
        if mask:
            fresh[key] = mask
            seen[key] = seen.get(key, 0) | mask
    return fresh


def _groups(start, labels, step, links: list) -> Iterator[tuple[int, dict[int, int]]]:
    """The groups of a least-word search, as (group, node set) in word order.

    A node set maps a key to a state bitmask.  `start` is the node set
    the empty word reaches, group 0, and `step(nodes, label)` the set
    one label further.  Each layer lists its groups in word order, and a
    node joins the group of the first word that reaches it, so every
    node sits in exactly one group: that of its least shortest word.  A
    group keeps only its (parent group, label) link, appended to the
    empty list `links` as the group is made; `_spell` reads a word back
    from them.
    """
    seen = dict(start)
    links.append((0, ""))
    layer = [(0, start)]
    while layer:
        nxt = []
        for g, nodes in layer:
            yield g, nodes
            for label in labels:
                fresh = _add_new(seen, step(nodes, label))
                if fresh:
                    nxt.append((len(links), fresh))
                    links.append((g, label))
        layer = nxt


def _spell(links: list, g: int) -> str:
    """The word of group `g`, read back along its links to group 0."""
    word = []
    while g:
        g, label = links[g]
        word.append(label)
    return "".join(reversed(word))


def _least_word(start, labels, step, found) -> Optional[str]:
    """The least shortest word w for which `found` holds, or None:
    `found` is asked of each group's node set in word order."""
    links: list = []
    for g, nodes in _groups(start, labels, step, links):
        if found(nodes):
            return _spell(links, g)
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
    start to q and from q' to qf.  The pair search runs in least-word
    groups, so it also notes the group that holds each fitting pair, and
    v is spelled from that group's links with no second search; the two
    pad lifts run the same group search.
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

    # side*$side*, side = sigma and the pad, as a two-state NFA; the
    # subset construction adds the dead state
    loops = frozenset((q, sym, q) for q in (0, 1) for sym in sigma | {pad_symbol})
    product = intersect_dfa(a, determinize(Nfa(2, a.alphabet, loops | {(0, SEPARATOR, 1)}, 0, frozenset({1}))))
    steps = frozenset((src, sym, dst) for (src, sym), dst in product.delta.items() if sym != SEPARATOR)
    base = Nfa(product.states, product.alphabet - {SEPARATOR}, steps, product.start, product.finals)
    t = erase_letters(base, {pad_symbol}).tables
    co_reach = _reach(t.finals, t.pred)
    # the split points, the prefix states whose separator successor q'
    # co-reaches, per q'
    targets: dict[int, int] = {}
    for q in range(product.states):
        qp = product.delta[(q, SEPARATOR)]
        if t.closures[qp] & co_reach:
            targets[qp] = targets.get(qp, 0) | 1 << q
    splits = sum(targets.values())  # the masks are disjoint
    xs = _reach(splits, t.pred)

    images: dict[tuple[str, int], int] = {}

    def pair_step(pairs: dict[int, int], sym: str) -> dict[int, int]:
        """Pairs (x, y) as {x: y-bitmask}, one common letter `sym`
        further; x must still reach a split point and y a final."""
        row = t.moves[sym]
        by_image: dict[int, int] = {}  # the x sides of each y-image
        for x, ys in pairs.items():
            key = (sym, ys)
            if key not in images:
                images[key] = image(ys, row) & co_reach
            ys = images[key]
            if ys:
                by_image[ys] = by_image.get(ys, 0) | 1 << x
        out: dict[int, int] = {}
        for ys, x_mask in by_image.items():
            for x2 in _bits(image(x_mask, row) & xs):
                out[x2] = out.get(x2, 0) | ys
        return out

    @functools.cache
    def explore(qp: int) -> tuple[dict[int, dict[int, int]], list]:
        """One search, run once per q', over the pairs the two sides
        reach on a common erased word from (start, q'), in least-word
        groups.  It returns the group of each fitting (q, qf), as
        {q: {qf: group}}, and the links that spell those groups when
        there is one."""
        start = {x: t.closures[qp] & co_reach for x in _bits(t.start & xs)}
        mine = targets[qp]
        fits: dict[int, dict[int, int]] = {}
        links: list = []
        for g, pairs in _groups(start, t.symbols, pair_step, links):
            for q, ys in pairs.items():
                if mine >> q & 1:
                    for y in _bits(ys & t.finals):
                        fits.setdefault(q, {})[y] = g
        return fits, links if fits else []

    for q in _bits(splits):
        fits, links = explore(product.delta[(q, SEPARATOR)])
        if q in fits:
            break
    else:
        return False, None
    qp = product.delta[(q, SEPARATOR)]
    qf = min(fits[q])
    v = _spell(links, fits[q][qf])
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
