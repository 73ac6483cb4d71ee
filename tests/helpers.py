"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own decision paths:
shortest members come from Dijkstra/BFS over product configurations,
unary verdicts also from the PDA grammar route (counter_pda), tilings
are re-checked grid by grid, and PCP solutions are verified by direct
concatenation.  Where an oracle is itself nontrivial it is
grounded against literal enumeration at small scale in the unit tests.
"""

import heapq
import itertools
from collections import deque

from regint.automata import Dfa, Nfa, _bits, _reach, determinize, erase_letters, image, intersect_dfa
from regint.deciders import _add_new, _least_word
from regint.errors import MalformedWordError, ResourceLimitError
from regint.pda import Pda
from regint.problems import PcpInstance, TmSpec, decode_tm, interleave, pad_to_common
from regint.problems.tiling import Tiling, TilingInstance, validate_tiling
from regint.reductions import WHITE, normalize_tm, reduce_ntm_to_tiles
from regint.symbols import SEPARATOR

# ---------------------------------------------------------------------------
# DFA builders


def chain_dfa(word, alphabet):
    """Total DFA accepting exactly {word}."""
    n = len(word)
    dead = n + 1
    delta = {}
    for s in range(n + 2):
        for sym in alphabet:
            delta[(s, sym)] = dead
    for i, ch in enumerate(word):
        delta[(i, ch)] = i + 1
    return Dfa(n + 2, frozenset(alphabet), delta, 0, frozenset({n}))


def random_dfa(rng, alphabet, max_states=6, min_states=1, final_share=0.5):
    n = rng.randint(min_states, max_states)
    delta = {}
    for s in range(n):
        for sym in alphabet:
            delta[(s, sym)] = rng.randrange(n)
    finals = frozenset(s for s in range(n) if rng.random() < final_share)
    return Dfa(n, frozenset(alphabet), delta, 0, finals)


# ---------------------------------------------------------------------------
# Shortest-member oracles for the two decidable problem languages


def seq_shortest_member(dfa, sigma, pad):
    """Length of the shortest u$v in L(dfa) whose erased sides agree,
    or None when no such word exists.

    One Dijkstra run per $-transition of the DFA: node (x, y) means x
    has walked u so far and y has walked v; a pad on either side costs
    1, a shared sigma letter costs 2, and the goal is x back at the
    $-source with y final (total length = cost + 1 for the $).
    """
    best = None
    for x0 in range(dfa.states):
        y0 = dfa.delta[(x0, "$")]
        dist = {(dfa.start, y0): 0}
        heap = [(0, dfa.start, y0)]
        while heap:
            c, x, y = heapq.heappop(heap)
            if c > dist.get((x, y), 1 << 60):
                continue
            if x == x0 and y in dfa.finals:
                total = c + 1
                if best is None or total < best:
                    best = total
                break
            moves = [(1, dfa.delta[(x, pad)], y), (1, x, dfa.delta[(y, pad)])]
            for s in sigma:
                moves.append((2, dfa.delta[(x, s)], dfa.delta[(y, s)]))
            for w, x2, y2 in moves:
                if c + w < dist.get((x2, y2), 1 << 60):
                    dist[(x2, y2)] = c + w
                    heapq.heappush(heap, (c + w, x2, y2))
    return best


def unary_shortest_member(dfa, unary, pad, diff_cap):
    """Shortest member of L(dfa) whose odd and even positions carry the
    same number of unary letters, or None.

    BFS over (state, position parity, count difference); the difference
    is capped, so callers must pass a cap past the relevant bound.
    """
    start = (dfa.start, 0, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        q, parity, diff = queue.popleft()
        c = dist[(q, parity, diff)]
        if q in dfa.finals and parity == 0 and diff == 0:
            return c
        for sym in (unary, pad):
            d2 = diff + (1 if parity == 0 else -1) if sym == unary else diff
            if abs(d2) > diff_cap:
                continue
            node = (dfa.delta[(q, sym)], 1 - parity, d2)
            if node not in dist:
                dist[node] = c + 1
                queue.append(node)
    return None


def counter_pda(unary_symbol, pad_symbol):
    """Accepts the even-length words whose unary letters are split evenly
    between odd and even positions: the grammar-route oracle for the
    unary decider, through pda_intersect_dfa and pda_is_empty.

    The state is the parity of the consumed prefix; the imbalance lives
    on the stack as a run of P (odd-position surplus) or N (even) above
    the bottom marker, so acceptance is even parity with a bare bottom.
    """
    a, p = unary_symbol, pad_symbol
    moves = set()
    for parity in (0, 1):
        for top in ("Z", "P", "N"):
            moves.add((parity, p, top, 1 - parity, (top,)))
    moves |= {
        (0, a, "Z", 1, ("P", "Z")),
        (0, a, "P", 1, ("P", "P")),
        (0, a, "N", 1, ()),
        (1, a, "Z", 0, ("N", "Z")),
        (1, a, "N", 0, ("N", "N")),
        (1, a, "P", 0, ()),
    }
    return Pda(
        states=2,
        input_alphabet=frozenset({a, p}),
        stack_alphabet=frozenset({"Z", "P", "N"}),
        bottom="Z",
        transitions=frozenset(moves),
        start=0,
        finals=frozenset({0}),
    )


def sequential_by_two_searches(dfa, sigma, pad):
    """The sequential decider's (verdict, witness), found the older way:
    each q' saturates its state pairs frontier by frontier, with no word
    order, and once (q, qf) fits, a second, early-stopping least-word
    search over the same pairs spells v.  Only the decider's building
    blocks are shared, so the single group search can be compared with
    it witness for witness."""
    loops = frozenset((q, sym, q) for q in (0, 1) for sym in {*sigma, pad})
    product = intersect_dfa(dfa, determinize(Nfa(2, dfa.alphabet, loops | {(0, SEPARATOR, 1)}, 0, frozenset({1}))))
    steps = frozenset((src, sym, dst) for (src, sym), dst in product.delta.items() if sym != SEPARATOR)
    base = Nfa(product.states, product.alphabet - {SEPARATOR}, steps, product.start, product.finals)
    t = erase_letters(base, {pad}).tables
    co_reach = _reach(t.finals, t.pred)
    splits = sum(1 << q for q in range(product.states)
                 if t.closures[product.delta[(q, SEPARATOR)]] & co_reach)
    xs = _reach(splits, t.pred)

    def pair_step(pairs, syms):
        out = {}
        for sym in syms:
            row = t.moves[sym]
            for x, ys in pairs.items():
                ys = image(ys, row) & co_reach
                if ys:
                    for x2 in _bits(row[x] & xs):
                        out[x2] = out.get(x2, 0) | ys
        return out

    def start_pairs(qp):
        return {x: t.closures[qp] & co_reach for x in _bits(t.start & xs)}

    for q in _bits(splits):
        qp = product.delta[(q, SEPARATOR)]
        seen = start_pairs(qp)
        todo = dict(seen)
        while todo:
            todo = _add_new(seen, pair_step(todo, t.symbols))
        ends = seen.get(q, 0) & t.finals
        if ends:
            break
    else:
        return False, None
    qf = next(_bits(ends))
    v = _least_word(start_pairs(qp), t.symbols, pair_step, lambda pairs: pairs.get(q, 0) >> qf & 1)
    moves = product.tables.moves

    def lift_step(nodes, sym):
        if sym == pad:
            return {pos: image(states, moves[sym]) for pos, states in nodes.items()}
        return {pos + 1: image(states, moves[sym])
                for pos, states in nodes.items() if pos < len(v) and v[pos] == sym}

    def lift(source, goal):
        return _least_word({0: 1 << source}, sorted(set(v) | {pad}), lift_step,
                           lambda nodes: nodes.get(len(v), 0) >> goal & 1)

    return True, lift(product.start, q) + SEPARATOR + lift(qp, qf)


# ---------------------------------------------------------------------------
# PCP instance catalog and verification


CLASSIC = PcpInstance(frozenset("01"), ("1", "10111", "10"), ("111", "10", "0"))
# solution (1, 2): "10"+"0" = "1"+"00"
PAIR = PcpInstance(frozenset("01"), ("10", "0"), ("1", "00"))
TRIV = PcpInstance(frozenset("a"), ("a",), ("a",))
SOLVABLE = [(TRIV, (1,)), (PAIR, (1, 2)), (CLASSIC, (2, 1, 1, 3))]

# first symbols differ on every pair, so no sequence can start
MISMATCH = PcpInstance(frozenset("01"), ("01", "0"), ("10", "11"))
# every a_i has two letters and every b_i one: lengths never match
PARITY = PcpInstance(frozenset("01"), ("00", "01"), ("0", "1"))
SHORTLONG = PcpInstance(frozenset("1"), ("1",), ("11",))
UNSOLVABLE = [MISMATCH, PARITY, SHORTLONG]


def verify_pcp_solution(pcp, indices):
    if not indices:
        return False
    sa = "".join(pcp.list_a[i - 1] for i in indices)
    sb = "".join(pcp.list_b[i - 1] for i in indices)
    return sa == sb


def brute_pcp(pcp, max_len):
    """First solution among all index sequences of length 1..max_len,
    scanned in length-then-lex order; None when there is none."""
    k = len(pcp.list_a)
    for n in range(1, max_len + 1):
        for seq in itertools.product(range(1, k + 1), repeat=n):
            if verify_pcp_solution(pcp, seq):
                return seq
    return None


def pcp_blocks(pcp, pad="_"):
    """The interleaved pad-to-common-length block of each list pair."""
    return [interleave(*pad_to_common(a, b, pad)) for a, b in zip(pcp.list_a, pcp.list_b)]


def decode_blocks(word, pcp, pad="_"):
    """Split a block concatenation back into 1-based indices.

    Greedy first match; the catalog instances have prefix-free blocks,
    so no backtracking is needed.  None when the word does not split.
    """
    blocks = pcp_blocks(pcp, pad)
    indices = []
    pos = 0
    while pos < len(word):
        for i, blk in enumerate(blocks):
            if word.startswith(blk, pos):
                indices.append(i + 1)
                pos += len(blk)
                break
        else:
            return None
    return tuple(indices)


# ---------------------------------------------------------------------------
# Tiny Turing machines with hand-checkable behaviour


# one step: accepts exactly the inputs starting with '1' (so "1", "11", ...)
M1 = TmSpec(states=2, input_alphabet=("1",), tape_alphabet=("_", "1"), blank="_",
            start=0, accept=1, transitions=frozenset({(0, "1", 1, "1", "S")}))

# walks right over '0's and accepts on the first '1'
M2 = TmSpec(states=2, input_alphabet=("0", "1"), tape_alphabet=("_", "0", "1"),
            blank="_", start=0, accept=1,
            transitions=frozenset({(0, "0", 0, "0", "R"), (0, "1", 1, "1", "S")}))

# start state is accepting: accepts everything in zero steps
ACCEPT_NOW = TmSpec(states=1, input_alphabet=("0",), tape_alphabet=("_", "0"),
                    blank="_", start=0, accept=0, transitions=frozenset())

# accept state unreachable: walks right forever, accepts nothing
NEVER = TmSpec(states=2, input_alphabet=("0", "1"), tape_alphabet=("_", "0", "1"),
               blank="_", start=0, accept=1,
               transitions=frozenset({(0, "0", 0, "0", "R"), (0, "1", 0, "1", "R")}))

# walks right over blanks, guessing a bit for each, and accepts nothing:
# each layer of its configuration search is twice the one before
GUESS = TmSpec(states=2, input_alphabet=("0", "1"), tape_alphabet=("_", "0", "1"),
               blank="_", start=0, accept=1,
               transitions=frozenset({(0, "_", 0, "0", "R"), (0, "_", 0, "1", "R")}))


_SHIFT = {"L": -1, "R": 1, "S": 0}


def bfs_member_machine_language(word, mode, max_configs=200_000):
    """Reference for member_machine_language: the layered breadth-first
    configuration search over the checker's windows, on tuple tapes of
    symbol names with None for the cell past the NL read budget.  Same
    answers, same cap, same visiting order."""
    if mode not in ("NL", "NP", "PSPACE"):
        raise ValueError(mode)
    parts = word.split("$")
    if len(parts) != 3:
        return False
    encoding, x, pads = parts
    try:
        tm = decode_tm(encoding)
    except MalformedWordError:
        return False
    if any(c not in tm.input_alphabet for c in x) or set(pads) - {"a"}:
        return False
    n = len(pads)
    if mode == "NP":
        tape = tuple((x + tm.blank * (n + 1))[:n + 1])
        return _bfs_accepts(tm, tape, n, max_configs)
    if mode == "PSPACE":
        if n < 1:
            return tm.start == tm.accept
        tape = tuple((x + tm.blank * n)[:n])
        return _bfs_accepts(tm, tape, None, max_configs)
    if n < 1:
        return False
    cells = n.bit_length() - 1
    return _bfs_accepts(tm, tuple((x + tm.blank * cells)[:cells]) + (None,), None, max_configs)


def _bfs_accepts(tm, tape0, steps, max_configs):
    if tm.start == tm.accept:
        return True
    moves = {}
    for t in sorted(tm.transitions):
        moves.setdefault((t[0], t[1]), []).append(t)
    frontier = [(tm.start, 0, tape0)]
    seen = set(frontier)
    depth = 0
    while frontier and depth != steps:
        depth += 1
        layer, frontier = frontier, []
        for state, head, tape in layer:
            for _, _, dst, write, move in moves.get((state, tape[head]), ()):
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
                        raise ResourceLimitError("configuration cap exceeded")
    return False


def head_color(state, symbol):
    # the tile generator's color for "head on this cell, reading symbol"
    return f"q{state}:{symbol}"


def instance_for(tm, x, n, variant):
    """Width-n tiling instance asking whether tm accepts x.

    Bottom row: head over the first input cell (or over blank for empty
    x), the rest of x, then blanks.  Top row: the accept color over an
    otherwise blank tape.  Bounded instances get all-white sides.
    """
    ts = reduce_ntm_to_tiles(tm)
    nm = normalize_tm(tm)
    assert len(x) <= n
    bottom = [head_color(nm.start, x[0] if x else nm.blank)]
    bottom += list(x[1:])
    bottom += [nm.blank] * (n - len(bottom))
    top = (ts.accept,) + (nm.blank,) * (n - 1)
    if variant == "bounded":
        side = (WHITE,) * n
        return TilingInstance("bounded", ts, n, side, top, side, tuple(bottom))
    return TilingInstance("corridor", ts, n, None, top, None, tuple(bottom))


# ---------------------------------------------------------------------------
# Automata-core oracles, coded against the raw transition relations


def h_image_member(nfa, erase, v):
    """Is v in the erased-letter image of L(nfa)?

    Product reachability over (state, position in v) where erased and
    silent labels keep the position; independent of erase_letters.
    """
    frontier = {(nfa.start, 0)}
    seen = set(frontier)
    while frontier:
        new = set()
        for s, pos in frontier:
            for src, label, dst in nfa.transitions:
                if src != s:
                    continue
                if label is None or label in erase:
                    node = (dst, pos)
                elif pos < len(v) and label == v[pos]:
                    node = (dst, pos + 1)
                else:
                    continue
                if node not in seen:
                    seen.add(node)
                    new.add(node)
        frontier = new
    return any(s in nfa.finals and pos == len(v) for s, pos in seen)


def xor_product(a, b):
    """Symmetric-difference DFA of two total DFAs on one alphabet."""
    assert a.alphabet == b.alphabet
    n = b.states
    delta = {}
    for sa in range(a.states):
        for sb in range(b.states):
            for sym in a.alphabet:
                delta[(sa * n + sb, sym)] = a.delta[(sa, sym)] * n + b.delta[(sb, sym)]
    finals = frozenset(
        sa * n + sb
        for sa in range(a.states)
        for sb in range(b.states)
        if (sa in a.finals) != (sb in b.finals)
    )
    return Dfa(a.states * n, a.alphabet, delta, a.start * n + b.start, finals)


def pda_nonempty_bfs(pda, height_cap):
    """Does some word reach a final state with a bare bottom marker?

    Breadth-first over (state, stack) configurations, stacks stored
    bottom first, growth capped at height_cap.
    """
    start = (pda.start, (pda.bottom,))
    seen = {start}
    queue = deque([start])
    while queue:
        state, stack = queue.popleft()
        if state in pda.finals and stack == (pda.bottom,):
            return True
        if not stack:
            continue
        top = stack[-1]
        for src, _label, popped, dst, push in pda.transitions:
            if src != state or popped != top:
                continue
            new_stack = stack[:-1] + tuple(reversed(push))
            if len(new_stack) > height_cap:
                continue
            node = (dst, new_stack)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def all_words(alphabet, max_len):
    """Every word over the alphabet up to max_len, shortlex order."""
    letters = sorted(alphabet)
    layer = [""]
    for w in layer:
        yield w
    for _ in range(max_len):
        layer = [w + c for w in layer for c in letters]
        for w in layer:
            yield w


def dfa_word_count(dfa, max_len):
    """Accepted words of length <= max_len, by counting paths through the
    (total) transition table one length at a time."""
    ways = {dfa.start: 1}
    total = 0
    for length in range(max_len + 1):
        total += sum(count for q, count in ways.items() if q in dfa.finals)
        if length < max_len:
            step = {}
            for q, count in ways.items():
                for sym in dfa.alphabet:
                    r = dfa.delta[(q, sym)]
                    step[r] = step.get(r, 0) + count
            ways = step
    return total


# ---------------------------------------------------------------------------
# Brute-force tiling oracles (tiny instances only)


def brute_bounded(instance):
    """Try every |T|^(n*n) grid in order; first valid tiling or None."""
    n = instance.width
    count = len(instance.tile_set.tiles)
    for flat in itertools.product(range(count), repeat=n * n):
        rows = tuple(tuple(flat[j * n:(j + 1) * n]) for j in range(n))
        tiling = Tiling(n, n, rows)
        if not validate_tiling(instance, tiling):
            return tiling
    return None


def brute_corridor(instance, max_height):
    """Exhaustive scan by height, then grid; the first valid tiling or None."""
    n = instance.width
    count = len(instance.tile_set.tiles)
    for h in range(1, max_height + 1):
        for flat in itertools.product(range(count), repeat=n * h):
            rows = tuple(tuple(flat[j * n:(j + 1) * n]) for j in range(h))
            tiling = Tiling(n, h, rows)
            if not validate_tiling(instance, tiling):
                return tiling
    return None
