"""Generators turning problem instances into regular languages.

Each generator returns a GeneratedLanguage: an NFA (authoritative) plus
a printable regex.  Where the regex text stays inside the package's
regex grammar it parses back to the same language; texts that need '_'
or multi-character color names as ordinary letters use the conventional
reading instead (every character a literal, '+' for one-or-more) and
are display-only, which their docstrings call out.

Machine-to-tiling constructions first normalize the machine so that
acceptance is witnessed by one distinguished configuration: an
all-blank tape with the head parked on cell 1 in a fresh final state.
The normalized machine guesses where cleanup finishes; wrong guesses
die against the tiling borders rather than in the machine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import Alt, Concat, EmptyWord, Lit, Nfa, RegexAst, RegexNode, Star, regex_to_nfa
from .errors import AlphabetError, MalformedInputError
from .problems.bpcp import PcpInstance
from .problems.machines import TmSpec, encode_tm
from .problems.strings import interleave, pad_to_common
from .problems.tiling import _DELIMITERS, TileSet, TileType, serialize_tile_set


@dataclass(frozen=True)
class GeneratedLanguage:
    """A constructed regular language: NFA, printable regex, alphabet,
    and the id of the construction that produced it."""

    nfa: Nfa
    regex_text: str
    encoding_alphabet: frozenset[str]
    provenance: str

    def to_json(self) -> dict:
        from .automata import automaton_to_json

        out = automaton_to_json(self.nfa)
        out["regex"] = self.regex_text
        out["provenance"] = self.provenance
        return out


# --------------------------------------------------------------------------
# Small ast builders (programmatic regexes may use any character,
# including ones the textual grammar reserves)


def _lit_word(s: str) -> RegexNode:
    if not s:
        return EmptyWord()
    return reduce(Concat, (Lit(c) for c in s))


def _alt(parts: list[RegexNode]) -> RegexNode:
    if not parts:
        return EmptyWord()
    return reduce(Alt, parts)


def _concat(parts: list[RegexNode]) -> RegexNode:
    return reduce(Concat, parts)


def _plus(node: RegexNode) -> RegexNode:
    return Concat(node, Star(node))


def _language(root: RegexNode, alphabet: set[str], regex_text: str, provenance: str) -> GeneratedLanguage:
    ast = RegexAst(root, frozenset(alphabet))
    return GeneratedLanguage(
        nfa=regex_to_nfa(ast),
        regex_text=regex_text,
        encoding_alphabet=frozenset(alphabet),
        provenance=provenance,
    )


# --------------------------------------------------------------------------
# PCP constructions


def reduce_pcp_to_shuffled_regex(pcp: PcpInstance, pad_symbol: str) -> GeneratedLanguage:
    """Language (block₁ | … | block_k)⁺ of interleaved list pairs.

    block_i interleaves a_i and b_i after padding the shorter with
    pad_symbol; a member word of the shuffled-equality language is then
    exactly a concatenation of blocks along a solution index sequence.
    The regex text is display-only (pads are letters here).
    """
    if len(pad_symbol) != 1 or pad_symbol in pcp.alphabet:
        raise AlphabetError("pad symbol must be a fresh single character")
    blocks = [
        interleave(*pad_to_common(a, b, pad_symbol))
        for a, b in zip(pcp.list_a, pcp.list_b)
    ]
    root = _plus(_alt([_lit_word(b) for b in blocks]))
    alphabet = set(pcp.alphabet) | {pad_symbol}
    text = "(" + "|".join(blocks) + ")+"
    return _language(root, alphabet, text, "pcp-to-shuffled-regex")


def reduce_pcp_to_bpcp_lang(pcp: PcpInstance) -> GeneratedLanguage:
    """Language a₁#…#aₙ(#aₙ)* $ b₁#…#bₙ(#bₙ)* $ (0|1)*.

    Repeating the last list elements pads the instance; the two
    repetition counts are independent, so the language deliberately
    overgenerates words with unequal list lengths — the membership
    checker rejects those.  The regex text parses back to the language.
    """
    bad = pcp.alphabet & set("#$~_()|*")
    if bad:
        raise AlphabetError(f"instance alphabet may not contain {sorted(bad)}")
    base_a, last_a = "#".join(pcp.list_a), "#" + pcp.list_a[-1]
    base_b, last_b = "#".join(pcp.list_b), "#" + pcp.list_b[-1]
    root = _concat([
        _lit_word(base_a), Star(_lit_word(last_a)), Lit("$"),
        _lit_word(base_b), Star(_lit_word(last_b)), Lit("$"),
        Star(Alt(Lit("0"), Lit("1"))),
    ])
    alphabet = set(pcp.alphabet) | set("#$01")
    text = f"{base_a}({last_a})*${base_b}({last_b})*$(0|1)*"
    return _language(root, alphabet, text, "pcp-to-bpcp")


# --------------------------------------------------------------------------
# Machine-language construction


def reduce_tm_to_machine_lang(tm: TmSpec) -> GeneratedLanguage:
    """Language {⟨M⟩} $ Σ* $ a* for the machine-language checkers.

    Σ is the machine's input alphabet; '$' and 'a' are the separators
    and padding, so they must not occur in Σ.  The regex text parses
    back to the language.
    """
    reserved = set(tm.input_alphabet) & {"$", "a"}
    if reserved:
        raise AlphabetError(f"input alphabet contains reserved symbols {sorted(reserved)}; rename first")
    enc = encode_tm(tm)
    sigma = list(tm.input_alphabet)
    middle: RegexNode = Star(_alt([Lit(c) for c in sigma])) if sigma else EmptyWord()
    root = _concat([_lit_word(enc), Lit("$"), middle, Lit("$"), Star(Lit("a"))])
    alphabet = set("01$a") | set(sigma)
    middle_text = "(" + "|".join(sigma) + ")*" if sigma else "_"
    text = f"{enc}${middle_text}$a*"
    return _language(root, alphabet, text, "tm-to-machine-lang")


# --------------------------------------------------------------------------
# Tiling constructions


def normalize_tm(tm: TmSpec) -> TmSpec:
    """Append cleanup states so acceptance ends in the distinguished
    configuration (all-blank tape, head on cell 1, fresh final state).

    Three states are added: a rightward drifter entered from the old
    accept state (blanking that cell), a leftward sweeper that blanks
    everything on its way back, and the new final state.  The drifter
    nondeterministically turns or finishes; a wrong guess (cells left
    unblanked, or finishing away from cell 1) can never present the
    distinguished configuration, so such runs simply fail to certify.
    """
    q_sweep_right = tm.states
    q_sweep_left = tm.states + 1
    q_final = tm.states + 2
    blank = tm.blank
    extra: set = set()
    for a in tm.tape_alphabet:
        extra.add((tm.accept, a, q_sweep_right, blank, "S"))
        extra.add((q_sweep_right, a, q_sweep_right, a, "R"))
        extra.add((q_sweep_right, a, q_sweep_left, blank, "L"))
        extra.add((q_sweep_right, a, q_final, blank, "S"))
        extra.add((q_sweep_left, a, q_sweep_left, blank, "L"))
        extra.add((q_sweep_left, a, q_final, blank, "S"))
    return TmSpec(
        states=tm.states + 3,
        input_alphabet=tm.input_alphabet,
        tape_alphabet=tm.tape_alphabet,
        blank=tm.blank,
        start=tm.start,
        accept=q_final,
        transitions=tm.transitions | frozenset(extra),
    )


def _state_color(q: int) -> str:
    return f"q{q}"


def _head_color(q: int, symbol: str) -> str:
    return f"q{q}:{symbol}"


WHITE = "."


def reduce_ntm_to_tiles(tm: TmSpec) -> TileSet:
    """Tile set whose correctly tiled rows are configurations of the
    normalized machine, read bottom-up.

    Horizontal (n/s) colors are tape symbols and head markers (q,a);
    vertical (w/e) colors are the neutral white plus states acting as
    the left/right hand-over signal of a moving head.  Emission order:
    copy tiles, then per R-transition an action tile and one reception
    tile per symbol, the same for L-transitions, the S-action tiles,
    and the accept-repeat tile.
    """
    n = normalize_tm(tm)
    if any(sym == WHITE or not sym or set(sym) & _DELIMITERS for sym in n.tape_alphabet):
        raise MalformedInputError("tape: symbols may not collide with color or encoding delimiters")
    tiles: list[TileType] = []
    for a in n.tape_alphabet:
        tiles.append(TileType(WHITE, a, WHITE, a))
    rank = {"R": 0, "L": 1, "S": 2}
    for src, read, dst, write, move in sorted(n.transitions, key=lambda tr: (rank[tr[4]], tr)):
        if move == "R":
            tiles.append(TileType(WHITE, write, _state_color(dst), _head_color(src, read)))
            for c in n.tape_alphabet:
                tiles.append(TileType(_state_color(dst), _head_color(dst, c), WHITE, c))
        elif move == "L":
            tiles.append(TileType(_state_color(dst), write, WHITE, _head_color(src, read)))
            for c in n.tape_alphabet:
                tiles.append(TileType(WHITE, _head_color(dst, c), _state_color(dst), c))
        else:
            tiles.append(TileType(WHITE, _head_color(dst, write), WHITE, _head_color(src, read)))
    accept_color = _head_color(n.accept, n.blank)
    tiles.append(TileType(WHITE, accept_color, WHITE, accept_color))
    colors = (
        {WHITE}
        | set(n.tape_alphabet)
        | {_state_color(q) for q in range(n.states)}
        | {_head_color(q, a) for q in range(n.states) for a in n.tape_alphabet}
    )
    return TileSet(
        tiles=tuple(tiles),
        colors=frozenset(colors),
        white=WHITE,
        blank=n.blank,
        accept=accept_color,
    )


def reduce_ntm_to_tiling_lang(tm: TmSpec, variant: str) -> GeneratedLanguage:
    """Words ⟨T⟩$l$t$r$b (bounded) or ⟨T⟩$t$b (corridor) over the
    machine's tile set, for every input word and every region size.

    The top coloring is the accept marker followed by blanks; the
    bottom colorings are the initial configurations: a head marker over
    the first input symbol (or over blank for the empty input), the
    remaining input, then blank padding.  Sides, when present, are
    white.  The regex text is display-only (multi-character colors).
    """
    if variant not in ("bounded", "corridor"):
        raise MalformedInputError(f"variant: expected 'bounded' or 'corridor', got {variant!r}")
    tiles = reduce_ntm_to_tiles(tm)
    n = normalize_tm(tm)
    ser = serialize_tile_set(tiles)
    blank = n.blank
    accept_color = tiles.accept

    side = _concat([_lit_word(WHITE), Star(_lit_word("#" + WHITE))])
    side_text = f"{WHITE}(#{WHITE})*"
    top = _concat([_lit_word(accept_color), Star(_lit_word("#" + blank))])
    top_text = f"{accept_color}(#{blank})*"

    blanks_tail = Star(_lit_word("#" + blank))
    branches: list[RegexNode] = []
    branch_texts: list[str] = []
    for sym in n.input_alphabet:
        branches.append(_concat([
            _lit_word(_head_color(n.start, sym)),
            Star(_alt([_lit_word("#" + t) for t in n.input_alphabet])),
            blanks_tail,
        ]))
        inner = "|".join("#" + t for t in n.input_alphabet)
        branch_texts.append(f"{_head_color(n.start, sym)}({inner})*(#{blank})*")
    branches.append(_concat([_lit_word(_head_color(n.start, blank)), Star(_lit_word("#" + blank))]))
    branch_texts.append(f"{_head_color(n.start, blank)}(#{blank})*")
    bottom = _alt(branches)
    bottom_text = "(" + "|".join(branch_texts) + ")"

    if variant == "bounded":
        root = _concat([
            _lit_word(ser), Lit("$"), side, Lit("$"), top, Lit("$"), side, Lit("$"), bottom,
        ])
        text = f"{ser}${side_text}${top_text}${side_text}${bottom_text}"
    else:
        root = _concat([_lit_word(ser), Lit("$"), top, Lit("$"), bottom])
        text = f"{ser}${top_text}${bottom_text}"

    alphabet = set(ser) | {"$", "#"} | set(accept_color) | set(blank) | set(WHITE)
    for sym in n.input_alphabet:
        alphabet |= set(_head_color(n.start, sym)) | set(sym)
    alphabet |= set(_head_color(n.start, blank))
    return _language(root, alphabet, text, f"ntm-to-tiling-lang/{variant}")
