"""Generators turning problem instances into regular languages.

Each generator returns a GeneratedLanguage: an NFA (authoritative) plus
a printable regex, both made by one regex builder (_Rx below) that
gives each AST node with its text and its letters.

Machine-to-tiling constructions first normalize the machine so that
acceptance is witnessed by one distinguished configuration: an
all-blank tape with the head parked on cell 1 in a fresh final state.
The normalized machine guesses where cleanup finishes; wrong guesses
die against the tiling borders rather than in the machine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .automata import Alt, Concat, EmptyWord, Lit, Nfa, RegexAst, RegexNode, Star, automaton_to_json, regex_to_nfa
from .errors import AlphabetError, MalformedInputError
from .problems.bpcp import PcpInstance
from .problems.machines import TmSpec, encode_tm
from .problems.strings import interleave, pad_to_common
from .problems.tiling import _DELIMITERS, SIDES, TileSet, TileType, serialize_tile_set
from .symbols import METACHARS, SEPARATOR


@dataclass(frozen=True)
class GeneratedLanguage:
    """A constructed regular language: NFA, printable regex, alphabet,
    and the id of the construction that produced it."""

    nfa: Nfa
    regex_text: str
    provenance: str

    def to_json(self) -> dict:
        out = automaton_to_json(self.nfa)
        out["regex"] = self.regex_text
        out["provenance"] = self.provenance
        return out


# --------------------------------------------------------------------------
# One regex builder: each combinator gives the AST node, its printed
# text and its letters together.  Programmatic regexes may use any
# character, including ones the textual grammar reserves.  Where the
# text stays inside the package's regex grammar it parses back to the
# same language; texts that need '_' or multi-character color names as
# ordinary letters use the conventional reading instead (every
# character a literal, '+' for one-or-more) and are display-only, which
# the generators' docstrings call out.


class _Rx(NamedTuple):
    node: RegexNode
    text: str
    letters: frozenset[str]
    atom: bool  # the text needs no parentheses under a star


def _word(s: str) -> _Rx:
    """The literal word s; the empty word prints as '_'."""
    node = reduce(Concat, (Lit(c) for c in s)) if s else EmptyWord()
    return _Rx(node, s or "_", frozenset(s), len(s) <= 1)


def _cat(*parts: _Rx) -> _Rx:
    return _Rx(reduce(Concat, (p.node for p in parts)), "".join(p.text for p in parts),
               frozenset().union(*(p.letters for p in parts)), False)


def _alt(parts: list[_Rx]) -> _Rx:
    """Alternation, always printed in parentheses."""
    return _Rx(reduce(Alt, (p.node for p in parts)), "(" + "|".join(p.text for p in parts) + ")",
               frozenset().union(*(p.letters for p in parts)), True)


def _star(part: _Rx) -> _Rx:
    return _Rx(Star(part.node), (part.text if part.atom else f"({part.text})") + "*", part.letters, False)


def _language(rx: _Rx, provenance: str, declared: frozenset[str] = frozenset()) -> GeneratedLanguage:
    """The language of rx over its letters plus `declared`: a PCP
    instance may declare letters that no list uses, and its pad shows in
    no block when every pair has equal length."""
    return GeneratedLanguage(
        nfa=regex_to_nfa(RegexAst(rx.node, rx.letters | declared)),
        regex_text=rx.text,
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
    blocks = _alt([
        _word(interleave(*pad_to_common(a, b, pad_symbol)))
        for a, b in zip(pcp.list_a, pcp.list_b)
    ])
    # one or more blocks: the node spells it out, the text says '+'
    rx = _Rx(Concat(blocks.node, Star(blocks.node)), blocks.text + "+", blocks.letters, False)
    return _language(rx, "pcp-to-shuffled-regex", pcp.alphabet | {pad_symbol})


def reduce_pcp_to_bpcp_lang(pcp: PcpInstance) -> GeneratedLanguage:
    """Language a₁#…#aₙ(#aₙ)* $ b₁#…#bₙ(#bₙ)* $ (0|1)*.

    Repeating the last list elements pads the instance; the two
    repetition counts are independent, so the language deliberately
    overgenerates words with unequal list lengths — the membership
    checker rejects those.  The regex text parses back to the language.
    """
    bad = pcp.alphabet & (METACHARS | {"#", SEPARATOR})
    if bad:
        raise AlphabetError(f"instance alphabet may not contain {sorted(bad)}")
    rx = _cat(
        _word("#".join(pcp.list_a)), _star(_word("#" + pcp.list_a[-1])), _word("$"),
        _word("#".join(pcp.list_b)), _star(_word("#" + pcp.list_b[-1])), _word("$"),
        _star(_alt([_word("0"), _word("1")])),
    )
    return _language(rx, "pcp-to-bpcp", pcp.alphabet)


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
    sigma = tm.input_alphabet
    middle = _star(_alt([_word(c) for c in sigma])) if sigma else _word("")
    rx = _cat(_word(encode_tm(tm)), _word("$"), middle, _word("$"), _star(_word("a")))
    return _language(rx, "tm-to-machine-lang")


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
        if move == "S":
            tiles.append(TileType(WHITE, _head_color(dst, write), WHITE, _head_color(src, read)))
            continue
        # the action tile hands the state to its east (R) or west (L)
        # neighbour, whose reception tile takes it on the facing side
        w, e = (WHITE, _state_color(dst)) if move == "R" else (_state_color(dst), WHITE)
        tiles.append(TileType(w, write, e, _head_color(src, read)))
        for c in n.tape_alphabet:
            tiles.append(TileType(e, _head_color(dst, c), w, c))
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
    if variant not in SIDES:
        raise MalformedInputError(f"variant: expected 'bounded' or 'corridor', got {variant!r}")
    tiles = reduce_ntm_to_tiles(tm)
    blank = tm.blank  # normalizing keeps the blank, the start state and the input alphabet
    blanks = _star(_word("#" + blank))
    side = _cat(_word(WHITE), _star(_word("#" + WHITE)))
    rest = [_word("#" + t) for t in tm.input_alphabet]
    branches = [_cat(_word(_head_color(tm.start, sym)), _star(_alt(rest)), blanks) for sym in tm.input_alphabet]
    branches.append(_cat(_word(_head_color(tm.start, blank)), blanks))
    colorings = {"l": side, "t": _cat(_word(tiles.accept), blanks), "r": side, "b": _alt(branches)}
    parts = [_word(serialize_tile_set(tiles))]
    for name in SIDES[variant]:
        parts += [_word("$"), colorings[name]]
    return _language(_cat(*parts), f"ntm-to-tiling-lang/{variant}")
