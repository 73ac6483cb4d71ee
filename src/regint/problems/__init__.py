"""Membership checkers and solvers for the studied problem languages.

Every member_* function is total on arbitrary words: malformed or
out-of-alphabet input is a non-member, never an exception, because the
witness-search harness feeds these checkers raw enumerated words.
Resource-capped checkers raise ResourceLimitError rather than guess.

PROBLEMS is the one table of problem languages P: for each, the symbols
alphabet inference drops, a checker factory and, where L(A) ∩ P ≠ ∅ is
decidable, a decider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..automata import METACHARS, Dfa
from ..deciders import SEPARATOR, decide_intreg_sequential_string_eq, decide_intreg_unary_shuffled
from ..errors import MalformedInputError
from .strings import (
    interleave,
    member_sequential_string_eq,
    member_shuffled_regex_eq,
    member_shuffled_string_eq,
    pad_to_common,
)
from .bpcp import (
    BpcpSolution,
    PcpInstance,
    bin_decode,
    bin_encode,
    check_bpcp,
    member_bpcp,
    parse_bpcp_word,
    pcp_from_json,
    pcp_to_json,
)
from .machines import (
    MachineWord,
    TmSpec,
    decode_tm,
    encode_tm,
    member_machine_language,
    parse_machine_word,
    tm_from_json,
    tm_to_json,
)
from .tiling import (
    TileSet,
    TileType,
    Tiling,
    TilingInstance,
    instance_to_word,
    member_bounded_tiling,
    member_corridor_tiling,
    parse_tiling_word,
    serialize_tile_set,
    solve_bounded_tiling,
    solve_corridor_tiling,
    tile_set_from_json,
    tile_set_to_json,
    tiling_instance_from_json,
    tiling_instance_to_json,
    validate_tiling,
)

PAD = "_"


@dataclass(frozen=True)
class Problem:
    """One problem language P.

    `reserved` holds the encoding symbols that alphabet inference drops
    from the inferred letters; None means P takes no alphabet.
    `checker(alphabet)` returns the membership test for one word, and
    `decider(dfa, alphabet)`, when P has one, returns (verdict, witness).
    """

    name: str
    reserved: Optional[frozenset[str]]
    checker: Callable[[frozenset[str]], Callable[[str], bool]]
    decider: Optional[Callable[[Dfa, frozenset[str]], tuple[bool, Optional[str]]]] = None


def _shuffled(alphabet: frozenset[str]) -> Callable[[str], bool]:
    return lambda word: member_shuffled_string_eq(word, alphabet, PAD)


def _unary(alphabet: frozenset[str]) -> Callable[[str], bool]:
    if len(alphabet) > 1:
        raise MalformedInputError("alphabet: need exactly one unary symbol")
    return _shuffled(alphabet)


def _decide_unary(dfa: Dfa, alphabet: frozenset[str]) -> tuple[bool, None]:
    if len(alphabet) != 1:
        raise MalformedInputError("alphabet: need exactly one unary symbol")
    return decide_intreg_unary_shuffled(dfa, next(iter(alphabet)), PAD), None


def _machine(mode: str) -> Callable[[frozenset[str]], Callable[[str], bool]]:
    return lambda _: lambda word: member_machine_language(word, mode)


PROBLEMS: dict[str, Problem] = {p.name: p for p in (
    Problem("shuffled-string-eq", frozenset({PAD}), _shuffled),
    Problem("sequential-string-eq", frozenset({PAD, SEPARATOR}),
            lambda alphabet: lambda word: member_sequential_string_eq(word, alphabet, PAD),
            lambda dfa, alphabet: decide_intreg_sequential_string_eq(dfa, alphabet, PAD)),
    Problem("unary-shuffled-string-eq", frozenset({PAD}), _unary, _decide_unary),
    Problem("shuffled-regex-eq", METACHARS,
            lambda alphabet: lambda word: member_shuffled_regex_eq(word, alphabet)),
    Problem("bpcp", None, lambda _: member_bpcp),
    Problem("bounded-tiling", None, lambda _: member_bounded_tiling),
    Problem("corridor-tiling", None, lambda _: member_corridor_tiling),
    Problem("machine-nl", None, _machine("NL")),
    Problem("machine-np", None, _machine("NP")),
    Problem("machine-pspace", None, _machine("PSPACE")),
)}

__all__ = [
    "BpcpSolution",
    "MachineWord",
    "PcpInstance",
    "TileSet",
    "TileType",
    "Tiling",
    "TilingInstance",
    "TmSpec",
    "bin_decode",
    "bin_encode",
    "check_bpcp",
    "decode_tm",
    "encode_tm",
    "instance_to_word",
    "interleave",
    "member_bounded_tiling",
    "member_bpcp",
    "member_corridor_tiling",
    "member_machine_language",
    "member_sequential_string_eq",
    "member_shuffled_regex_eq",
    "member_shuffled_string_eq",
    "pad_to_common",
    "parse_bpcp_word",
    "parse_machine_word",
    "parse_tiling_word",
    "pcp_from_json",
    "pcp_to_json",
    "serialize_tile_set",
    "solve_bounded_tiling",
    "solve_corridor_tiling",
    "tile_set_from_json",
    "tile_set_to_json",
    "tiling_instance_from_json",
    "tiling_instance_to_json",
    "tm_from_json",
    "tm_to_json",
    "validate_tiling",
]
