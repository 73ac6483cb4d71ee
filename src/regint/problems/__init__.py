"""Membership checkers and solvers for the studied problem languages.

Every member_* function is total on arbitrary words: malformed or
out-of-alphabet input is a non-member, never an exception, because the
witness-search harness feeds these checkers raw enumerated words.
Resource-capped checkers raise ResourceLimitError rather than guess.

PROBLEMS is the one table of problem languages P: for each, the symbols
alphabet inference drops, a checker factory, where L(A) ∩ P ≠ ∅ is
decidable a decider, and where a concrete instance can be solved a
solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .. import _lazy_exports
from ..errors import MalformedInputError, is_int, require
from ..symbols import METACHARS, SEPARATOR

if TYPE_CHECKING:
    from ..automata import Dfa

PAD = "_"


class Problem(NamedTuple):
    """One problem language P.

    `reserved` holds the encoding symbols that alphabet inference drops
    from the inferred letters; None means P takes no alphabet.
    `checker(alphabet)` returns the membership test for one word;
    `decider(dfa, alphabet)`, when P has one, returns (verdict, witness);
    `solver(document)`, when P has one, reads an instance document and
    returns the printed solution, or None when there is none.
    """

    name: str
    reserved: Optional[frozenset[str]]
    checker: Callable[[frozenset[str]], Callable[[str], bool]]
    decider: Optional[Callable[[Dfa, frozenset[str]], tuple[bool, Optional[str]]]] = None
    solver: Optional[Callable[[object], Optional[dict]]] = None


# Each factory imports its checker's, decider's or solver's module when
# it is called, and binds the member function once per call, not once
# per word.

def _shuffled(alphabet: frozenset[str]) -> Callable[[str], bool]:
    from .strings import member_shuffled_string_eq
    return lambda word: member_shuffled_string_eq(word, alphabet, PAD)


def _sequential(alphabet: frozenset[str]) -> Callable[[str], bool]:
    from .strings import member_sequential_string_eq
    return lambda word: member_sequential_string_eq(word, alphabet, PAD)


def _unary(alphabet: frozenset[str]) -> Callable[[str], bool]:
    if len(alphabet) > 1:
        raise MalformedInputError("alphabet: need exactly one unary symbol")
    return _shuffled(alphabet)


def _regex(alphabet: frozenset[str]) -> Callable[[str], bool]:
    from .strings import member_shuffled_regex_eq
    return lambda word: member_shuffled_regex_eq(word, alphabet)


def _bpcp(_) -> Callable[[str], bool]:
    from .bpcp import member_bpcp
    return member_bpcp


def _bounded_tiling(_) -> Callable[[str], bool]:
    from .tiling import member_bounded_tiling
    return member_bounded_tiling


def _corridor_tiling(_) -> Callable[[str], bool]:
    from .tiling import member_corridor_tiling
    return member_corridor_tiling


def _machine(mode: str) -> Callable[[frozenset[str]], Callable[[str], bool]]:
    def checker(_) -> Callable[[str], bool]:
        from .machines import member_machine_language
        return lambda word: member_machine_language(word, mode)
    return checker


def _decide_sequential(dfa: Dfa, alphabet: frozenset[str]) -> tuple[bool, Optional[str]]:
    from ..deciders import decide_intreg_sequential_string_eq
    return decide_intreg_sequential_string_eq(dfa, alphabet, PAD)


def _decide_unary(dfa: Dfa, alphabet: frozenset[str]) -> tuple[bool, None]:
    from ..deciders import decide_intreg_unary_shuffled
    if len(alphabet) != 1:
        raise MalformedInputError("alphabet: need exactly one unary symbol")
    return decide_intreg_unary_shuffled(dfa, next(iter(alphabet)), PAD), None


def _solve_bpcp(document: object) -> Optional[dict]:
    from .bpcp import check_bpcp, pcp_from_json
    if not isinstance(document, dict) or "k" not in document:
        raise MalformedInputError("k: missing bound for bpcp")
    bound = require(document, "k", lambda v: is_int(v) and v >= 1, "a positive integer")
    solution = check_bpcp(pcp_from_json(document), bound)
    return None if solution is None else {"indices": list(solution.indices), "bound": solution.bound}


def _solve_tiling(variant: str) -> Callable[[object], Optional[dict]]:
    def solver(document: object) -> Optional[dict]:
        from .tiling import solve_bounded_tiling, solve_corridor_tiling, tiling_instance_from_json
        instance = tiling_instance_from_json(document)
        if instance.variant != variant:
            raise MalformedInputError(f"variant: expected {variant}")
        if variant == "bounded":
            tiling = solve_bounded_tiling(instance)
        else:
            _, tiling = solve_corridor_tiling(instance) or (None, None)
        if tiling is None:
            return None
        return {"width": tiling.width, "height": tiling.height, "grid": [list(row) for row in tiling.grid]}
    return solver


PROBLEMS: dict[str, Problem] = {p.name: p for p in (
    Problem("shuffled-string-eq", frozenset({PAD}), _shuffled),
    Problem("sequential-string-eq", frozenset({PAD, SEPARATOR}), _sequential, _decide_sequential),
    Problem("unary-shuffled-string-eq", frozenset({PAD}), _unary, _decide_unary),
    Problem("shuffled-regex-eq", METACHARS, _regex),
    Problem("bpcp", None, _bpcp, solver=_solve_bpcp),
    Problem("bounded-tiling", None, _bounded_tiling, solver=_solve_tiling("bounded")),
    Problem("corridor-tiling", None, _corridor_tiling, solver=_solve_tiling("corridor")),
    Problem("machine-nl", None, _machine("NL")),
    Problem("machine-np", None, _machine("NP")),
    Problem("machine-pspace", None, _machine("PSPACE")),
)}

# public name -> the submodule that defines it, imported on first access
_EXPORTS = {
    name: module
    for module, names in {
        "bpcp": ("BpcpSolution", "PcpInstance", "bin_decode", "bin_encode", "check_bpcp", "member_bpcp",
                 "parse_bpcp_word", "pcp_from_json", "pcp_to_json"),
        "machines": ("MachineWord", "TmSpec", "decode_tm", "encode_tm", "member_machine_language",
                     "parse_machine_word", "tm_from_json", "tm_to_json"),
        "strings": ("interleave", "member_sequential_string_eq", "member_shuffled_regex_eq",
                    "member_shuffled_string_eq", "pad_to_common"),
        "tiling": ("TileSet", "TileType", "Tiling", "TilingInstance", "instance_to_word", "member_bounded_tiling",
                   "member_corridor_tiling", "parse_tiling_word", "serialize_tile_set", "solve_bounded_tiling",
                   "solve_corridor_tiling", "tile_set_from_json", "tile_set_to_json", "tiling_instance_from_json",
                   "tiling_instance_to_json", "validate_tiling"),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
