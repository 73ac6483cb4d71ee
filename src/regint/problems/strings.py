"""Word-equation languages over interleaved and separated tracks.

A word encodes a pair of strings either shuffled (odd positions carry
the first string, even positions the second) or sequentially (the two
sides of a single '$').  Pad symbols stand for the empty word and are
removed by the erasing homomorphism before comparing.
"""

from __future__ import annotations

from typing import Iterable

from ..automata import equivalent, parse_regex, regex_to_nfa
from ..errors import RegexSyntaxError


def pad_to_common(u: str, v: str, pad_symbol: str) -> tuple[str, str]:
    """Extend the shorter string with pad symbols to the common length."""
    n = max(len(u), len(v))
    return u.ljust(n, pad_symbol), v.ljust(n, pad_symbol)


def interleave(u: str, v: str) -> str:
    """Strict character interleaving u1 v1 u2 v2 ...; lengths must agree."""
    if len(u) != len(v):
        raise ValueError("interleave needs strings of equal length")
    return "".join(c for pair in zip(u, v) for c in pair)


def member_shuffled_string_eq(word: str, alphabet: Iterable[str], pad_symbol: str) -> bool:
    """Is `word` an interleaving of two equal-up-to-padding strings?

    Odd positions (first, third, ...) spell one track, even positions
    the other; tracks match when their pad-erased images are equal.
    Odd-length or out-of-alphabet words are non-members.
    """
    alpha = frozenset(alphabet) | {pad_symbol}
    if len(word) % 2 != 0 or any(c not in alpha for c in word):
        return False
    u = word[0::2].replace(pad_symbol, "")
    v = word[1::2].replace(pad_symbol, "")
    return u == v


def member_sequential_string_eq(word: str, alphabet: Iterable[str], pad_symbol: str) -> bool:
    """Is `word` of the form u$v with equal pad-erased sides?"""
    alpha = frozenset(alphabet) | {pad_symbol}
    if word.count("$") != 1:
        return False
    u, v = word.split("$")
    if any(c not in alpha for c in u) or any(c not in alpha for c in v):
        return False
    return u.replace(pad_symbol, "") == v.replace(pad_symbol, "")


def member_shuffled_regex_eq(word: str, alphabet: Iterable[str]) -> bool:
    """Is `word` an interleaving of two equivalent regexes?

    The tracks are parsed as regex text over `alphabet`; the `_`
    padding atoms parse as the empty word, so padding never changes a
    track's language.  Unparseable tracks make the word a non-member.
    """
    if len(word) % 2 != 0:
        return False
    try:
        e = parse_regex(word[0::2], alphabet)
        f = parse_regex(word[1::2], alphabet)
    except RegexSyntaxError:
        return False
    return equivalent(regex_to_nfa(e), regex_to_nfa(f))
