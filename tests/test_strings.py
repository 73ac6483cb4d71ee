"""The three padded string/regex equivalence checkers."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from regint.problems import (
    interleave,
    member_sequential_string_eq,
    member_shuffled_regex_eq,
    member_shuffled_string_eq,
    pad_to_common,
)
from regint.reductions import reduce_pcp_to_shuffled_regex
from regint.search import enumerate_words

from helpers import CLASSIC

AB = frozenset("ab")
PAD = "_"


# ---------------------------------------------------------------------------
# shuffled equality


def test_shuffled_pins():
    assert member_shuffled_string_eq("aa", AB, PAD) is True
    assert member_shuffled_string_eq("a_", AB, PAD) is False
    # tracks a,b,_ / _,a,b both erase to "ab"
    assert member_shuffled_string_eq("a_ba_b", AB, PAD) is True


def test_odd_length_is_a_non_member_not_an_error():
    assert member_shuffled_string_eq("a", AB, PAD) is False
    assert member_shuffled_string_eq("aab", AB, PAD) is False


def test_empty_word_is_a_member():
    # both tracks erase to the empty string
    assert member_shuffled_string_eq("", AB, PAD) is True
    assert member_shuffled_string_eq("__", AB, PAD) is True


def test_out_of_alphabet_symbols_are_non_members():
    assert member_shuffled_string_eq("cc", AB, PAD) is False
    assert member_sequential_string_eq("ac$ac", AB, PAD) is False


def test_shuffled_characterization_exhaustive_to_length_5():
    # interleave(pad(u), pad(v)) is a member exactly when u = v
    words = [""] + ["".join(t) for n in range(1, 6) for t in itertools.product("ab", repeat=n)]
    for u in words:
        for v in words:
            uu, vv = pad_to_common(u, v, PAD)
            assert member_shuffled_string_eq(interleave(uu, vv), AB, PAD) == (u == v), (u, v)


def test_pad_helpers():
    assert pad_to_common("a", "abb", PAD) == ("a__", "abb")
    assert interleave("ab", "cd") == "acbd"
    with pytest.raises(ValueError):
        interleave("ab", "c")


# ---------------------------------------------------------------------------
# sequential equality


def test_sequential_pins():
    assert member_sequential_string_eq("ab$ab", AB, PAD) is True
    assert member_sequential_string_eq("a_b$ab", AB, PAD) is True
    assert member_sequential_string_eq("ab$ba", AB, PAD) is False
    assert member_sequential_string_eq("abab", AB, PAD) is False


def test_sequential_needs_exactly_one_separator():
    assert member_sequential_string_eq("a$a$a", AB, PAD) is False
    assert member_sequential_string_eq("$$", AB, PAD) is False


def test_both_sides_may_be_empty():
    assert member_sequential_string_eq("$", AB, PAD) is True
    assert member_sequential_string_eq("_$__", AB, PAD) is True


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="ab", max_size=5),
    st.text(alphabet="ab", max_size=5),
    st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=6),
)
def test_sequential_depends_only_on_erased_sides(u, v, pads):
    # inserting pad symbols anywhere on either side never flips the verdict
    want = u == v
    left, right = u, v
    for offset, side in pads:
        if side:
            k = offset % (len(left) + 1)
            left = left[:k] + PAD + left[k:]
        else:
            k = offset % (len(right) + 1)
            right = right[:k] + PAD + right[k:]
    assert member_sequential_string_eq(f"{left}${right}", AB, PAD) == want


# ---------------------------------------------------------------------------
# shuffled regex equality


def test_regex_eq_pins():
    assert member_shuffled_regex_eq(interleave("aa", "aa"), AB) is True
    assert member_shuffled_regex_eq(interleave("a*", "aa"), AB) is False
    assert member_shuffled_regex_eq(interleave("(a|b)", "(b|a)"), AB) is True


def test_regex_eq_parse_failure_is_a_non_member():
    assert member_shuffled_regex_eq(interleave("a*", "*a"), AB) is False
    assert member_shuffled_regex_eq(interleave("((", "(("), AB) is False


def test_regex_eq_padding_atoms_parse_as_epsilon():
    # ε atoms pad a text to the partner's length without changing its
    # language, wherever they sit
    assert member_shuffled_regex_eq(interleave("a_", "_a"), AB) is True
    # the ∅ atom is not neutral: concatenating it kills one side
    assert member_shuffled_regex_eq(interleave("a~", "a_"), AB) is False


def test_regex_eq_odd_length_or_unpaired_is_non_member():
    assert member_shuffled_regex_eq("aaa", AB) is False


def test_regex_eq_star_equivalences():
    assert member_shuffled_regex_eq(interleave("a**_", "a*__"), AB) is True
    assert member_shuffled_regex_eq(interleave("(ab)*a", "a(ba)*"), AB) is True


def test_regex_eq_on_the_classic_pcp_language():
    # the words to length 36 of the reduction's language: exactly one
    # block sequence spells two equivalent regexes, the solution 2,1,1,3
    lang = reduce_pcp_to_shuffled_regex(CLASSIC, PAD)
    words = list(enumerate_words(lang.nfa, 36))
    assert len(words) == 722
    members = [w for w in words if member_shuffled_regex_eq(w, CLASSIC.alphabet)]
    assert members == ["11001_1_1_11_1_111_1_1100_"]
