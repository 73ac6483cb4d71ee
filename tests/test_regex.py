"""Regex parsing: shapes, precedence, the two atom metacharacters, and
error positions."""

import sys

import pytest

from regint.automata import (
    Alt,
    Concat,
    EmptySet,
    EmptyWord,
    Lit,
    Star,
    accepts,
    determinize,
    parse_regex,
    regex_to_nfa,
)
from regint.errors import AlphabetError, RegexSyntaxError

AB = frozenset("ab")
ABC = frozenset("abc")


def test_two_literal_concat():
    ast = parse_regex("ab", AB)
    assert ast.root == Concat(Lit("a"), Lit("b"))
    assert ast.alphabet == AB


def test_textbook_star_of_alternation():
    ast = parse_regex("(a|b)*", AB)
    assert ast.root == Star(Alt(Lit("a"), Lit("b")))


def test_dangling_alternation_is_an_error():
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex("a|", AB)
    assert exc.value.position == 2


def test_precedence_star_binds_tightest_then_concat_then_alt():
    ast = parse_regex("ab|c*", ABC)
    assert ast.root == Alt(Concat(Lit("a"), Lit("b")), Star(Lit("c")))
    # star applies to the closest atom, not the concatenation
    ast2 = parse_regex("ab*", AB)
    assert ast2.root == Concat(Lit("a"), Star(Lit("b")))


def test_empty_set_and_empty_word_atoms():
    assert parse_regex("~", AB).root == EmptySet()
    assert parse_regex("_", AB).root == EmptyWord()
    # under star and in concatenation they stay ordinary atoms
    ast = parse_regex("a_~*", AB)
    assert ast.root == Concat(Concat(Lit("a"), EmptyWord()), Star(EmptySet()))


def test_parens_group_and_nest():
    ast = parse_regex("((a))", AB)
    assert ast.root == Lit("a")


@pytest.mark.parametrize(
    "text,position",
    [
        ("(a", 0),        # unclosed group, reported at the opener
        ("a)", 1),        # trailing input
        ("*", 0),         # star with no operand
        ("", 0),          # empty expression
        ("a(", 2),        # atom expected inside the group
        ("a||b", 2),      # empty branch
    ],
)
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(text, AB)
    assert exc.value.position == position


def test_literal_outside_alphabet_reports_position():
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex("axb", AB)
    assert exc.value.position == 1


def test_alphabet_may_not_contain_metacharacters():
    for bad in "~_()|*":
        with pytest.raises(AlphabetError):
            parse_regex("a", frozenset({"a", bad}))


def test_parsed_language_matches_hand_semantics():
    dfa = determinize(regex_to_nfa(parse_regex("(a|b)*abb", AB)))
    assert accepts(dfa, "abb")
    assert accepts(dfa, "aabb")
    assert accepts(dfa, "babb")
    assert not accepts(dfa, "ab")
    assert not accepts(dfa, "")


def test_empty_word_atom_denotes_epsilon():
    dfa = determinize(regex_to_nfa(parse_regex("_|a", AB)))
    assert accepts(dfa, "")
    assert accepts(dfa, "a")
    assert not accepts(dfa, "aa")


def test_empty_set_under_star_denotes_epsilon():
    # the grammar allows the empty-set atom anywhere, including under *
    dfa = determinize(regex_to_nfa(parse_regex("~*", AB)))
    assert accepts(dfa, "")
    assert not accepts(dfa, "a")


def test_deep_nesting_and_long_chains_need_no_recursion():
    depth = sys.getrecursionlimit() + 100
    assert parse_regex("(" * depth + "a" + ")" * depth, AB).root == Lit("a")
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex("(" * depth + "a", AB)
    assert exc.value.position == depth - 1  # the innermost opener
    chain = "ab" * depth
    dfa = determinize(regex_to_nfa(parse_regex(chain, AB)))
    assert accepts(dfa, chain) and not accepts(dfa, chain[:-1])
    # a* then one more star per group: two fresh states per star
    starred = regex_to_nfa(parse_regex("(" * depth + "a*" + ")*" * depth, AB))
    assert starred.states == 2 * depth + 4
