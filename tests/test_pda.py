"""PDA construction, DFA products, and CFG-based emptiness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import regint

from regint.automata import determinize, parse_regex, regex_to_nfa
from regint.errors import AlphabetError, MalformedInputError
from regint.pda import Cfg, Pda, cfg_generating, cfg_is_empty, pda_intersect_dfa, pda_is_empty, pda_to_cfg

from helpers import chain_dfa, counter_pda, pda_nonempty_bfs


def dfa_for(text, alphabet):
    return determinize(regex_to_nfa(parse_regex(text, alphabet)))


def counter_balance_pda():
    """One state; an 'a' pushes, a 'b' pops; accepts a^n b^n prefixes
    balanced back to the bottom marker."""
    moves = frozenset(
        {
            (0, "a", "Z", 0, ("A", "Z")),
            (0, "a", "A", 0, ("A", "A")),
            (0, "b", "A", 0, ()),
        }
    )
    return Pda(1, frozenset("ab"), frozenset("ZA"), "Z", moves, 0, frozenset({0}))


# ---------------------------------------------------------------------------
# validation


def test_pda_rejects_unknown_stack_symbols():
    with pytest.raises(MalformedInputError):
        Pda(1, frozenset("a"), frozenset("Z"), "Z",
            frozenset({(0, "a", "X", 0, ())}), 0, frozenset())


def test_pda_rejects_labels_outside_the_input_alphabet():
    with pytest.raises(MalformedInputError):
        Pda(1, frozenset("a"), frozenset("Z"), "Z",
            frozenset({(0, "b", "Z", 0, ("Z",))}), 0, frozenset())


@pytest.mark.parametrize("fields, message", [
    ({"states": 0}, "states: need at least one state"),
    ({"start": 1}, "start: state 1 out of range"),
    ({"finals": frozenset({0, 2})}, "finals: state 2 out of range"),
    ({"bottom": "X"}, "bottom: not a stack symbol"),
    ({"start": 1, "bottom": "X"}, "start: state 1 out of range"),  # the automaton checks come first
    ({"transitions": frozenset({(0, "a", "Z", 1, ())})}, "transitions: state out of range"),
    ({"transitions": frozenset({(0, "a", "Z", 0, ("Z", "X"))})},
     "transitions: pushed symbol 'X' not in stack alphabet"),
])
def test_pda_names_its_first_bad_field(fields, message):
    good = {"states": 1, "input_alphabet": frozenset("a"), "stack_alphabet": frozenset("Z"), "bottom": "Z",
            "transitions": frozenset(), "start": 0, "finals": frozenset()}
    with pytest.raises(MalformedInputError) as exc:
        Pda(**{**good, **fields})
    assert str(exc.value) == message


def test_the_first_fault_named_does_not_depend_on_the_hash_seed():
    # four faulty moves: a frozenset's order would pick a different one
    # under different hash seeds, the sorted order always the silent "X" pop
    script = ("from regint.errors import MalformedInputError\n"
              "from regint.pda import Pda\n"
              "moves = frozenset({(0, 'b', 'Z', 0, ()), (0, 'c', 'Z', 0, ()), (0, 'd', 'Z', 0, ()),\n"
              "                   (0, None, 'X', 0, ()), (0, 'a', 'Z', 0, ('Z',))})\n"
              "try:\n"
              "    Pda(1, frozenset('a'), frozenset('Z'), 'Z', moves, 0, frozenset())\n"
              "except MalformedInputError as exc:\n"
              "    print(exc)\n")
    src = str(Path(regint.__file__).parents[1])  # the package under test
    outcomes = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}).stdout
        for seed in range(7)
    }
    assert outcomes == {"transitions: popped symbol 'X' not in stack alphabet\n"}


# ---------------------------------------------------------------------------
# emptiness


def test_unreachable_finals_are_empty():
    pda = Pda(2, frozenset("a"), frozenset("Z"), "Z",
              frozenset({(0, "a", "Z", 0, ("Z",))}), 0, frozenset({1}))
    assert pda_is_empty(pda)


def test_accepting_the_empty_word_is_not_empty():
    pda = Pda(1, frozenset("a"), frozenset("Z"), "Z", frozenset(), 0, frozenset({0}))
    assert not pda_is_empty(pda)


def test_balance_pda_is_nonempty():
    assert not pda_is_empty(counter_balance_pda())


def test_emptiness_needs_the_stack_back_at_bottom():
    # 'a' buries the bottom marker and nothing ever pops: no member
    pda = Pda(1, frozenset("a"), frozenset("ZA"), "Z",
              frozenset({(0, "a", "Z", 0, ("A", "Z"))}), 0, frozenset({0}))
    # "" is accepted at the start configuration, so not empty ...
    assert not pda_is_empty(pda)
    # ... but the same machine with acceptance in a fresh state is empty
    pda2 = Pda(2, frozenset("a"), frozenset("ZA"), "Z",
               frozenset({(0, "a", "Z", 1, ("A", "Z"))}), 0, frozenset({1}))
    assert pda_is_empty(pda2)


# ---------------------------------------------------------------------------
# products with DFAs


def test_identity_intersection_keeps_the_language():
    pda = counter_balance_pda()
    everything = dfa_for("(a|b)*", frozenset("ab"))
    assert not pda_is_empty(pda_intersect_dfa(pda, everything))


def test_product_with_empty_dfa_is_empty():
    pda = counter_balance_pda()
    nothing = dfa_for("~", frozenset("ab"))
    assert pda_is_empty(pda_intersect_dfa(pda, nothing))


def test_product_membership_probe_word_by_word():
    # L(p) ∩ {w} is nonempty exactly when p accepts w
    pda = counter_balance_pda()
    for w, want in [("", True), ("ab", True), ("aabb", True), ("aab", False),
                    ("ba", False), ("abab", True), ("aabbb", False)]:
        product = pda_intersect_dfa(pda, chain_dfa(w, frozenset("ab")))
        assert pda_is_empty(product) != want, w


def test_product_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetError):
        pda_intersect_dfa(counter_balance_pda(), dfa_for("a", frozenset("a")))


def test_counter_pda_product_with_one_word():
    pda = counter_pda("a", "_")
    product = pda_intersect_dfa(pda, chain_dfa("aa", frozenset("a_")))
    assert not pda_is_empty(product)
    for w in ("a", "a_", "_a", "aaa"):
        bad = pda_intersect_dfa(pda, chain_dfa(w, frozenset("a_")))
        assert pda_is_empty(bad), w


def test_counter_pda_product_with_alternating_words_is_empty():
    # words a_ a_a_ ...: all unary letters sit on odd positions, so the
    # two interleaved tracks never balance; enumeration of (a_)+ to
    # length 12 through the membership checker finds nothing either
    from regint.problems import member_shuffled_string_eq
    from regint.search import enumerate_words

    lang = determinize(regex_to_nfa(parse_regex("(ax)(ax)*", frozenset("ax"))))
    # relabel x as the pad by rebuilding the delta
    from regint.automata import Dfa

    delta = {(s, ("_" if sym == "x" else sym)): t for (s, sym), t in lang.delta.items()}
    dfa = Dfa(lang.states, frozenset("a_"), delta, lang.start, lang.finals)
    assert pda_is_empty(pda_intersect_dfa(counter_pda("a", "_"), dfa))
    for w in enumerate_words(dfa, 12):
        assert not member_shuffled_string_eq(w, frozenset("a"), "_")


# ---------------------------------------------------------------------------
# the CFG route and the capped configuration-search oracle


def test_cfg_generating_fixpoint_on_a_tiny_grammar():
    cfg = Cfg(
        terminals=frozenset("ab"),
        productions=frozenset({("S", ("a", "T")), ("T", ("b",)), ("U", ("U",))}),
        start="S",
    )
    gen = cfg_generating(cfg)
    assert "S" in gen and "T" in gen and "U" not in gen
    assert not cfg_is_empty(cfg)
    assert cfg_is_empty(Cfg(frozenset("a"), frozenset({("S", ("S",))}), "S"))


def test_pda_to_cfg_emptiness_matches_on_catalog():
    catalog = [
        counter_balance_pda(),
        counter_pda("a", "_"),
        Pda(2, frozenset("a"), frozenset("Z"), "Z", frozenset(), 0, frozenset({1})),
    ]
    for pda in catalog:
        assert cfg_is_empty(pda_to_cfg(pda)) == pda_is_empty(pda)


def test_emptiness_agrees_with_config_search_at_the_square_cap():
    # the deterministic catalog stays within stack height stateCount²
    catalog = [
        counter_balance_pda(),
        counter_pda("a", "_"),
        pda_intersect_dfa(counter_pda("a", "_"), chain_dfa("aa", frozenset("a_"))),
        pda_intersect_dfa(counter_pda("a", "_"), chain_dfa("a_", frozenset("a_"))),
        Pda(2, frozenset("a"), frozenset("ZA"), "Z",
            frozenset({(0, "a", "Z", 1, ("A", "Z"))}), 0, frozenset({1})),
    ]
    for pda in catalog:
        cap = pda.states * pda.states
        assert pda_is_empty(pda) == (not pda_nonempty_bfs(pda, cap))
