"""NFA/DFA construction, products, erasing, equivalence, and the JSON
wire format."""

import hashlib
import json
import random
from functools import reduce

import pytest

from regint.automata import (
    Alt,
    Concat,
    Dfa,
    EmptySet,
    EmptyWord,
    Lit,
    Nfa,
    RegexAst,
    Star,
    accepts,
    automaton_from_json,
    automaton_to_json,
    determinize,
    dfa_to_nfa,
    equivalent,
    erase_letters,
    intersect_dfa,
    is_empty,
    parse_regex,
    regex_to_nfa,
)
from regint.errors import AlphabetError, MalformedInputError
from regint.search import enumerate_words

from helpers import chain_dfa, random_dfa

AB = frozenset("ab")


def dfa_for(text, alphabet):
    return determinize(regex_to_nfa(parse_regex(text, alphabet)))


# ---------------------------------------------------------------------------
# regex_to_nfa


def test_empty_set_atom_accepts_nothing():
    nfa = regex_to_nfa(RegexAst(EmptySet(), AB))
    assert is_empty(nfa)
    assert not accepts(nfa, "")


def test_single_literal_accepts_exactly_itself():
    nfa = regex_to_nfa(parse_regex("a", AB))
    assert accepts(nfa, "a")
    assert not accepts(nfa, "")
    assert not accepts(nfa, "aa")


def test_star_language_membership():
    nfa = regex_to_nfa(parse_regex("(a|b)*", frozenset("abc")))
    assert accepts(nfa, "abba")
    assert not accepts(nfa, "abc")


# ---------------------------------------------------------------------------
# determinize


def test_determinize_merges_duplicate_branches():
    dfa = determinize(regex_to_nfa(parse_regex("a|a", AB)))
    words = list(enumerate_words(dfa, 4))
    assert words == ["a"]


def test_determinize_follows_silent_moves_to_finals():
    # 0 --silent--> 1 (final): the DFA must accept the empty word
    nfa = Nfa(2, AB, frozenset({(0, None, 1)}), 0, frozenset({1}))
    dfa = determinize(nfa)
    assert accepts(dfa, "")


def test_determinize_produces_total_delta():
    dfa = determinize(regex_to_nfa(parse_regex("ab", AB)))
    for s in range(dfa.states):
        for sym in AB:
            assert (s, sym) in dfa.delta


def test_round_trip_through_dfa_to_nfa():
    dfa = dfa_for("(ab)*a", AB)
    back = determinize(dfa_to_nfa(dfa))
    assert equivalent(dfa, back)


def test_a_dfa_compiles_to_the_tables_of_its_nfa_view():
    rng = random.Random(5)
    for _ in range(200):
        d = random_dfa(rng, "abc", max_states=8)
        assert d.tables == dfa_to_nfa(d).tables


# ---------------------------------------------------------------------------
# state numbering


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([EmptySet(), EmptyWord(), Lit("a"), Lit("b"), Lit("c")])
    kind = rng.randrange(3)
    if kind == 0:
        return Concat(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Alt(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Star(_random_ast(rng, depth - 1))


def _random_nfa(rng):
    n = rng.randint(1, 7)
    edges = frozenset(
        (rng.randrange(n), rng.choice([None, "a", "b"]), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, AB, edges, rng.randrange(n), finals)


def _digest(automata):
    text = json.dumps([automaton_to_json(x) for x in automata], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_determinize_state_numbering_is_pinned():
    # breadth-first numbering in symbol order; the digest pins every
    # state number, move and final set, so a reordering shows here
    rng = random.Random(20261018)
    nfas = [regex_to_nfa(RegexAst(_random_ast(rng, 5), frozenset("abc"))) for _ in range(150)]
    nfas += [_random_nfa(rng) for _ in range(150)]
    assert _digest(determinize(n) for n in nfas) == DETERMINIZE_DIGEST


def test_thompson_state_numbering_is_pinned():
    # Alt, Star and each leaf number their (entry, exit) pair in a
    # left-to-right pre-order and Concat adds no state; the digest pins
    # every state number, so a renumbering shows here, on the ASTs of the
    # determinize pin and one long left-nested chain
    rng = random.Random(20261018)
    roots = [_random_ast(rng, 5) for _ in range(150)]
    roots.append(reduce(Concat, (Lit("abc"[i % 3]) for i in range(3000))))
    assert _digest(regex_to_nfa(RegexAst(root, frozenset("abc"))) for root in roots) == THOMPSON_DIGEST


def test_intersect_dfa_state_numbering_is_pinned():
    rng = random.Random(20261018)
    pairs = [(random_dfa(rng, "ab", 8), random_dfa(rng, "ab", 8)) for _ in range(200)]
    assert _digest(intersect_dfa(a, b) for a, b in pairs) == INTERSECT_DIGEST


DETERMINIZE_DIGEST = "309a0aab23abaf6907c57594b9bcfa02b49d4ce79ffeaa4becb116494b6b9e11"
THOMPSON_DIGEST = "b10cd14d223e661db8f3f235c7f9bbe91bc823db463940c1251ea3ddbb1d4ad2"
INTERSECT_DIGEST = "9f8628068d1c43fe7dd1a263d2d737e979027bfcc4480738a82c26da310aa11f"


# ---------------------------------------------------------------------------
# intersect_dfa


def test_intersection_drops_the_empty_word():
    product = intersect_dfa(dfa_for("a*", frozenset("a")), dfa_for("aa*", frozenset("a")))
    assert list(enumerate_words(product, 3)) == ["a", "aa", "aaa"]


def test_intersection_with_empty_language_is_empty():
    product = intersect_dfa(dfa_for("(a|b)*", AB), dfa_for("~", AB))
    assert is_empty(product)


def test_intersection_agrees_with_enumeration_to_length_10():
    a = dfa_for("(ab)*", AB)
    b = dfa_for("a(ba)*b|_", AB)
    product = intersect_dfa(a, b)
    for n in range(11):
        for w in _all_words(AB, n):
            assert accepts(product, w) == (accepts(a, w) and accepts(b, w))


def test_intersection_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetError):
        intersect_dfa(dfa_for("a", frozenset("a")), dfa_for("b", frozenset("b")))


def _all_words(alphabet, n):
    letters = sorted(alphabet)
    if n == 0:
        yield ""
        return
    for w in _all_words(alphabet, n - 1):
        for c in letters:
            yield w + c


# ---------------------------------------------------------------------------
# is_empty


def test_unreachable_finals_mean_empty():
    delta = {(s, sym): 0 for s in range(2) for sym in AB}
    dfa = Dfa(2, AB, delta, 0, frozenset({1}))
    assert is_empty(dfa)


def test_accepting_the_empty_word_is_not_empty():
    assert not is_empty(dfa_for("_", AB))


# ---------------------------------------------------------------------------
# accepts


def test_accepts_empty_word_in_star():
    assert accepts(dfa_for("a*", frozenset("a")), "")


def test_accepts_raises_on_out_of_alphabet_symbol():
    with pytest.raises(AlphabetError):
        accepts(dfa_for("a*", frozenset("a")), "b")


def test_nfa_simulation_through_nondeterminism():
    nfa = regex_to_nfa(parse_regex("(a|b)*abb", AB))
    assert accepts(nfa, "aabb")
    assert not accepts(nfa, "aab")


# ---------------------------------------------------------------------------
# erase_letters


def test_erase_single_pad():
    out = erase_letters(chain_dfa("a_b", frozenset("ab_")), {"_"})
    assert out.alphabet == AB
    assert accepts(out, "ab")
    assert list(enumerate_words(out, 5)) == ["ab"]


def test_erase_everything_leaves_epsilon():
    out = erase_letters(chain_dfa("__", frozenset("a_")), {"_"})
    assert list(enumerate_words(out, 4)) == [""]


def test_erase_from_repeated_pattern():
    nfa = regex_to_nfa(parse_regex("(ax)*", frozenset("ax")))
    out = erase_letters(nfa, {"x"})
    # (ax)* erased to a*: enumeration oracle to length 6
    assert list(enumerate_words(out, 6)) == ["a" * n for n in range(7)]


def test_erase_requires_subset_of_alphabet():
    with pytest.raises(AlphabetError):
        erase_letters(chain_dfa("ab", AB), {"z"})


# ---------------------------------------------------------------------------
# equivalent


def test_alternation_commutes():
    assert equivalent(dfa_for("(a|b)*", AB), dfa_for("(b|a)*", AB))


def test_star_vs_plus_differ_on_the_empty_word():
    a = dfa_for("a*", frozenset("a"))
    b = dfa_for("aa*", frozenset("a"))
    assert not equivalent(a, b)
    assert accepts(a, "") and not accepts(b, "")


def test_equivalent_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetError):
        equivalent(dfa_for("a", frozenset("a")), dfa_for("b", frozenset("b")))


def test_equivalence_works_on_nfas_too():
    assert equivalent(regex_to_nfa(parse_regex("(ab)*", AB)),
                      regex_to_nfa(parse_regex("_|ab(ab)*", AB)))


def test_only_backward_searches_build_the_predecessor_table():
    e, f = (regex_to_nfa(parse_regex(text, AB)) for text in ("(a|b)*abb", "(b*a*)*abb"))
    assert equivalent(e, f)
    dfa = determinize(e)
    assert accepts(dfa, "babb") and accepts(e, "babb")
    assert all("pred" not in x.tables.__dict__ for x in (e, f, dfa))
    assert not is_empty(dfa)
    assert "pred" in dfa.tables.__dict__
    assert all(dfa.tables.pred[dst] >> src & 1 for (src, _), dst in dfa.delta.items())


# ---------------------------------------------------------------------------
# JSON wire format


def test_dfa_json_round_trip():
    dfa = dfa_for("(a|b)*abb", AB)
    again = automaton_from_json(automaton_to_json(dfa))
    assert isinstance(again, Dfa)
    assert equivalent(dfa, again)


def test_nfa_json_round_trip_keeps_silent_moves():
    nfa = Nfa(2, AB, frozenset({(0, None, 1)}), 0, frozenset({1}))
    doc = automaton_to_json(nfa)
    assert {"from": 0, "on": None, "to": 1} in doc["transitions"]
    again = automaton_from_json(doc)
    assert isinstance(again, Nfa)
    assert accepts(again, "")


def test_loader_rejects_partial_dfa():
    doc = automaton_to_json(dfa_for("a", frozenset("a")))
    doc["transitions"] = doc["transitions"][:-1]
    with pytest.raises(MalformedInputError):
        automaton_from_json(doc)


def test_loader_rejects_silent_moves_in_dfa():
    doc = {
        "kind": "dfa",
        "alphabet": ["a"],
        "states": 1,
        "start": 0,
        "finals": [0],
        "transitions": [{"from": 0, "on": None, "to": 0}],
    }
    with pytest.raises(MalformedInputError):
        automaton_from_json(doc)
    # built directly, a total dfa with one more, silent, move
    with pytest.raises(MalformedInputError, match="silent moves are not allowed in a dfa"):
        Dfa(1, frozenset("a"), {(0, "a"): 0, (0, None): 0}, 0, frozenset())


def test_loader_names_the_bad_field():
    with pytest.raises(MalformedInputError) as exc:
        automaton_from_json({"kind": "dfa", "alphabet": ["ab"], "states": 1,
                             "start": 0, "finals": [], "transitions": []})
    assert "alphabet" in str(exc.value)
