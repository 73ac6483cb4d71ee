"""Shortlex enumeration and the budgeted witness search."""

import collections
import hashlib
import itertools
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from regint.automata import Nfa, Tables, accepts, determinize, parse_regex, regex_to_nfa
from regint.errors import CheckerError, MalformedInputError
from regint.problems import (
    encode_tm,
    member_bounded_tiling,
    member_machine_language,
    member_shuffled_string_eq,
    serialize_tile_set,
)
from regint.reductions import reduce_ntm_to_tiles, reduce_ntm_to_tiling_lang, reduce_tm_to_machine_lang
from regint.search import SearchBudget, WitnessReport, enumerate_words, find_witness

from helpers import NEVER, all_words, dfa_word_count


def nfa_for(text, letters):
    return regex_to_nfa(parse_regex(text, frozenset(letters)))


@st.composite
def nfas(draw, letters="ab", max_states=5, max_edges=12):
    n = draw(st.integers(1, max_states))
    labels = [None] + list(letters)
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.sampled_from(labels), st.integers(0, n - 1)
            ),
            max_size=max_edges,
        )
    )
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Nfa(n, frozenset(letters), frozenset(edges), 0, frozenset(finals))


BUDGET = SearchBudget(max_word_length=10, max_words_tested=100, wall_clock_limit=5.0)


# ---------------------------------------------------------------------------
# enumerate_words


def test_enumerate_pins():
    assert list(enumerate_words(determinize(nfa_for("a|b", "ab")), 3)) == ["a", "b"]
    assert list(enumerate_words(nfa_for("(ab)*", "ab"), 5)) == ["", "ab", "abab"]
    assert list(enumerate_words(nfa_for("(aaa)*", "a"), 10)) == ["", "aaa", "a" * 6, "a" * 9]


def test_enumerate_agrees_between_nfa_and_dfa():
    nfa = nfa_for("(ab)*", "ab")
    assert list(enumerate_words(nfa, 5)) == list(enumerate_words(determinize(nfa), 5))


def test_enumerate_is_shortlex_with_sorted_symbols():
    got = list(enumerate_words(determinize(nfa_for("(a|b|c)*", "abc")), 2))
    want = [""] + sorted("abc") + ["".join(p) for p in itertools.product(sorted("abc"), repeat=2)]
    assert got == want


def test_enumerate_empty_language_yields_nothing():
    dead = Nfa(2, frozenset("ab"), frozenset({(0, "a", 1)}), 0, frozenset())
    assert list(enumerate_words(dead, 5)) == []


@settings(max_examples=200, deadline=None)
@given(nfas())
def test_enumerate_stream_is_strictly_shortlex_and_duplicate_free(nfa):
    words = list(enumerate_words(nfa, 5))
    assert len(set(words)) == len(words)
    assert words == sorted(words, key=lambda w: (len(w), w))


def simulate(nfa, word):
    """Subset simulation straight from the transition triples."""

    def close(states):
        todo = list(states)
        while todo:
            q = todo.pop()
            for src, label, dst in nfa.transitions:
                if src == q and label is None and dst not in states:
                    states.add(dst)
                    todo.append(dst)
        return states

    current = close({nfa.start})
    for c in word:
        current = close({dst for src, label, dst in nfa.transitions if src in current and label == c})
    return bool(current & nfa.finals)


@settings(max_examples=200, deadline=None)
@given(nfas())
def test_enumerate_matches_a_brute_force_oracle(nfa):
    assert list(enumerate_words(nfa, 5)) == [w for w in all_words(nfa.alphabet, 5) if simulate(nfa, w)]


@pytest.mark.parametrize("text", [
    "_", "a", "a|b|c", "_|c", "ab", "ba|ab|cc", "(a|b|c)(a|b|c)", "(_|a)(_|c)", "_|a|bc", "c(a|b)|a",
])
def test_enumerate_languages_of_words_up_to_length_two(text):
    # the shortest streams: the search stack never holds more than two frames
    for automaton in (nfa_for(text, "abc"), determinize(nfa_for(text, "abc"))):
        want = [w for w in all_words("abc", 4) if accepts(automaton, w)]
        assert max(map(len, want)) <= 2
        assert list(enumerate_words(automaton, 4)) == want
        assert list(enumerate_words(automaton, 1)) == [w for w in want if len(w) <= 1]


def stream_digest(words):
    h = hashlib.sha256()
    count = 0
    for word in words:
        h.update(word.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def never_tiling_search():
    """The NEVER tiling language and the search-enum length bound."""
    lang = reduce_ntm_to_tiling_lang(NEVER, "bounded")
    return lang.nfa, len(serialize_tile_set(reduce_ntm_to_tiles(NEVER))) + 30


def test_enumerate_never_tiling_stream_is_pinned():
    nfa, bound = never_tiling_search()
    assert stream_digest(enumerate_words(nfa, bound)) == (
        14_693, "e46e2a3b562700363738906bf9a1f21e96a4aecb95cc7e9aef9fc81edfa9f65e")


def test_enumerate_never_machine_stream_is_pinned():
    dfa = determinize(reduce_tm_to_machine_lang(NEVER).nfa)
    assert stream_digest(enumerate_words(dfa, len(encode_tm(NEVER)) + 16)) == (
        65_519, "66e775bda0034dd754890ea31c00113104ff6522b8e7de5f395e848c65d3c877")


def test_enumerate_steps_each_state_set_once_per_symbol(monkeypatch):
    # the tiling language's length-exact targets never repeat across its
    # live lengths, so sharing successors is what keeps this count down
    nfa, bound = never_tiling_search()
    step = Tables.step
    calls = collections.Counter()

    def counted(self, states, sym):
        calls[states, sym] += 1
        return step(self, states, sym)

    monkeypatch.setattr(Tables, "step", counted)
    assert sum(1 for _ in enumerate_words(nfa, bound)) == 14_693
    assert calls and max(calls.values()) == 1


def test_enumerate_long_words_in_linear_memory():
    # a stack of prefix strings would hold 1 + ... + 10,000 letters, about
    # 50 MB, on the way down to the last word
    nfa = nfa_for("(" + "a" * 500 + ")*", "a")
    nfa.tables  # built outside the traced region
    tracemalloc.start()
    try:
        words = list(enumerate_words(nfa, 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == ["a" * n for n in range(0, 10_001, 500)]
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# find_witness


def test_witness_found_for_the_interleaving_checker():
    nfa = nfa_for("(aa)(aa)*", "a")
    rep = find_witness(nfa, lambda w: member_shuffled_string_eq(w, frozenset("a"), "_"), BUDGET)
    assert rep.outcome == "witness" and rep.witness == "aa"
    assert rep.words_tested == 1 and rep.bound is None


def test_exhausted_reports_the_length_bound():
    nfa = nfa_for("(aa)(aa)*", "a")
    rep = find_witness(nfa, lambda w: False, BUDGET)
    assert rep.outcome == "exhausted" and rep.witness is None
    assert rep.words_tested == 5  # aa, aaaa, ..., a^10
    assert rep.bound == 10


def test_empty_automaton_exhausts_immediately():
    dead = Nfa(1, frozenset("a"), frozenset(), 0, frozenset())
    rep = find_witness(dead, lambda w: True, BUDGET)
    assert rep.outcome == "exhausted" and rep.words_tested == 0


def test_word_budget_exceeded():
    nfa = nfa_for("(aa)(aa)*", "a")
    rep = find_witness(
        nfa, lambda w: False, SearchBudget(max_word_length=10, max_words_tested=3, wall_clock_limit=5.0)
    )
    assert rep.outcome == "budget-exceeded" and rep.words_tested == 3


def test_word_budget_boundary_still_exhausts():
    # exactly as many words as the budget allows: that is exhaustion,
    # not a budget violation
    nfa = nfa_for("(aa)(aa)*", "a")
    tight = SearchBudget(max_word_length=10, max_words_tested=5, wall_clock_limit=5.0)
    assert find_witness(nfa, lambda w: False, tight).outcome == "exhausted"


def test_exhausted_never_tiling_search_tests_every_word_once():
    lang = reduce_ntm_to_tiling_lang(NEVER, "bounded")
    bound = len(serialize_tile_set(reduce_ntm_to_tiles(NEVER))) + 20
    rep = find_witness(lang.nfa, member_bounded_tiling, SearchBudget(bound, 100_000, 600.0))
    assert (rep.outcome, rep.witness) == ("exhausted", None)
    assert rep.words_tested == dfa_word_count(determinize(lang.nfa), bound) == 221


def test_exhausted_never_machine_search_tests_every_word_once():
    # the words are ⟨M⟩$x$aⁿ with |x| + n <= m: 2^(m+2) - m - 3 of them
    extra = 10
    m = extra - 2
    bound = len(encode_tm(NEVER)) + extra
    dfa = determinize(reduce_tm_to_machine_lang(NEVER).nfa)
    rep = find_witness(dfa, lambda w: member_machine_language(w, "NP"), SearchBudget(bound, 10**6, 600.0))
    assert (rep.outcome, rep.witness) == ("exhausted", None)
    assert rep.words_tested == dfa_word_count(dfa, bound) == 2 ** (m + 2) - m - 3


def test_wall_clock_budget_exceeded():
    nfa = nfa_for("a*", "a")
    slow = SearchBudget(max_word_length=200, max_words_tested=10**6, wall_clock_limit=0.2)

    def checker(word):
        time.sleep(0.05)
        return False

    rep = find_witness(nfa, checker, slow)
    assert rep.outcome == "budget-exceeded"


def test_word_budget_on_a_live_prefix_tree_streams_in_small_memory():
    # 2^20 words of length 21 and nothing shorter: the search must not
    # build that whole length before testing its first word
    dfa = determinize(nfa_for("(a|b)" * 20 + "c", "abc"))
    tracemalloc.start()
    try:
        rep = find_witness(dfa, lambda w: False, SearchBudget(21, 1000, 60.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.outcome == "budget-exceeded" and rep.words_tested == 1000
    assert peak < 20 * 2**20


def test_replayable_reports():
    nfa = nfa_for("(aa)(aa)*", "a")
    first = find_witness(nfa, lambda w: len(w) >= 6, BUDGET)
    second = find_witness(nfa, lambda w: len(w) >= 6, BUDGET)
    assert first.outcome == "witness" and first.witness == "aaaaaa" and first.words_tested == 3
    assert (first.outcome, first.witness, first.words_tested) == (
        second.outcome,
        second.witness,
        second.words_tested,
    )


@settings(max_examples=150, deadline=None)
@given(nfas())
def test_accept_checker_returns_the_shortlex_least_word(nfa):
    from regint.automata import accepts

    least = next(enumerate_words(nfa, 6), None)
    rep = find_witness(
        nfa,
        lambda w: accepts(nfa, w),
        SearchBudget(max_word_length=6, max_words_tested=10_000, wall_clock_limit=10.0),
    )
    if least is None:
        assert rep.outcome == "exhausted"
    else:
        assert rep.outcome == "witness"
        assert rep.witness == least
        assert rep.words_tested == 1


# ---------------------------------------------------------------------------
# Errors and serialization


def test_checker_exceptions_carry_the_word():
    nfa = nfa_for("(aa)(aa)*", "a")

    def bad(word):
        raise ValueError("boom")

    with pytest.raises(CheckerError) as info:
        find_witness(nfa, bad, BUDGET)
    assert info.value.word == "aa"
    assert "boom" in str(info.value)


def test_budget_limits_must_be_positive():
    for kwargs in (
        dict(max_word_length=0, max_words_tested=1, wall_clock_limit=1.0),
        dict(max_word_length=1, max_words_tested=0, wall_clock_limit=1.0),
        dict(max_word_length=1, max_words_tested=1, wall_clock_limit=0.0),
        dict(max_word_length=1, max_words_tested=1, wall_clock_limit=float("nan")),
        dict(max_word_length=1, max_words_tested=1, wall_clock_limit=float("inf")),
        dict(max_word_length=1, max_words_tested=float("inf"), wall_clock_limit=1.0),
    ):
        with pytest.raises(MalformedInputError):
            SearchBudget(**kwargs)
    assert SearchBudget(10**400, 1, 1.0).max_word_length == 10**400


def test_report_json_shape_and_deterministic_timing():
    report = WitnessReport("witness", "aa", 3, 0.5, None)
    doc = report.to_json()
    assert doc == {
        "outcome": "witness",
        "witness": "aa",
        "wordsTested": 3,
        "elapsedMs": 500.0,
        "bound": None,
    }
    assert report.to_json(deterministic=True)["elapsedMs"] == 0
