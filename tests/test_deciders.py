"""Decision procedures vs independent shortest-member oracles.

The oracles (helpers.seq_shortest_member, helpers.unary_shortest_member)
work on product configurations and never touch the deciders' erasure or
counter machinery; they are themselves grounded against literal
enumeration on a separate seed before being trusted at scale.  The
unary decider is also checked against the PDA grammar route
(helpers.counter_pda through regint.pda), which shares none of its code.
"""

import hashlib
import random
import time

import pytest

from regint.automata import Dfa, Nfa, accepts, determinize, dfa_to_nfa
from regint.deciders import decide_intreg_sequential_string_eq, decide_intreg_unary_shuffled
from regint.errors import AlphabetError
from regint.pda import pda_intersect_dfa, pda_is_empty
from regint.problems import member_sequential_string_eq, member_shuffled_string_eq
from regint.search import enumerate_words

from helpers import chain_dfa, counter_pda, random_dfa, seq_shortest_member, unary_shortest_member

AB = frozenset("ab_$")
A_ = frozenset("a_")


# ---------------------------------------------------------------------------
# Hand-checkable pins


def test_sequential_decider_pins():
    assert decide_intreg_sequential_string_eq(chain_dfa("ab$ab", AB), "ab", "_") == (True, "ab$ab")
    assert decide_intreg_sequential_string_eq(chain_dfa("a$b", AB), "ab", "_") == (False, None)
    # both sides empty is a legitimate member
    assert decide_intreg_sequential_string_eq(chain_dfa("$", AB), "ab", "_") == (True, "$")


def test_sequential_decider_witness_for_a_pad_star_language():
    # a_*$a : pads on the left side only, still equal after erasing
    delta = {}
    for s in range(5):
        for sym in AB:
            delta[(s, sym)] = 4
    delta[(0, "a")] = 1
    delta[(1, "_")] = 1
    delta[(1, "$")] = 2
    delta[(2, "a")] = 3
    d = Dfa(5, AB, delta, 0, frozenset({3}))
    flag, wit = decide_intreg_sequential_string_eq(d, "ab", "_")
    assert flag is True and wit is not None
    assert accepts(d, wit)
    assert member_sequential_string_eq(wit, frozenset("ab"), "_")
    left, right = wit.split("$")
    assert left.replace("_", "") == right.replace("_", "") == "a"


def test_unary_decider_pins():
    assert decide_intreg_unary_shuffled(chain_dfa("aa", A_), "a", "_") is True
    assert decide_intreg_unary_shuffled(chain_dfa("a_", A_), "a", "_") is False
    # (a_a)*a_ shape: every member puts its single 'a' on an odd position
    delta = {}
    for s in range(4):
        for sym in A_:
            delta[(s, sym)] = 3
    delta[(0, "a")] = 1
    delta[(1, "_")] = 2
    delta[(2, "a")] = 1
    d = Dfa(4, A_, delta, 0, frozenset({2}))
    assert decide_intreg_unary_shuffled(d, "a", "_") is False


def test_unary_decider_empty_word_member():
    # "" interleaves two empty unary words
    empty_ok = Dfa(1, A_, {(0, "a"): 0, (0, "_"): 0}, 0, frozenset({0}))
    assert decide_intreg_unary_shuffled(empty_ok, "a", "_") is True


# ---------------------------------------------------------------------------
# Input validation


def test_sequential_decider_alphabet_errors():
    d = chain_dfa("ab$ab", AB)
    with pytest.raises(AlphabetError):
        decide_intreg_sequential_string_eq(d, "ab", "a")  # pad inside sigma
    with pytest.raises(AlphabetError):
        decide_intreg_sequential_string_eq(d, "a$", "_")  # separator inside sigma
    with pytest.raises(AlphabetError):
        decide_intreg_sequential_string_eq(d, "ab", "$")
    small = chain_dfa("aa", frozenset("a_"))
    with pytest.raises(AlphabetError):
        decide_intreg_sequential_string_eq(small, "a", "_")  # no '$' in the DFA


def test_unary_decider_alphabet_errors():
    with pytest.raises(AlphabetError):
        decide_intreg_unary_shuffled(chain_dfa("aa", A_), "a", "a")
    with pytest.raises(AlphabetError):
        decide_intreg_unary_shuffled(chain_dfa("aa", A_), "ab", "_")
    with pytest.raises(AlphabetError):
        decide_intreg_unary_shuffled(chain_dfa("ab$ab", AB), "a", "_")  # wrong alphabet


# ---------------------------------------------------------------------------
# Oracle grounding: shortest-member routines vs literal enumeration


def test_sequential_oracle_grounded_against_enumeration():
    rng = random.Random(12345)
    for i in range(120):
        d = random_dfa(rng, "ab_$")
        shortest = seq_shortest_member(d, "ab", "_")
        literal = None
        for w in enumerate_words(d, 8):
            if member_sequential_string_eq(w, frozenset("ab"), "_"):
                literal = len(w)
                break
        want = shortest if (shortest is not None and shortest <= 8) else None
        assert want == literal, (i, shortest, literal)


def test_unary_oracle_grounded_against_enumeration():
    rng = random.Random(777)
    for i in range(120):
        d = random_dfa(rng, "a_")
        shortest = unary_shortest_member(d, "a", "_", 20)
        literal = None
        for w in enumerate_words(d, 12):
            if member_shuffled_string_eq(w, frozenset("a"), "_"):
                literal = len(w)
                break
        want = shortest if (shortest is not None and shortest <= 12) else None
        assert want == literal, (i, shortest, literal)


# ---------------------------------------------------------------------------
# Decider vs oracle at scale


def sequential_agreement_run(count, seed, min_states=1, max_states=6):
    rng = random.Random(seed)
    for i in range(count):
        d = random_dfa(rng, "ab_$", max_states, min_states)
        # if any member exists, one exists within twice the squared
        # product size plus a constant (pair-pumping on the oracle graph)
        bound = 2 * ((d.states * 3) ** 2 + 1) + 1
        flag, wit = decide_intreg_sequential_string_eq(d, "ab", "_")
        shortest = seq_shortest_member(d, "ab", "_")
        assert flag == (shortest is not None and shortest <= bound), (i, flag, shortest)
        if flag:
            assert accepts(d, wit), (i, wit)
            assert member_sequential_string_eq(wit, frozenset("ab"), "_"), (i, wit)
            assert decide_intreg_sequential_string_eq(d, "ab", "_") == (flag, wit)
    return count


def unary_agreement_run(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        d = random_dfa(rng, "a_")
        bound = 2 * (2 * d.states) ** 2
        flag = decide_intreg_unary_shuffled(d, "a", "_")
        shortest = unary_shortest_member(d, "a", "_", bound // 2 + 1)
        assert flag == (shortest is not None and shortest <= bound), (i, flag, shortest)
    return count


def test_sequential_decider_agrees_with_oracle():
    assert sequential_agreement_run(60, 20240817) == 60


def test_sequential_decider_agrees_with_oracle_on_larger_dfas():
    assert sequential_agreement_run(40, 8675309, min_states=10, max_states=30) == 40


def test_unary_decider_agrees_with_oracle():
    assert unary_agreement_run(60, 31337) == 60


def grammar_route(d):
    return not pda_is_empty(pda_intersect_dfa(counter_pda("a", "_"), d))


def test_unary_decider_agrees_with_the_pda_grammar_route():
    rng = random.Random(2718)
    verdicts = 0
    for i in range(300):
        d = random_dfa(rng, "a_", max_states=9, final_share=rng.choice((0.1, 0.3, 0.5)))
        flag = decide_intreg_unary_shuffled(d, "a", "_")
        assert flag == grammar_route(d), i
        verdicts += flag
    assert 0 < verdicts < 300


def coprime_unary_dfa(p):
    """An (a_)^p loop at the start, an exit on __a_, and a (_a)^(p-1)
    loop at the final state, plus a dead state: 4p + 2 states.  The
    shortest member is (a_)^(p(p-2)) __a_ (_a)^((p-1)(p-1)), whose counter
    peaks at (p-1)²: above twice the state count from p = 11 on."""
    n = 4 * p + 2
    dead = n - 1
    delta = {(s, sym): dead for s in range(n) for sym in A_}
    for i in range(p):
        delta[(2 * i, "a")] = 2 * i + 1
        delta[(2 * i + 1, "_")] = (2 * i + 2) % (2 * p)
    exit_ = 2 * p
    delta[(0, "_")] = exit_
    delta[(exit_, "_")] = exit_ + 1
    delta[(exit_ + 1, "a")] = exit_ + 2
    final = exit_ + 3
    delta[(exit_ + 2, "_")] = final
    for j in range(p - 1):
        delta[(final + 2 * j, "_")] = final + 2 * j + 1
        delta[(final + 2 * j + 1, "a")] = final + (2 * j + 2) % (2 * (p - 1))
    return Dfa(n, A_, delta, 0, frozenset({final}))


def test_unary_decider_on_the_coprime_family():
    start = time.perf_counter()
    for p in range(3, 13):
        d = coprime_unary_dfa(p)
        peak = (p - 1) ** 2
        word = "a_" * (p * (p - 2)) + "__a_" + "_a" * peak
        assert accepts(d, word) and member_shuffled_string_eq(word, frozenset("a"), "_"), p
        assert decide_intreg_unary_shuffled(d, "a", "_") is True, p
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    for p in (3, 4):
        assert grammar_route(coprime_unary_dfa(p)) is True, p


def test_sequential_decider_ignores_injected_pads():
    # adding pad self-loops everywhere never changes the verdict: pads
    # are erased before the sides are compared
    rng = random.Random(5150)
    for i in range(60):
        d = random_dfa(rng, "ab_$")
        nfa = dfa_to_nfa(d)
        loops = frozenset((s, "_", s) for s in range(nfa.states))
        padded = determinize(
            Nfa(nfa.states, nfa.alphabet, nfa.transitions | loops, nfa.start, nfa.finals)
        )
        f1, _ = decide_intreg_sequential_string_eq(d, "ab", "_")
        f2, _ = decide_intreg_sequential_string_eq(padded, "ab", "_")
        assert f1 == f2, i



def cycles_dfa(p, q):
    """u$u' over a, _, $ where |u| is a positive multiple of p and |u'| a
    multiple of q; pads loop on every live state."""
    alphabet = frozenset("a_$")
    dead = p + 1 + q
    delta = {(s, sym): dead for s in range(dead + 1) for sym in alphabet}
    for s in range(p):
        delta[(s, "a")] = s + 1
    delta[(p, "a")] = 1
    delta[(p, "$")] = p + 1
    for j in range(q):
        delta[(p + 1 + j, "a")] = p + 1 + (j + 1) % q
    for s in range(dead):
        delta[(s, "_")] = s
    return Dfa(dead + 1, alphabet, delta, 0, frozenset({p + 1}))


def test_sequential_witness_for_coprime_cycles_is_long():
    # the least common erased word is a^(p*q): 39,800 letters a side, so
    # a witness search that copied the word per layer would be quadratic
    p, q = 199, 200
    start = time.perf_counter()
    flag, wit = decide_intreg_sequential_string_eq(cycles_dfa(p, q), "a", "_")
    elapsed = time.perf_counter() - start
    assert flag is True and len(wit) == 2 * p * q + 1
    assert wit == "a" * (p * q) + "$" + "a" * (p * q)
    assert elapsed < 10.0, elapsed

# (DFA alphabet, base alphabet): with and without a letter outside both
WITNESS_CASES = (("ab_$", "ab"), ("ab_$c", "ab"), ("a_$", "a"), ("abc_$", "abc"))
# sha256 of the (verdict, witness) reprs below: it pins the witness
# definition (first (q, qf) in product order, least shortest common
# erased word, least shortest pad lifts) on DFAs of up to 25 states
WITNESS_DIGEST = "8307f9cc0b46eb7f744a38076032e9ee3ec814f26ecce905888ee05d53856627"


def test_sequential_witnesses_are_pinned():
    rng = random.Random(4242)
    digest = hashlib.sha256()
    verdicts = 0
    for i in range(500):
        alphabet, sigma = WITNESS_CASES[i % len(WITNESS_CASES)]
        d = random_dfa(rng, alphabet, max_states=25, final_share=0.15)
        result = decide_intreg_sequential_string_eq(d, sigma, "_")
        verdicts += result[0]
        digest.update(repr(result).encode())
    assert verdicts == 379
    assert digest.hexdigest() == WITNESS_DIGEST
