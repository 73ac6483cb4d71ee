"""Bounded PCP: the search, the word encoding, and the JSON format."""

import hashlib
import random

import pytest

from regint.errors import MalformedInputError, MalformedWordError
from regint.problems import (
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

from helpers import CLASSIC, PAIR, SOLVABLE, TRIV, UNSOLVABLE, brute_pcp, verify_pcp_solution


# ---------------------------------------------------------------------------
# instance validation


def test_lists_must_have_equal_nonzero_length():
    with pytest.raises(MalformedInputError):
        PcpInstance(frozenset("a"), ("a",), ("a", "a"))
    with pytest.raises(MalformedInputError):
        PcpInstance(frozenset("a"), (), ())


def test_list_entries_must_be_nonempty_and_in_alphabet():
    with pytest.raises(MalformedInputError):
        PcpInstance(frozenset("a"), ("",), ("a",))
    with pytest.raises(MalformedInputError):
        PcpInstance(frozenset("a"), ("b",), ("a",))


# ---------------------------------------------------------------------------
# check_bpcp


def test_single_pair_solves_at_k_1():
    sol = check_bpcp(TRIV, 1)
    assert sol is not None
    assert tuple(sol.indices) == (1,)
    assert sol.bound == 1


def test_classic_instance_solves_at_k_4():
    sol = check_bpcp(CLASSIC, 4)
    assert sol is not None
    assert tuple(sol.indices) == (2, 1, 1, 3)
    cat_a = "".join(CLASSIC.list_a[i - 1] for i in sol.indices)
    cat_b = "".join(CLASSIC.list_b[i - 1] for i in sol.indices)
    assert cat_a == cat_b == "101111110"


def test_classic_instance_unsolvable_at_k_3():
    assert check_bpcp(CLASSIC, 3) is None
    assert brute_pcp(CLASSIC, 3) is None


def test_nonpositive_bound_yields_none():
    assert check_bpcp(TRIV, 0) is None
    assert check_bpcp(TRIV, -2) is None


def test_solutions_verify_and_none_agrees_with_brute_force():
    for pcp, expected in SOLVABLE:
        sol = check_bpcp(pcp, len(expected))
        assert sol is not None
        assert verify_pcp_solution(pcp, sol.indices)
        assert tuple(sol.indices) == brute_pcp(pcp, len(expected))
    for pcp in UNSOLVABLE:
        for k in range(1, 5):
            assert check_bpcp(pcp, k) is None
        assert brute_pcp(pcp, 4) is None


def random_pcp(rng):
    def word():
        return "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))

    n = rng.randint(1, 4)
    return PcpInstance(frozenset("01"), tuple(word() for _ in range(n)), tuple(word() for _ in range(n)))


# sha256 of each result's indices and bound, or None, in instance order:
# it pins which solution the search returns, not only whether one exists
BPCP_DIGEST = "63b50e001eb237f5cd455e148c7905f37534cca5eb4b4512b8dcee5091fe1e6a"


def test_check_bpcp_results_are_pinned():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    solved = 0
    for _ in range(3000):
        pcp, k = random_pcp(rng), rng.randint(0, 6)
        sol = check_bpcp(pcp, k)
        solved += sol is not None
        digest.update(repr(sol and (sol.indices, sol.bound)).encode())
    assert solved == 426
    assert digest.hexdigest() == BPCP_DIGEST


def test_search_order_is_length_then_lex():
    # indices (1,) and (2,) both solve; the lex-least short one wins
    inst = PcpInstance(frozenset("ab"), ("a", "b"), ("a", "b"))
    sol = check_bpcp(inst, 3)
    assert tuple(sol.indices) == (1,)
    assert tuple(brute_pcp(inst, 3)) == (1,)


def test_pair_instance_solution():
    sol = check_bpcp(PAIR, 2)
    assert tuple(sol.indices) == (1, 2)
    assert verify_pcp_solution(PAIR, (1, 2))


# ---------------------------------------------------------------------------
# binary bound encoding


def test_bin_encode_msb_first_without_leading_zeros():
    assert bin_encode(1) == "1"
    assert bin_encode(4) == "100"
    assert bin_encode(6) == "110"


def test_bin_encode_rejects_nonpositive():
    with pytest.raises(MalformedInputError):
        bin_encode(0)


def test_bin_decode_round_trip_and_rejections():
    for k in range(1, 40):
        assert bin_decode(bin_encode(k)) == k
    for bad in ("", "0", "01", "2"):
        with pytest.raises(MalformedWordError):
            bin_decode(bad)


# ---------------------------------------------------------------------------
# word encoding


def test_word_round_trip():
    word = "1#10111#10$111#10#0$11"
    inst, k = parse_bpcp_word(word)
    assert inst.list_a == ("1", "10111", "10")
    assert inst.list_b == ("111", "10", "0")
    assert k == 3


def test_member_bpcp_pins():
    assert member_bpcp("1#10111#10#10$111#10#0#0$100") is True
    assert member_bpcp("1#10111#10$111#10#0$11") is False  # no solution at K=3
    assert member_bpcp("a#a$a#a$10") is True


def test_malformed_words_are_non_members():
    assert member_bpcp("") is False
    assert member_bpcp("a$a") is False            # missing bound field
    assert member_bpcp("a$a$0") is False          # illegal bin(K)
    assert member_bpcp("a#a$a$1") is False        # list length mismatch
    assert member_bpcp("a$a$10") is False         # K exceeds the list length
    assert member_bpcp("#a$a$1") is False         # empty list entry
    assert member_bpcp("a$a$1$") is False         # too many separators


def test_an_empty_list_entry_makes_the_word_malformed():
    # the lists agree in length, so the instance itself refuses the entry
    with pytest.raises(MalformedWordError, match=r"a\[1\]: strings must be nonempty"):
        parse_bpcp_word("a#$b#c$1")
    assert member_bpcp("a#$b#c$1") is False


def test_solution_indices_are_one_based_and_within_the_bound():
    for indices, bound in (((), 1), ((1, 1), 1), ((0,), 1)):
        with pytest.raises(MalformedInputError):
            BpcpSolution(indices, bound)


def test_k_must_not_exceed_list_length():
    # K = n is fine, K = n+1 is malformed
    assert member_bpcp("a#a$a#a$10") is True
    assert member_bpcp("a#a$a#a$11") is False


# ---------------------------------------------------------------------------
# JSON


def test_pcp_json_round_trip():
    doc = pcp_to_json(CLASSIC)
    assert doc == {"alphabet": ["0", "1"], "a": ["1", "10111", "10"], "b": ["111", "10", "0"]}
    assert pcp_from_json(doc) == CLASSIC


def test_pcp_json_names_bad_fields():
    with pytest.raises(MalformedInputError) as exc:
        pcp_from_json({"alphabet": ["a"], "a": ["a"]})
    assert "b" in str(exc.value)
