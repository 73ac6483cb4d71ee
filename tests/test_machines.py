"""Turing machine encoding and the three resource-bounded acceptance
modes, checked against runs traced by hand and against the layered
configuration search of tests/helpers.py."""

import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import regint
from regint.errors import MalformedInputError, MalformedWordError, ResourceLimitError
from regint.problems import (
    TmSpec,
    decode_tm,
    encode_tm,
    member_machine_language,
    parse_machine_word,
    tm_from_json,
    tm_to_json,
)
from regint.problems import machines
from regint.reductions import reduce_tm_to_machine_lang
from regint.search import SearchBudget, enumerate_words, find_witness

from helpers import ACCEPT_NOW, GUESS, M1, M2, NEVER, bfs_member_machine_language

MACHINES = [M1, M2, ACCEPT_NOW, NEVER]


# ---------------------------------------------------------------------------
# TmSpec validation


def test_accept_state_may_not_move_on():
    with pytest.raises(MalformedInputError):
        TmSpec(states=2, input_alphabet=("0",), tape_alphabet=("_", "0"), blank="_",
               start=0, accept=1, transitions=frozenset({(1, "0", 0, "0", "S")}))


def test_blank_is_not_an_input_symbol():
    with pytest.raises(MalformedInputError):
        TmSpec(states=1, input_alphabet=("_",), tape_alphabet=("_",), blank="_",
               start=0, accept=0, transitions=frozenset())


def test_transition_symbols_must_be_tape_symbols():
    with pytest.raises(MalformedInputError):
        TmSpec(states=1, input_alphabet=(), tape_alphabet=("_",), blank="_",
               start=0, accept=0, transitions=frozenset({(0, "x", 0, "_", "S")}))


# ---------------------------------------------------------------------------
# encoding


def test_encode_decode_round_trip_on_canonical_machines():
    # M1 is deliberately non-canonical (its input symbol is "1"), so it
    # has no encoding; see the rejection test below
    for tm in (M2, ACCEPT_NOW, NEVER):
        assert decode_tm(encode_tm(tm)) == tm


def test_encoding_is_a_bit_string():
    enc = encode_tm(M2)
    assert set(enc) <= {"0", "1"}
    assert enc == "00100011010010100100110100010010001000"


def test_encode_rejects_noncanonical_layouts():
    # same machine, input symbol renamed: no longer the canonical names
    odd = TmSpec(states=2, input_alphabet=("x",), tape_alphabet=("_", "x"), blank="_",
                 start=0, accept=1, transitions=frozenset({(0, "x", 1, "x", "S")}))
    with pytest.raises(MalformedInputError):
        encode_tm(odd)
    with pytest.raises(MalformedInputError):
        encode_tm(M1)  # input symbol "1" where the canon wants "0"


def test_decode_rejects_malformed_bit_strings():
    enc = encode_tm(M2)
    header, first, second = "00100011", "010010100100", "0100010010001000"
    assert enc == header + first + "11" + second
    for bad in ("", "2", "111", "001", "0010001", enc + "0",
                enc + "11",  # trailing separator after a transition
                header + "0101010",  # a transition of 4 zero-runs
                header + "01010101010",  # a transition of 6 zero-runs
                header + first + "111" + second,  # three 1s between transitions
                "100011",  # empty first zero-run
                enc + "\n", "0100011 "):
        with pytest.raises(MalformedWordError):
            decode_tm(bad)


# ---------------------------------------------------------------------------
# machine words


def test_parse_machine_word_shape():
    enc = encode_tm(M2)
    mw = parse_machine_word(f"{enc}$01$aaaa")
    assert mw.machine_encoding == enc
    assert mw.x == "01"
    assert mw.pad_count == 4
    assert mw.tm == M2


def test_parse_machine_word_rejections():
    enc = encode_tm(M2)
    for bad in ("", "$$", f"{enc}$01", f"{enc}$01$aa$a", f"{enc}$2$aa", f"{enc}$01$ab"):
        with pytest.raises(MalformedWordError):
            parse_machine_word(bad)


def test_malformed_words_are_non_members_in_every_mode():
    for mode in ("NL", "NP", "PSPACE"):
        assert member_machine_language("not a word", mode) is False
        assert member_machine_language("", mode) is False


def test_unknown_mode_is_an_error():
    with pytest.raises(ValueError):
        member_machine_language("x", "EXPTIME")
    with pytest.raises(ValueError):
        member_machine_language(f"{encode_tm(M2)}$01$", "EXPTIME")


def test_nl_words_without_pads_are_answered_before_the_parse(monkeypatch):
    def unparsed(word):
        raise AssertionError(f"parsed {word!r}")

    monkeypatch.setattr(machines, "_parse", unparsed)
    for word in (f"{encode_tm(ACCEPT_NOW)}$0$", f"{encode_tm(M2)}$01$", "0100011$$", "$$", "$", "x$"):
        assert member_machine_language(word, "NL") is False


# ---------------------------------------------------------------------------
# the decoded-machine cache


def word_outcome(word):
    try:
        parsed = parse_machine_word(word)
    except MalformedWordError as exc:
        parsed = str(exc)
    return parsed, [member_machine_language(word, mode) for mode in ("NP", "NL", "PSPACE")]


def language_words(tm, extra):
    return list(enumerate_words(reduce_tm_to_machine_lang(tm).nfa, len(encode_tm(tm)) + extra))


@pytest.mark.parametrize("tm", [NEVER, M2], ids=["never", "m2"])
def test_cached_decode_gives_the_fresh_answer(tm):
    words = language_words(tm, 8)
    assert len(words) == 247  # ⟨M⟩$x$aⁿ with |x| + n <= 6
    decode_tm.cache_clear()
    cached = [word_outcome(word) for word in words]
    assert decode_tm.cache_info().misses == 1  # every word shares one ⟨M⟩
    for word, want in zip(words, cached):
        decode_tm.cache_clear()
        assert word_outcome(word) == want
    assert any(any(answers) for _, answers in cached) == (tm is M2)


def test_decode_cache_keeps_failures_and_stays_bounded():
    enc = encode_tm(NEVER)

    def then(*runs):  # enc with one more transition, its zero-run lengths given
        return enc + "11" + "1".join("0" * run for run in runs)

    bad_encodings = {
        enc + "00": "move code 4 not in 1..3",
        enc + "1": "not a machine encoding",
        then(3, 1, 1, 1, 1): "transition state index out of range 1..2",
        then(1, 4, 1, 1, 1): "transition symbol index out of range 1..3",
        then(2, 1, 1, 1, 1): "decoded machine invalid: delta: accept state may not",
    }
    words, bad_words = [], {}
    for word in language_words(NEVER, 6)[::4]:
        rest = word[len(enc):]
        words.append(word)
        for bad, message in bad_encodings.items():
            words.append(bad + rest)
            bad_words[bad + rest] = message
    alone = {}
    for word in words:
        decode_tm.cache_clear()
        alone[word] = word_outcome(word)
    for word, message in bad_words.items():
        assert alone[word][0].startswith(message)
        assert alone[word][1] == [False, False, False]
    decode_tm.cache_clear()
    for word in words + words[::-1]:
        assert word_outcome(word) == alone[word]

    maxsize = decode_tm.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 10):
        assert decode_tm("0" * (i + 1) + "1011").states == i + 1
    assert decode_tm.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# hand-traced runs
#
# ACCEPT_NOW accepts in zero steps.  M2 on "01" runs
#   q0 on cell 1 reads 0, writes 0, right; q0 on cell 2 reads 1 -> accept
# so it needs 2 steps, 2 cells, and 2 read positions.  NEVER walks right
# forever without accepting.


def _word(tm, x, n):
    return f"{encode_tm(tm)}${x}${'a' * n}"


@pytest.mark.parametrize("mode", ["NL", "NP", "PSPACE"])
def test_accepting_start_state_accepts_any_input(mode):
    assert member_machine_language(_word(ACCEPT_NOW, "0", 2), mode) is True
    assert member_machine_language(_word(ACCEPT_NOW, "", 2), mode) is True
    # header only: 1 state, 3 tape symbols, no moves; state 1 accepts
    assert member_machine_language("0100011$01$aa", mode) is True


@pytest.mark.parametrize("mode", ["NL", "NP", "PSPACE"])
def test_unreachable_accept_rejects_everything(mode):
    assert member_machine_language(_word(NEVER, "01", 8), mode) is False
    assert member_machine_language(_word(NEVER, "", 4), mode) is False


def test_m2_np_mode_needs_two_steps():
    assert member_machine_language(_word(M2, "01", 8), "NP") is True
    assert member_machine_language(_word(M2, "01", 2), "NP") is True
    assert member_machine_language(_word(M2, "01", 1), "NP") is False


def test_m2_pspace_mode_needs_two_cells():
    assert member_machine_language(_word(M2, "01", 2), "PSPACE") is True
    assert member_machine_language(_word(M2, "01", 1), "PSPACE") is False


def test_m2_nl_mode_needs_two_read_positions():
    # work budget is floor(log2 n): n=4 gives 2 positions, n=3 gives 1
    assert member_machine_language(_word(M2, "01", 4), "NL") is True
    assert member_machine_language(_word(M2, "01", 3), "NL") is False


def test_m2_rejects_inputs_without_a_one():
    for mode in ("NL", "NP", "PSPACE"):
        assert member_machine_language(_word(M2, "00", 8), mode) is False
        assert member_machine_language(_word(M2, "", 8), mode) is False


def test_nl_mode_rejects_zero_padding():
    assert member_machine_language(_word(ACCEPT_NOW, "0", 0), "NL") is False
    assert member_machine_language(_word(ACCEPT_NOW, "0", 0), "NP") is True


def test_np_mode_is_monotone_in_n():
    for tm, x in [(M2, "01"), (M2, "10"), (M2, "1"), (NEVER, "01"), (ACCEPT_NOW, "0")]:
        verdicts = [member_machine_language(_word(tm, x, n), "NP") for n in range(1, 9)]
        assert verdicts == sorted(verdicts), (tm, x, verdicts)


def test_configuration_cap_raises_instead_of_guessing(monkeypatch):
    monkeypatch.setattr(machines, "_MAX_CONFIGS", 1)
    with pytest.raises(ResourceLimitError):
        member_machine_language(_word(M2, "01", 8), "NP")


def test_configurations_on_a_wide_tape_stay_within_the_cell_cap():
    # 200,000 configurations of 20,000 cells each would take gigabytes;
    # the cap on their cells raises first, well inside 1 GiB of address space
    resource = pytest.importorskip("resource")
    limit = 2**30
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run(
        [sys.executable, "-m", "regint.cli", "check", "--problem", "machine-pspace",
         "--word", _word(GUESS, "", 20_000)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "resource limit: PSPACE-mode configuration cap exceeded"}


def test_answer_at_the_cap_does_not_depend_on_the_hash_seed():
    # at the cap the answer rests on the order configurations are visited
    # in: this word is accepted in some NP orders and hits the cap in others
    word = ("000010001101010001001000110101000010001001101001000100010011010001000010010"
            "001100010010100010110001001000100010011000010100100100$$aaaaaaaa")
    script = ("from regint.errors import ResourceLimitError\n"
              "from regint.problems import machines, member_machine_language\n"
              "machines._MAX_CONFIGS = 3\n"
              "try:\n"
              f"    print(member_machine_language({word!r}, 'NP'))\n"
              "except ResourceLimitError:\n"
              "    print('cap')\n")
    src = str(Path(regint.__file__).parents[1])  # the package under test
    outcomes = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}).stdout
        for seed in range(6)
    }
    assert len(outcomes) == 1, outcomes


# ---------------------------------------------------------------------------
# differential: the checker against the layered search it replaced


def random_tm(rng, states, inputs, deterministic):
    """A canonical-layout machine; a nondeterministic one may give a
    (state, symbol) pair up to three moves."""
    tape = ("_",) + tuple(str(i) for i in range(inputs))
    accept = 1 if states > 1 else 0
    transitions = set()
    for src in range(states):
        if src != accept:
            for read in tape:
                for _ in range(rng.choice((0, 1, 1) if deterministic else (0, 1, 2, 3))):
                    transitions.add((src, read, rng.randrange(states), rng.choice(tape), rng.choice("LRS")))
    return TmSpec(states=states, input_alphabet=tape[1:], tape_alphabet=tape, blank="_",
                  start=0, accept=accept, transitions=frozenset(transitions))


def outcome(run):
    try:
        return run()
    except ResourceLimitError:
        return "cap"


PADS = {"NP": range(0, 9), "PSPACE": range(0, 6), "NL": (0, 1, 2, 3, 4, 8, 16)}


def differential_words(rng, tm):
    enc = encode_tm(tm)
    letters = [s for s in tm.input_alphabet if len(s) == 1]
    for _ in range(3):
        x = "".join(rng.choice(letters) for _ in range(rng.randrange(5)))
        yield from (f"{enc}${x}${'a' * n}" for n in range(17))
    yield from (f"{enc}$0$", f"{enc}$$a$a", f"{enc}$0$ab", f"{enc}$_$aa", f"{enc}$x$aa",
                f"{enc}$9$aaaa", f"{enc}1$0$aa", f"{enc}0$$aa", f"{enc}", f"{enc}$0$$", f"{enc}$", "$$")


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "nondeterministic"])
def test_checker_agrees_with_the_layered_search(monkeypatch, deterministic):
    rng = random.Random(16)
    agreed = collections.Counter()
    branching = 0
    for trial in range(160):
        inputs = 11 if trial % 20 == 0 else rng.randint(1, 3)  # 12 tape symbols: "10" is one
        tm = random_tm(rng, rng.randint(1, 4), inputs, deterministic)
        pairs = collections.Counter((src, read) for src, read, *_ in tm.transitions)
        branching += any(count > 1 for count in pairs.values())
        for word in differential_words(rng, tm):
            pads = len(word) - len(word.rstrip("a"))
            for mode in ("NP", "NL", "PSPACE"):
                if pads not in PADS[mode]:
                    continue
                for max_configs in (1, 2, 3, 200_000):
                    monkeypatch.setattr(machines, "_MAX_CONFIGS", max_configs)
                    want = outcome(lambda: bfs_member_machine_language(word, mode, max_configs))
                    assert outcome(lambda: member_machine_language(word, mode)) == want, (
                        tm, word, mode, max_configs)
                    agreed[want] += 1
    assert set(agreed) == {True, False, "cap"}, agreed
    assert bool(branching) != deterministic


# ---------------------------------------------------------------------------
# the memo of runs


@pytest.fixture
def cold_memo(monkeypatch):
    monkeypatch.setattr(machines, "_runs", {})
    monkeypatch.setattr(machines, "_held", 0)


@pytest.fixture
def runs(monkeypatch):
    """Counts the configuration searches the checker runs."""
    count = collections.Counter()
    accepts = machines._accepts

    def counted(tm, mode, *rest):
        count[mode] += 1
        return accepts(tm, mode, *rest)

    monkeypatch.setattr(machines, "_accepts", counted)
    return count


def test_warm_memo_agrees_with_the_layered_search_on_whole_languages(monkeypatch, cold_memo):
    rng = random.Random(22)
    tms = [NEVER, M2] + [random_tm(rng, rng.randint(2, 4), rng.randint(1, 3), False) for _ in range(6)]
    agreed = collections.Counter()
    wide = 0
    for tm in tms:
        words = language_words(tm, 7)  # shortlex, with every |x| + n <= 5
        for word in words + words:  # the second stream meets only kept runs
            x, pads = word.split("$")[1:]
            wide += len(x) > len(pads) + 1  # the NP window cuts x short
            for mode in ("NP", "NL", "PSPACE"):
                for max_configs in (1, 2, 3, 200_000):
                    monkeypatch.setattr(machines, "_MAX_CONFIGS", max_configs)
                    want = outcome(lambda: bfs_member_machine_language(word, mode, max_configs))
                    assert outcome(lambda: member_machine_language(word, mode)) == want, (
                        tm, word, mode, max_configs)
                    agreed[want] += 1
    assert set(agreed) == {True, False, "cap"}, agreed
    assert wide


def test_a_raise_at_the_cap_is_not_kept(monkeypatch, cold_memo, runs):
    word = _word(M2, "01", 8)
    for max_configs in (1, 1, 200_000, 1, 200_000):
        monkeypatch.setattr(machines, "_MAX_CONFIGS", max_configs)
        assert outcome(lambda: member_machine_language(word, "NP")) == (max_configs > 1 or "cap")
    assert runs["NP"] == 4  # each raise ran its search again; the answer was kept


def test_np_cap_comes_from_the_uncut_tape(monkeypatch, cold_memo):
    # writes 0 or 1 over each '0' it passes: 2^(d+1) - 1 configurations
    # up to depth d, so 63 in 5 steps and 127 in 6
    branch = TmSpec(states=2, input_alphabet=("0",), tape_alphabet=("_", "0"), blank="_", start=0,
                    accept=1, transitions=frozenset({(0, "0", 0, "0", "R"), (0, "0", 0, "_", "R")}))
    monkeypatch.setattr(machines, "_MAX_CELLS", 2**14)  # a 200-cell tape caps the search at 81
    seen = collections.Counter()
    for n in (5, 6):
        for x in ("0" * (n + 1), "0" * 200):  # one window, two widths
            word = _word(branch, x, n)
            want = outcome(lambda: bfs_member_machine_language(word, "NP", 2**14 // max(len(x), n + 1)))
            assert outcome(lambda: member_machine_language(word, "NP")) == want, (n, len(x))
            seen[n, len(x), want] += 1
    assert seen == {(5, 6, False): 1, (5, 200, False): 1, (6, 7, False): 1, (6, 200, "cap"): 1}


@pytest.mark.parametrize("cap", [machines._MEMO_CAP, 40])
def test_memo_stays_within_its_bound(monkeypatch, cold_memo, runs, cap):
    monkeypatch.setattr(machines, "_MEMO_CAP", cap)
    # 2^13 inputs with two NP windows each, then PSPACE windows of up
    # to 300 cells, each counted as several entries
    words = [(_word(NEVER, format(i, "013b"), n), "NP") for i in range(2**13) for n in (12, 13)]
    words += [(_word(NEVER, "", n), "PSPACE") for n in range(1, 300)]
    peak = 0
    for word, mode in words:
        assert member_machine_language(word, mode) is False
        peak = max(peak, machines._held)
    assert sum(runs.values()) == len(words) > cap
    assert machines._held == sum(1 + (len(encoding) + cells) // 64
                                 for encoding, _, _, cells, _ in machines._runs)
    most = 1 + (len(encode_tm(NEVER)) + 299) // 64  # the count of the longest key
    assert cap <= peak < cap + most
    assert len(machines._runs) < cap


def test_each_machine_language_search_runs_each_visible_tape_once(cold_memo, runs):
    nfa = reduce_tm_to_machine_lang(NEVER).nfa
    for mode, extra, words in (("NP", 16, 65_519), ("NL", 15, 32_752), ("PSPACE", 15, 32_752)):
        report = find_witness(nfa, lambda w: member_machine_language(w, mode),
                              SearchBudget(len(encode_tm(NEVER)) + extra, 10**6, 600.0))
        assert (report.outcome, report.words_tested) == ("exhausted", words)
    assert runs == {"NP": 1_000, "NL": 26, "PSPACE": 493}


# ---------------------------------------------------------------------------
# JSON


def test_tm_json_round_trip():
    for tm in MACHINES:
        assert tm_from_json(tm_to_json(tm)) == tm


def test_tm_json_names_missing_fields():
    with pytest.raises(MalformedInputError) as exc:
        tm_from_json({"states": 1, "input": [], "tape": ["_"], "blank": "_",
                      "start": 0, "accept": 0})
    assert "delta" in str(exc.value)
