"""End-to-end command-line tests.

Every invocation goes through main(argv); stdout must parse as JSON on
every path, including usage errors, and verdicts ride the exit code
(0 yes, 1 no, 2 malformed, 3 budget exceeded).
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import regint
from regint.automata import Dfa, Nfa, automaton_from_json, automaton_to_json, parse_regex, regex_to_nfa
from regint.cli import REDUCTIONS, main
from regint.errors import MalformedInputError
from regint.problems import (
    PROBLEMS, encode_tm, machines, pcp_from_json, pcp_to_json, tile_set_from_json, tiling_instance_from_json,
    tiling_instance_to_json, tm_from_json, tm_to_json,
)
from regint.problems.tiling import TilingInstance
from regint.reductions import reduce_ntm_to_tiles

from helpers import CLASSIC, GUESS, M1, M2

M2_ENC = "00100011010010100100110100010010001000"
# shuffled-regex-eq words past the default recursion limit: tracks a^1100
# and b^1100 (1100 concatenations), and 300 groups around `a` on both
NESTED = "(" * 300 + "a" + ")" * 300
DEEP_REGEX_WORDS = ("ab" * 1100, "".join(c + c for c in NESTED))


def run(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def run_fatal(capsys, *argv):
    """Paths where argparse itself rejects the invocation."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, json.loads(capsys.readouterr().out)


def exact_word_dfa(word, alphabet):
    """DFA accepting exactly {word}, with a sink state."""
    sink = len(word) + 1
    delta = {(s, c): sink for s in range(len(word) + 2) for c in alphabet}
    for i, c in enumerate(word):
        delta[(i, c)] = i + 1
    return Dfa(len(word) + 2, frozenset(alphabet), delta, 0, frozenset({len(word)}))


@pytest.fixture
def files(tmp_path):
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    ts = reduce_ntm_to_tiles(M1)
    side = (".",) * 3
    top = ("q4:_", "_", "_")
    bottom = ("q0:1", "_", "_")
    return {
        "classic": dump("classic.json", pcp_to_json(CLASSIC)),
        "classic_k4": dump("classic_k4.json", {**pcp_to_json(CLASSIC), "k": 4}),
        "classic_k3": dump("classic_k3.json", {**pcp_to_json(CLASSIC), "k": 3}),
        "h2": dump("h2.json", tm_to_json(M2)),
        "dfa_a_dollar_b": dump(
            "dfa_a_dollar_b.json", automaton_to_json(exact_word_dfa("a$b", "ab_$"))
        ),
        "dfa_abab": dump(
            "dfa_abab.json", automaton_to_json(exact_word_dfa("ab$ab", "ab_$"))
        ),
        "dfa_aa": dump("dfa_aa.json", automaton_to_json(exact_word_dfa("aa", "a_"))),
        "dfa_bb": dump("dfa_bb.json", automaton_to_json(exact_word_dfa("bb", "b_"))),
        "nfa": dump(
            "nfa.json",
            automaton_to_json(
                Nfa(1, frozenset("a_$"), frozenset({(0, "a", 0)}), 0, frozenset({0}))
            ),
        ),
        "aa_plus": dump(
            "aa_plus.json",
            automaton_to_json(regex_to_nfa(parse_regex("(aa)(aa)*", frozenset("a")))),
        ),
        "m1_bounded": dump(
            "m1_bounded.json",
            tiling_instance_to_json(TilingInstance("bounded", ts, 3, side, top, side, bottom)),
        ),
        "m1_corridor": dump(
            "m1_corridor.json",
            tiling_instance_to_json(TilingInstance("corridor", ts, 3, None, top, None, bottom)),
        ),
        "m1_bounded_unsat": dump(
            "m1_bounded_unsat.json",
            tiling_instance_to_json(
                TilingInstance("bounded", ts, 3, side, top, side, ("q0:_", "_", "_"))
            ),
        ),
    }


# ---------------------------------------------------------------------------
# check


def test_check_string_problems(capsys):
    code, doc = run(capsys, "check", "--problem", "sequential-string-eq", "--word", "ab$ab")
    assert code == 0
    assert doc == {"problem": "sequential-string-eq", "word": "ab$ab", "member": True}
    code, doc = run(capsys, "check", "--problem", "sequential-string-eq", "--word", "ab$ba")
    assert code == 1 and doc["member"] is False
    assert run(capsys, "check", "--problem", "shuffled-string-eq", "--word", "a_ba_b")[0] == 0
    assert run(capsys, "check", "--problem", "shuffled-string-eq", "--word", "a_")[0] == 1
    assert run(capsys, "check", "--problem", "shuffled-regex-eq", "--word", "aaaa")[0] == 0
    assert run(capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", "aa")[0] == 0


def test_check_encoded_problems(capsys):
    good = "1#10111#10#10$111#10#0#0$100"  # lists plus binary bound K=4
    bad = "1#10111#10$111#10#0$11"  # same lists, K=3: no short solution
    assert run(capsys, "check", "--problem", "bpcp", "--word", good)[0] == 0
    assert run(capsys, "check", "--problem", "bpcp", "--word", bad)[0] == 1
    assert run(capsys, "check", "--problem", "machine-np", "--word", f"{M2_ENC}$01$aa")[0] == 0
    assert run(capsys, "check", "--problem", "machine-nl", "--word", f"{M2_ENC}$01$aaa")[0] == 1


def test_check_alphabet_override(capsys):
    code, doc = run(
        capsys, "check", "--problem", "shuffled-string-eq", "--word", "a_ba_b",
        "--alphabet", "ab",
    )
    assert code == 0 and doc["member"] is True
    code, doc = run(
        capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", "aa",
        "--alphabet", "ab",
    )
    assert code == 2 and "unary" in doc["error"]
    code, doc = run(
        capsys, "check", "--problem", "shuffled-string-eq", "--word", "aa",
        "--alphabet", "",
    )
    assert code == 2 and "empty" in doc["error"]


def test_check_infers_the_unary_letter_from_the_word(capsys):
    for word in ("bb", "b__b", "__", ""):
        code, doc = run(capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", word)
        assert code == 0 and doc["member"] is True
    assert run(capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", "bbb_")[0] == 1
    code, doc = run(capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", "ab")
    assert code == 2 and doc == {"error": "alphabet: need exactly one unary symbol"}


def test_alphabet_rule_agrees_across_subcommands(capsys, files):
    # the same {b, _} word, checked, searched for and decided
    assert run(capsys, "check", "--problem", "unary-shuffled-string-eq", "--word", "bb")[0] == 0
    code, doc = run(
        capsys, "search", "--problem", "unary-shuffled-string-eq", "--automaton", files["dfa_bb"],
        "--max-len", "4",
    )
    assert code == 0 and doc["witness"] == "bb"
    code, doc = run(
        capsys, "decide", "--problem", "unary-shuffled-string-eq", "--dfa", files["dfa_bb"]
    )
    assert code == 0 and doc["verdict"] is True
    for argv in (
        ["search", "--problem", "unary-shuffled-string-eq", "--automaton", files["dfa_bb"],
         "--max-len", "4"],
        ["decide", "--problem", "unary-shuffled-string-eq", "--dfa", files["dfa_bb"]],
        ["decide", "--problem", "sequential-string-eq", "--dfa", files["dfa_abab"]],
    ):
        code, doc = run(capsys, *argv, "--alphabet", "")
        assert code == 2 and doc == {"error": "alphabet: may not be empty"}


def test_alphabet_is_refused_where_the_problem_takes_none(capsys, files):
    for argv in (
        ["check", "--problem", "machine-np", "--word", f"{M2_ENC}$01$aa"],
        ["check", "--problem", "bounded-tiling", "--word", "x"],
        ["search", "--problem", "bpcp", "--automaton", files["aa_plus"], "--max-len", "4"],
        ["search", "--problem", "corridor-tiling", "--automaton", files["aa_plus"], "--max-len", "4"],
    ):
        code, doc = run(capsys, *argv, "--alphabet", "01")
        assert code == 2 and doc == {"error": f"alphabet: not applicable to {argv[2]}"}


def test_check_deep_regex_tracks(capsys):
    long_chain, nested = DEEP_REGEX_WORDS
    code, doc = run(capsys, "check", "--problem", "shuffled-regex-eq", "--word", long_chain)
    assert code == 1 and doc["member"] is False
    code, doc = run(capsys, "check", "--problem", "shuffled-regex-eq", "--word", nested)
    assert code == 0 and doc["member"] is True


WIDE = "#".join("a" * 18)  # two tiles fit every column: 2**18 rows over the first


@pytest.mark.parametrize("word, code, doc", [
    ("a,a,a,a$a$a", 0, {"problem": "corridor-tiling", "word": "a,a,a,a$a$a", "member": True}),
    ("a,b,a,a$a$a", 1, {"problem": "corridor-tiling", "word": "a,b,a,a$a$a", "member": False}),
    (f"a,a,a,a;a,a,a,a${WIDE}${WIDE}", 2, {"error": "resource limit: corridor row cap exceeded"}),
], ids=["member", "non-member", "past-the-row-cap"])
def test_check_corridor_tiling(capsys, word, code, doc):
    assert run(capsys, "check", "--problem", "corridor-tiling", "--word", word) == (code, doc)


def test_check_unknown_problem_is_a_usage_error(capsys):
    code, doc = run_fatal(capsys, "check", "--problem", "nope", "--word", "x")
    assert code == 2 and "error" in doc


# ---------------------------------------------------------------------------
# decide


def test_decide_sequential(capsys, files):
    code, doc = run(
        capsys, "decide", "--problem", "sequential-string-eq", "--dfa", files["dfa_a_dollar_b"]
    )
    assert code == 1
    assert doc == {"problem": "sequential-string-eq", "verdict": False, "witness": None}
    code, doc = run(
        capsys, "decide", "--problem", "sequential-string-eq", "--dfa", files["dfa_abab"]
    )
    assert code == 0 and doc["verdict"] is True and doc["witness"] == "ab$ab"


def test_decide_unary(capsys, files):
    code, doc = run(
        capsys, "decide", "--problem", "unary-shuffled-string-eq", "--dfa", files["dfa_aa"]
    )
    assert code == 0 and doc == {
        "problem": "unary-shuffled-string-eq",
        "verdict": True,
        "witness": None,
    }


def test_decide_input_validation(capsys, files, tmp_path):
    code, doc = run(
        capsys, "decide", "--problem", "sequential-string-eq", "--dfa",
        str(tmp_path / "missing.json"),
    )
    assert code == 2 and "missing.json" in doc["error"]
    code, doc = run(capsys, "decide", "--problem", "sequential-string-eq", "--dfa", files["nfa"])
    assert code == 2 and "dfa" in doc["error"]
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    code, doc = run(capsys, "decide", "--problem", "sequential-string-eq", "--dfa", str(garbage))
    assert code == 2 and "JSON" in doc["error"]
    pads = tmp_path / "pads.json"
    pads.write_text(json.dumps(automaton_to_json(exact_word_dfa("__", "_"))))
    code, doc = run(capsys, "decide", "--problem", "unary-shuffled-string-eq", "--dfa", str(pads))
    assert code == 2 and doc == {"error": "alphabet: need exactly one unary symbol"}


# ---------------------------------------------------------------------------
# solve


def test_solve_bpcp(capsys, files):
    code, doc = run(capsys, "solve", "bpcp", "--in", files["classic_k4"])
    assert code == 0 and doc == {"indices": [2, 1, 1, 3], "bound": 4}
    code, doc = run(capsys, "solve", "bpcp", "--in", files["classic_k3"])
    assert code == 1 and doc == "none"
    code, doc = run(capsys, "solve", "bpcp", "--in", files["classic"])
    assert code == 2 and "k" in doc["error"]


def test_solve_tiling(capsys, files):
    code, doc = run(capsys, "solve", "bounded-tiling", "--in", files["m1_bounded"])
    assert code == 0 and doc["width"] == 3 and doc["height"] == 3
    assert len(doc["grid"]) == 3 and all(len(row) == 3 for row in doc["grid"])
    code, doc = run(capsys, "solve", "bounded-tiling", "--in", files["m1_bounded_unsat"])
    assert code == 1 and doc == "none"
    code, doc = run(capsys, "solve", "corridor-tiling", "--in", files["m1_corridor"])
    assert code == 0 and doc["height"] == 3 and doc["width"] == 3
    code, doc = run(capsys, "solve", "bounded-tiling", "--in", files["m1_corridor"])
    assert code == 2 and "variant" in doc["error"]


def test_solve_a_wide_bounded_tiling(capsys, tmp_path):
    # one tile per cell: 1600 cells, past the default recursion limit
    white = ["w"] * 40
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "colors": ["w"], "white": None, "blank": None, "accept": None,
        "tiles": [{"w": "w", "n": "w", "e": "w", "s": "w"}],
        "variant": "bounded", "width": 40, "t": white, "b": white, "l": white, "r": white,
    }))
    code, doc = run(capsys, "solve", "bounded-tiling", "--in", str(path))
    assert code == 0 and doc == {"width": 40, "height": 40, "grid": [[0] * 40] * 40}


def test_solve_a_wide_corridor_tiling(capsys, tmp_path):
    # one row of 1100 columns, past the default recursion limit
    white = ["w"] * 1100
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "colors": ["w"], "white": None, "blank": None, "accept": None,
        "tiles": [{"w": "w", "n": "w", "e": "w", "s": "w"}],
        "variant": "corridor", "width": 1100, "t": white, "b": white, "l": None, "r": None,
    }))
    code, doc = run(capsys, "solve", "corridor-tiling", "--in", str(path))
    assert code == 0 and doc == {"height": 1, "width": 1100, "grid": [[0] * 1100]}


def test_solve_bpcp_with_a_bound_past_the_recursion_limit(capsys, tmp_path):
    # b always runs ahead of a, so every index sequence up to k is searched
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"alphabet": ["a"], "a": ["a"], "b": ["aa"],
                                "k": sys.getrecursionlimit() + 100}))
    assert run(capsys, "solve", "bpcp", "--in", str(path)) == (1, "none")


# ---------------------------------------------------------------------------
# reduce


def test_reduce_writes_and_prints(capsys, files, tmp_path):
    out = tmp_path / "lang.json"
    code, doc = run(
        capsys, "reduce", "pcp-to-shuffled-regex", "--in", files["classic"], "--out", str(out)
    )
    assert code == 0
    assert doc["kind"] == "nfa" and doc["provenance"] == "pcp-to-shuffled-regex"
    assert doc["regex"] == "(11_1_1|11001_1_1_|100_)+"
    text = out.read_text()
    assert text.endswith("\n") and json.loads(text) == doc


def test_reduce_tiles_and_variants(capsys, files):
    code, doc = run(capsys, "reduce", "ntm-to-tiles", "--in", files["h2"])
    assert code == 0 and len(doc["tiles"]) == 54
    assert {"colors", "white", "blank", "accept"} <= doc.keys()
    code, doc = run(capsys, "reduce", "ntm-to-tiling-lang", "--in", files["h2"])
    assert code == 0 and doc["provenance"] == "ntm-to-tiling-lang/bounded"
    code, doc = run(
        capsys, "reduce", "ntm-to-tiling-lang", "--in", files["h2"], "--variant", "corridor"
    )
    assert code == 0 and doc["provenance"] == "ntm-to-tiling-lang/corridor"


@pytest.mark.parametrize("kind, infile", [
    ("pcp-to-shuffled-regex", "classic"), ("pcp-to-bpcp", "classic"),
    ("tm-to-machine-lang", "h2"), ("ntm-to-tiles", "h2"),
])
def test_reduce_refuses_a_variant_its_kind_has_not(capsys, files, kind, infile):
    for variant in ("bounded", "corridor"):
        code, doc = run(capsys, "reduce", kind, "--in", files[infile], "--variant", variant)
        assert (code, doc) == (2, {"error": f"variant: not applicable to {kind}"})
    assert run(capsys, "reduce", kind, "--in", files[infile])[0] == 0


# ---------------------------------------------------------------------------
# search


def reduce_to_file(capsys, kind, infile, out):
    code, doc = run(capsys, "reduce", kind, "--in", infile, "--out", str(out))
    assert code == 0
    return doc


def test_search_finds_the_generator_witnesses(capsys, files, tmp_path):
    lang = tmp_path / "lang.json"
    reduce_to_file(capsys, "pcp-to-shuffled-regex", files["classic"], lang)
    code = main(
        ["--deterministic", "search", "--problem", "shuffled-string-eq",
         "--automaton", str(lang), "--max-len", "40"]
    )
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert code == 0
    assert doc["outcome"] == "witness" and doc["wordsTested"] == 106
    assert doc["witness"] == "11001_1_1_" + "11_1_1" + "11_1_1" + "100_"
    assert doc["elapsedMs"] == 0 and doc["bound"] is None
    # deterministic output is byte-identical across runs
    assert (
        main(
            ["--deterministic", "search", "--problem", "shuffled-string-eq",
             "--automaton", str(lang), "--max-len", "40"]
        )
        == 0
    )
    assert capsys.readouterr().out == first

    bl = tmp_path / "bpcp_lang.json"
    reduce_to_file(capsys, "pcp-to-bpcp", files["classic"], bl)
    code, doc = run(
        capsys, "--deterministic", "search", "--problem", "bpcp",
        "--automaton", str(bl), "--max-len", "28",
    )
    assert code == 0
    assert doc["witness"] == "1#10111#10#10$111#10#0#0$100" and doc["wordsTested"] == 390


def test_search_exit_codes(capsys, files):
    code, doc = run(
        capsys, "search", "--problem", "bpcp", "--automaton", files["aa_plus"],
        "--max-len", "10",
    )
    assert code == 1 and doc["outcome"] == "exhausted" and doc["bound"] == 10
    code, doc = run(
        capsys, "search", "--problem", "bpcp", "--automaton", files["aa_plus"],
        "--max-len", "10", "--max-words", "1",
    )
    assert code == 3 and doc["outcome"] == "budget-exceeded"


def test_search_names_the_word_its_capped_checker_failed_on(capsys, tmp_path, monkeypatch):
    # unlike check and solve, search reports a checker's cap as the
    # failure of that word's check, not as "resource limit: ..."
    word = f"{encode_tm(GUESS)}$$aa"
    path = tmp_path / "word.json"
    path.write_text(json.dumps(automaton_to_json(exact_word_dfa(word, "01$a"))))
    monkeypatch.setattr(machines, "_MAX_CONFIGS", 1)
    code, doc = run(capsys, "search", "--problem", "machine-pspace", "--automaton", str(path), "--max-len", "99")
    assert (code, doc) == (2, {"error": f"checker failed on word {word!r}: PSPACE-mode configuration cap exceeded"})


def test_search_rejects_a_non_finite_timeout(capsys, files):
    for timeout in ("nan", "inf"):
        code, doc = run(
            capsys, "search", "--problem", "bpcp", "--automaton", files["aa_plus"],
            "--max-len", "10", "--timeout", timeout,
        )
        assert code == 2 and "error" in doc


# ---------------------------------------------------------------------------
# usage errors


def test_an_automaton_too_large_to_hold_is_a_resource_limit(capsys, tmp_path):
    # the state tables of 10**13 states cannot be allocated, so the
    # allocation fails at once without using memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "nfa", "alphabet": ["a"], "states": 10**13, "start": 0,
                                "finals": [0], "transitions": []}))
    code, doc = run(capsys, "search", "--problem", "shuffled-string-eq", "--automaton", str(path), "--max-len", "3")
    assert code == 2 and doc == {"error": "resource limit: out of memory"}


@pytest.mark.parametrize("problem, message", [
    ("unary-shuffled-string-eq", "alphabet: need exactly one unary symbol"),
    ("sequential-string-eq", "automaton alphabet [] must cover ['$', '_']"),
], ids=["unary", "sequential"])
def test_a_dfa_of_many_states_over_no_letters_loads_at_once(tmp_path, problem, message):
    # totality is decided by counting moves, not by visiting 10**13
    # states; a subprocess with a timeout, so a regression fails the test
    # instead of hanging the suite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "dfa", "alphabet": [], "states": 10**13, "start": 0,
                                "finals": [0], "transitions": []}))
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run([sys.executable, "-m", "regint.cli", "decide", "--problem", problem, "--dfa", str(path)],
                          capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, json.loads(proc.stdout)) == (2, {"error": message})


# documents with several faults each; the message names the first fault
# in the order the JSON codecs write them, under every hash seed
MANY_FAULTS = [
    (["decide", "--problem", "sequential-string-eq", "--dfa"],
     {"kind": "dfa", "alphabet": ["a", "b", "c"], "states": 1, "start": 0, "finals": [], "transitions": []},
     "transitions: missing move for state 0 on 'a'"),
    (["decide", "--problem", "unary-shuffled-string-eq", "--dfa"],
     {"kind": "dfa", "alphabet": ["a"], "states": 2, "start": 0, "finals": [],
      "transitions": [{"from": 1, "on": "a", "to": 9}, {"from": 0, "on": "a", "to": 7}]},
     "transitions: state out of range in (0, 'a', 7)"),
    (["search", "--problem", "shuffled-string-eq", "--max-len", "3", "--automaton"],
     {"kind": "nfa", "alphabet": ["a"], "states": 2, "start": 0, "finals": [0],
      "transitions": [{"from": 0, "on": "z", "to": 0}, {"from": 0, "on": "y", "to": 1},
                      {"from": 1, "on": "a", "to": 5}, {"from": 0, "on": "x", "to": 9}]},
     "transitions: state out of range in (0, 'x', 9)"),
    (["reduce", "tm-to-machine-lang", "--in"],
     {"states": 2, "input": ["0"], "tape": ["_", "0"], "blank": "_", "start": 0, "accept": 1,
      "delta": [{"from": 0, "read": "x", "to": 1, "write": "0", "move": "R"},
                {"from": 1, "read": "_", "to": 0, "write": "_", "move": "S"},
                {"from": 0, "read": "0", "to": 1, "write": "0", "move": "Q"}]},
     "delta: move must be one of L/R/S, got 'Q'"),
]


@pytest.mark.parametrize("argv, document, message", MANY_FAULTS, ids=["dfa", "dfa-moves", "nfa", "tm"])
def test_the_error_for_several_faults_does_not_depend_on_the_hash_seed(tmp_path, argv, document, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    src = str(Path(regint.__file__).parents[1])  # the package under test
    outputs = set()
    for seed in range(7):
        proc = subprocess.run([sys.executable, "-m", "regint.cli", "--deterministic", *argv, str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
        outputs.add((proc.returncode, proc.stdout))
    assert len(outputs) == 1
    code, out = outputs.pop()
    assert (code, json.loads(out)) == (2, {"error": message})


def test_usage_errors_emit_json(capsys):
    for argv in (
        [],
        ["check", "--problem", "bpcp"],  # missing --word
        ["reduce", "no-such-kind", "--in", "x.json"],
        ["search", "--problem", "bpcp", "--automaton", "x.json"],  # missing --max-len
    ):
        code, doc = run_fatal(capsys, *argv)
        assert code == 2 and "error" in doc


def test_help_is_json(capsys):
    for argv in (["-h"], ["check", "-h"], ["reduce", "--help"], ["solve", "bpcp", "-h"]):
        code, doc = run_fatal(capsys, *argv)
        assert code == 0 and set(doc) == {"help"} and doc["help"].startswith("usage: regint")


# ---------------------------------------------------------------------------
# loaders: mistyped fields are malformed input, never a traceback


def test_machine_loader_checks_the_types_of_each_transition(capsys, tmp_path):
    for field, value in (("from", "x"), ("to", True), ("read", ["0"]), ("move", 1)):
        doc = tm_to_json(M2)
        doc["delta"][0][field] = value
        path = tmp_path / "tm.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "reduce", "tm-to-machine-lang", "--in", str(path))
        assert code == 2 and out["error"].startswith(f"delta[0].{field}: expected")


def test_solve_bpcp_rejects_a_boolean_bound(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({**pcp_to_json(CLASSIC), "k": True}))
    code, doc = run(capsys, "solve", "bpcp", "--in", str(path))
    assert code == 2 and doc == {"error": "k: expected a positive integer"}


def test_automaton_loader_rejects_boolean_states(capsys, tmp_path):
    doc = automaton_to_json(exact_word_dfa("aa", "a_"))
    doc["transitions"][0]["to"] = True
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "decide", "--problem", "unary-shuffled-string-eq", "--dfa", str(path))
    assert code == 2 and "must be integers" in out["error"]


# ---------------------------------------------------------------------------
# the file edge: unreadable input and unwritable output are malformed input


@pytest.mark.parametrize("content, cause", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
    (b"1" * 5001, "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["not-utf-8", "deep-nesting", "long-integer"])
def test_an_undecodable_file_is_malformed_input(capsys, tmp_path, content, cause):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code, doc = run(capsys, "solve", "bpcp", "--in", str(path))
    assert code == 2 and doc["error"].startswith(f"in: {path} is not JSON: {cause}")


def test_reduce_into_a_missing_directory_is_malformed_input(capsys, files, tmp_path):
    out = tmp_path / "missing" / "lang.json"
    code, doc = run(capsys, "reduce", "pcp-to-bpcp", "--in", files["classic"], "--out", str(out))
    assert (code, doc) == (2, {"error": f"out: cannot write {out}: No such file or directory"})


def test_solve_bpcp_stops_once_no_index_sequence_is_consistent(tmp_path):
    # every index sequence dies at length 2, so a bound of 10**20 ends at once;
    # in a subprocess, so a search that keeps deepening fails at the timeout
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"alphabet": ["0", "1"], "a": ["1", "10"], "b": ["10", "0"], "k": 10**20}))
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run([sys.executable, "-m", "regint.cli", "solve", "bpcp", "--in", str(path)],
                          capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, json.loads(proc.stdout)) == (1, "none")


def test_solve_bpcp_drops_a_rest_no_pair_can_make_up(tmp_path):
    # the bottom runs one letter further ahead at every length and no pair
    # has a longer top, so every sequence is consistent yet none can end
    path = tmp_path / "behind.json"
    path.write_text(json.dumps({"alphabet": ["a"], "a": ["a"], "b": ["aa"], "k": 10**20}))
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run([sys.executable, "-m", "regint.cli", "solve", "bpcp", "--in", str(path)],
                          capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, json.loads(proc.stdout)) == (1, "none")


# ---------------------------------------------------------------------------
# the output contract on arbitrary invocations and documents

FIELDS = ("kind", "alphabet", "states", "start", "finals", "transitions", "from", "on", "to",
          "input", "tape", "blank", "accept", "delta", "read", "write", "move", "a", "b", "k",
          "colors", "tiles", "w", "n", "e", "s", "white", "variant", "width", "l", "t", "r")
LETTERS = "ab01_$#;,.()|*~:qw"
HELP_FLAGS = ("-h", "--help")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(LETTERS, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=8,
)
WHITE_TILE = {"w": "w", "n": "w", "e": "w", "s": "w"}
PCP = pcp_to_json(CLASSIC)
TM = tm_to_json(M2)
DFAS = (automaton_to_json(exact_word_dfa("aa", "a_")), automaton_to_json(exact_word_dfa("ab$ab", "ab_$")))
NFA = automaton_to_json(regex_to_nfa(parse_regex("(aa)(aa)*", frozenset("a"))))
TILINGS = (
    {"colors": ["w", "x"], "white": None, "blank": None, "accept": None, "tiles": [WHITE_TILE],
     "variant": "bounded", "width": 2, "t": ["w", "w"], "b": ["w", "w"], "l": ["w", "w"], "r": ["w", "w"]},
    {"colors": ["w", "x"], "white": None, "blank": None, "accept": None, "tiles": [WHITE_TILE],
     "variant": "corridor", "width": 2, "t": ["w", "w"], "b": ["w", "x"], "l": None, "r": None},
)
SEEDS = {  # the documents each subcommand reads
    "decide": DFAS, "search": DFAS + (NFA,),
    "pcp-to-shuffled-regex": (PCP,), "pcp-to-bpcp": (PCP,), "tm-to-machine-lang": (TM,),
    "ntm-to-tiles": (TM,), "ntm-to-tiling-lang": (TM,),
    "bpcp": ({**PCP, "k": 3},), "bounded-tiling": TILINGS, "corridor-tiling": TILINGS,
}


def _slots(value):
    """Every (container, key) inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def documents(draw, seeds):
    """A seed document with a few fields replaced or deleted, any JSON
    value, or text that is not JSON."""
    shape = draw(st.sampled_from(("seed",) * 6 + ("value", "text")))
    if shape == "text":
        return draw(st.text(LETTERS + '{}[]"', max_size=10))
    doc = draw(json_values) if shape == "value" else json.loads(json.dumps(draw(st.sampled_from(seeds))))
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def machine_words(draw):
    """M2's machine word with a few characters flipped, deleted or inserted."""
    word = list(f"{M2_ENC}$01$aa")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(word) - 1))
        edit = draw(st.sampled_from(("flip", "delete", "insert")))
        if edit == "flip":
            word[i] = draw(st.sampled_from("01$a"))
        elif edit == "delete":
            del word[i]
        else:
            word.insert(i, draw(st.sampled_from("01$a")))
    return "".join(word)


@st.composite
def regex_words(draw):
    """A deep shuffled-regex-eq word with up to two characters flipped."""
    word = list(draw(st.sampled_from(DEEP_REGEX_WORDS)))
    for _ in range(draw(st.integers(0, 2))):
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from("ab()|*_"))
    return "".join(word)


@st.composite
def invocations(draw):
    """(argv, text of the input file that "{in}" in argv names)."""
    problems = st.sampled_from(sorted(PROBLEMS) + ["nope"])
    sub = draw(st.sampled_from(("check", "decide", "search", "reduce", "solve")))
    target = sub
    if sub == "check":
        problem = draw(problems)
        if problem.startswith("machine-") and draw(st.booleans()):
            word = draw(machine_words())
        elif problem == "shuffled-regex-eq" and draw(st.booleans()):
            word = draw(regex_words())
        else:
            word = draw(st.text(LETTERS, max_size=12))
        argv = ["check", "--problem", problem, "--word", word]
    elif sub == "decide":
        argv = ["decide", "--problem", draw(problems), "--dfa", "{in}"]
    elif sub == "search":
        argv = ["search", "--problem", draw(problems), "--automaton", "{in}",
                "--max-len", draw(st.sampled_from(("-1", "0", "3", "6", "x"))),
                "--max-words", draw(st.sampled_from(("0", "1", "20"))),
                "--timeout", draw(st.sampled_from(("0.5", "0", "nan", "inf")))]
    elif sub == "reduce":
        target = draw(st.sampled_from(sorted(REDUCTIONS)))
        argv = ["reduce", target, "--in", "{in}",
                "--variant", draw(st.sampled_from(("bounded", "corridor", "nope")))]
    else:
        target = draw(st.sampled_from(("bounded-tiling", "corridor-tiling", "bpcp")))
        argv = ["solve", target, "--in", "{in}"]
    if sub in ("check", "decide", "search") and draw(st.booleans()):
        argv += ["--alphabet", draw(st.text(LETTERS, max_size=3))]
    if draw(st.booleans()):
        argv.insert(0, "--deterministic")
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(HELP_FLAGS)))
    return argv, draw(documents(SEEDS.get(target, DFAS)))


VERDICTS_OF_EXIT_1 = ({"member": False}, {"verdict": False}, {"outcome": "exhausted"})


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
@example(invocation=(["check", "--problem", "shuffled-regex-eq", "--word", DEEP_REGEX_WORDS[0]], ""))
@example(invocation=(["check", "--problem", "shuffled-regex-eq", "--word", DEEP_REGEX_WORDS[1]], ""))
def test_every_invocation_keeps_the_output_contract(tmp_path, invocation):
    argv, text = invocation
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "{in}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the invocation
            code = exc.code
    doc = json.loads(out.getvalue())  # exactly one JSON document
    assert err.getvalue() == ""
    assert code in (0, 1, 2, 3)
    if code == 0 and any(flag in argv for flag in HELP_FLAGS):
        assert isinstance(doc, dict) and set(doc) == {"help"}
    if code == 1:
        assert doc == "none" or any(isinstance(doc, dict) and doc.items() >= v.items()
                                    for v in VERDICTS_OF_EXIT_1)
    if code == 2:
        assert isinstance(doc, dict) and set(doc) == {"error"}
    if code == 3:
        assert doc["outcome"] == "budget-exceeded"


# ---------------------------------------------------------------------------
# malformed input: each field's exact message, from each loader and from solve

DELETE = object()
DFA, (BOUNDED, CORRIDOR) = DFAS[0], TILINGS
LOADERS = {"automaton": automaton_from_json, "tm": tm_from_json, "tile-set": tile_set_from_json,
           "tiling": tiling_instance_from_json, "pcp": pcp_from_json}


def edited(doc, path, value):
    """A copy of `doc` with the field at the dotted `path` set to
    `value`, or deleted when `value` is DELETE; the path "" replaces the
    whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    container = doc
    for key in parents:
        container = container[key]
    if value is DELETE:
        del container[last]
    else:
        container[last] = value
    return doc


MALFORMED = [
    ("automaton", DFA, "", [], "document: expected a JSON object"),
    ("automaton", DFA, "kind", "pda", "kind: expected 'nfa' or 'dfa', got 'pda'"),
    ("automaton", DFA, "kind", DELETE, "kind: expected 'nfa' or 'dfa', got None"),
    ("automaton", DFA, "alphabet", ["ab"], "alphabet: expected a list of single-character strings"),
    ("automaton", DFA, "alphabet", ["a", "a"], "alphabet: duplicate symbols"),
    ("automaton", DFA, "states", True, "states: expected a positive integer"),
    ("automaton", DFA, "states", 0, "states: expected a positive integer"),
    ("automaton", DFA, "start", "0", "start: expected an integer"),
    ("automaton", DFA, "finals", [True], "finals: expected a list of integers"),
    ("automaton", DFA, "transitions", {}, "transitions: expected a list"),
    ("automaton", DFA, "transitions.0", 5, "transitions[0]: expected an object"),
    ("automaton", DFA, "transitions.0.on", DELETE, "transitions[0].on: missing"),
    ("automaton", DFA, "transitions.0.to", True, "transitions[0]: 'from' and 'to' must be integers"),
    ("automaton", edited(DFA, "transitions.0.to", True), "transitions.1.on", DELETE,
     "transitions[0]: 'from' and 'to' must be integers"),
    ("automaton", DFA, "transitions.0.on", "ab", "transitions[0].on: expected a single character or null"),
    ("automaton", DFA, "transitions.0.on", None, "transitions[0].on: silent moves are not allowed in a dfa"),
    ("automaton", DFA, "transitions.1.on", "_", "transitions[1]: duplicate move for state 0 on '_'"),
    ("automaton", DFA, "start", 9, "start: state 9 out of range"),
    ("automaton", DFA, "finals", [9], "finals: state 9 out of range"),
    ("automaton", DFA, "transitions.0.to", 9, "transitions: state out of range in (0, '_', 9)"),
    ("automaton", DFA, "transitions.0.on", "z", "transitions: label 'z' not in alphabet"),
    ("automaton", DFA, "transitions.7", DELETE, "transitions: missing move for state 3 on 'a'"),
    ("automaton", NFA, "transitions.1.to", 10, "transitions: state out of range in (1, None, 10)"),
    ("automaton", NFA, "transitions.0.on", "b", "transitions: label 'b' not in alphabet"),
    ("tm", TM, "", None, "document: expected a JSON object"),
    ("tm", TM, "states", "2", "states: expected an integer"),
    ("tm", TM, "input", "01", "input: expected a list of single-character strings"),
    ("tm", TM, "tape", ["__"], "tape: expected a list of single-character strings"),
    ("tm", TM, "blank", "", "blank: expected a single character"),
    ("tm", TM, "start", None, "start: expected an integer"),
    ("tm", TM, "accept", True, "accept: expected an integer"),
    ("tm", TM, "delta", {}, "delta: expected a list"),
    ("tm", TM, "delta.0", [], "delta[0]: expected an object"),
    ("tm", TM, "delta.0.move", DELETE, "delta[0].move: missing"),
    ("tm", TM, "delta.0.from", "x", "delta[0].from: expected an integer"),
    ("tm", edited(TM, "delta.0.from", "x"), "delta.1", [], "delta[0].from: expected an integer"),
    ("tm", TM, "delta.0.write", 1, "delta[0].write: expected a string"),
    ("tm", TM, "states", 0, "states: need at least one state"),
    ("tm", TM, "tape", ["_", "0", "1", "1"], "tape: duplicate symbols"),
    ("tm", TM, "blank", "2", "blank: not a tape symbol"),
    ("tm", TM, "blank", "0", "blank: may not be an input symbol"),
    ("tm", TM, "input", ["0", "2"], "input: not a subset of the tape alphabet"),
    ("tm", TM, "accept", 5, "start/accept: state 5 out of range"),
    ("tm", TM, "delta.0.to", 7, "delta: state out of range"),
    ("tm", TM, "delta.0.read", "2", "delta: symbol not in tape alphabet"),
    ("tm", TM, "delta.0.move", "U", "delta: move must be one of L/R/S, got 'U'"),
    ("tm", TM, "delta.0.from", 1, "delta: accept state may not have outgoing transitions"),
    ("tile-set", BOUNDED, "", "x", "document: expected a JSON object"),
    ("tile-set", BOUNDED, "colors", "wx", "colors: expected a list of strings"),
    ("tile-set", BOUNDED, "tiles", DELETE, "tiles: expected a list"),
    ("tile-set", BOUNDED, "tiles.0.s", 1, "tiles[0]: expected an object with string w/n/e/s"),
    ("tile-set", BOUNDED, "white", 1, "white: expected a string or null"),
    ("tile-set", BOUNDED, "accept", [], "accept: expected a string or null"),
    ("tile-set", BOUNDED, "tiles.0.n", "y", "tiles[0]: color 'y' not declared"),
    ("tile-set", BOUNDED, "blank", "y", "blank: color 'y' not declared"),
    ("tiling", BOUNDED, "colors", DELETE, "colors: expected a list of strings"),
    ("tiling", BOUNDED, "variant", "square", "variant: expected 'bounded' or 'corridor'"),
    ("tiling", BOUNDED, "width", True, "width: expected an integer"),
    ("tiling", BOUNDED, "width", 2.0, "width: expected an integer"),
    ("tiling", BOUNDED, "l", "ww", "l: expected a list of strings or null"),
    ("tiling", BOUNDED, "width", 0, "width: must be at least 1"),
    ("tiling", BOUNDED, "t", ["w"], "t: expected a coloring of length 2"),
    ("tiling", BOUNDED, "r", DELETE, "r: expected a coloring of length 2"),
    ("tiling", BOUNDED, "b", ["w", "y"], "b: color 'y' not declared"),
    ("tiling", CORRIDOR, "l", ["w", "w"], "l/r: corridor instances have no side colorings"),
    ("pcp", PCP, "", None, "document: expected a JSON object"),
    ("pcp", PCP, "alphabet", ["01"], "alphabet: expected a list of single-character strings"),
    ("pcp", PCP, "a", "1", "a: expected a list of strings"),
    ("pcp", PCP, "b", [1], "b: expected a list of strings"),
    ("pcp", PCP, "b", ["111"], "a/b: lists must have equal nonzero length"),
    ("pcp", PCP, "a.0", "", "a[0]: strings must be nonempty"),
    ("pcp", PCP, "b.1", "12", "b[1]: symbol '2' not in alphabet"),
    ("solve bpcp", {**PCP, "k": 3}, "k", DELETE, "k: missing bound for bpcp"),
    ("solve bpcp", {**PCP, "k": 3}, "", [], "k: missing bound for bpcp"),
    ("solve bpcp", {**PCP, "k": 3}, "k", True, "k: expected a positive integer"),
    ("solve bpcp", {**PCP, "k": 3}, "k", 0, "k: expected a positive integer"),
    ("solve bpcp", {**PCP, "k": 3}, "k", "3", "k: expected a positive integer"),
    ("solve bpcp", {**PCP, "k": 3}, "a", "1", "a: expected a list of strings"),
    ("solve bounded-tiling", CORRIDOR, "width", 2, "variant: expected bounded"),
    ("solve corridor-tiling", BOUNDED, "width", 2, "variant: expected corridor"),
    ("solve corridor-tiling", CORRIDOR, "t", None, "t: expected a coloring of length 2"),
]


@pytest.mark.parametrize("reader, seed, path, value, message", MALFORMED,
                         ids=[f"{row[0]}:{row[2] or 'document'}:{row[4]}" for row in MALFORMED])
def test_each_malformed_field_gives_its_exact_message(capsys, tmp_path, reader, seed, path, value, message):
    doc = edited(seed, path, value)
    if reader in LOADERS:
        with pytest.raises(MalformedInputError) as info:
            LOADERS[reader](doc)
        assert str(info.value) == message
    else:
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps(doc))
        assert run(capsys, *reader.split(), "--in", str(infile)) == (2, {"error": message})


# ---------------------------------------------------------------------------
# imports: a call loads only the modules its subcommand runs

# every call loads the package, its problem table and the two leaf modules that reads
CALL_BASE = {"regint", "regint.errors", "regint.problems", "regint.symbols"}
DECIDE_MODULES = {"regint.automata", "regint.deciders", "regint.pda"}
REDUCE_MODULES = {"regint.automata", "regint.reductions", "regint.problems.bpcp",
                  "regint.problems.machines", "regint.problems.strings", "regint.problems.tiling"}
# `python -m regint.cli ARGS`, then the regint modules in sys.modules on stderr
RUN_AND_LIST_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('regint')), file=sys.stderr))\n"
    "runpy.run_module('regint.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv, loaded", [
    (("check", "--problem", "shuffled-string-eq", "--word", "a_ba_b"), {"regint.problems.strings"}),
    (("check", "--problem", "sequential-string-eq", "--word", "ab$ab"), {"regint.problems.strings"}),
    (("check", "--problem", "shuffled-regex-eq", "--word", "aaaa"),
     {"regint.problems.strings", "regint.automata"}),
    (("check", "--problem", "bpcp", "--word", "1#10111#10#10$111#10#0#0$100"), {"regint.problems.bpcp"}),
    (("check", "--problem", "bounded-tiling", "--word", "a,a,a,a$a$a$a$a"), {"regint.problems.tiling"}),
    (("check", "--problem", "machine-np", "--word", f"{M2_ENC}$01$aa"), {"regint.problems.machines"}),
    (("decide", "--problem", "sequential-string-eq", "--dfa", "{dfa_abab}"), DECIDE_MODULES),
    (("decide", "--problem", "unary-shuffled-string-eq", "--dfa", "{dfa_aa}"), DECIDE_MODULES),
    (("search", "--problem", "shuffled-string-eq", "--automaton", "{aa_plus}", "--max-len", "6"),
     {"regint.automata", "regint.search", "regint.problems.strings"}),
    (("search", "--problem", "corridor-tiling", "--automaton", "{nfa}", "--max-len", "3"),
     {"regint.automata", "regint.search", "regint.problems.tiling"}),
    (("reduce", "pcp-to-bpcp", "--in", "{classic}"), REDUCE_MODULES),
    (("solve", "bpcp", "--in", "{classic_k4}"), {"regint.problems.bpcp"}),
    (("solve", "bounded-tiling", "--in", "{m1_bounded}"), {"regint.problems.tiling"}),
    (("solve", "corridor-tiling", "--in", "{m1_corridor}"), {"regint.problems.tiling"}),
])
def test_each_call_imports_only_what_it_runs(files, argv, loaded):
    argv = [a.format(**files) for a in argv]
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST_MODULES, *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode in (0, 1), proc.stdout
    assert ast.literal_eval(proc.stderr) == sorted(CALL_BASE | loaded)


def test_a_string_check_does_not_import_dataclasses():
    # the problem table is a NamedTuple, so the string checkers' call
    # skips dataclasses and the inspect, ast and dis modules it pulls in
    script = RUN_AND_LIST_MODULES.replace("m.startswith('regint')", "m in ('ast', 'dataclasses', 'dis', 'inspect')")
    src = str(Path(regint.__file__).parents[1])  # the package under test
    proc = subprocess.run([sys.executable, "-c", script, "check", "--problem", "shuffled-string-eq",
                           "--word", "a_ba_b"], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout
    assert ast.literal_eval(proc.stderr) == []
