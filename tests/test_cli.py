"""End-to-end command-line tests.

Every invocation goes through main(argv); stdout must parse as JSON on
every path, including usage errors, and verdicts ride the exit code
(0 yes, 1 no, 2 malformed, 3 budget exceeded).
"""

import contextlib
import io
import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from regint.automata import Dfa, Nfa, automaton_to_json, parse_regex, regex_to_nfa
from regint.cli import REDUCTIONS, main
from regint.problems import PROBLEMS, pcp_to_json, tiling_instance_to_json, tm_to_json
from regint.problems.tiling import TilingInstance
from regint.reductions import reduce_ntm_to_tiles

from helpers import CLASSIC, M1, M2

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


def test_search_rejects_a_non_finite_timeout(capsys, files):
    for timeout in ("nan", "inf"):
        code, doc = run(
            capsys, "search", "--problem", "bpcp", "--automaton", files["aa_plus"],
            "--max-len", "10", "--timeout", timeout,
        )
        assert code == 2 and "error" in doc


# ---------------------------------------------------------------------------
# usage errors


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
