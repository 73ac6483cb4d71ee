"""End-to-end command-line tests.

Every invocation goes through main(argv); stdout must parse as JSON on
every path, including usage errors, and verdicts ride the exit code
(0 yes, 1 no, 2 malformed, 3 budget exceeded).
"""

import json

import pytest

from regint.automata import Dfa, Nfa, automaton_to_json, parse_regex, regex_to_nfa
from regint.cli import main
from regint.problems import pcp_to_json, tiling_instance_to_json, tm_to_json
from regint.problems.tiling import TilingInstance
from regint.reductions import reduce_ntm_to_tiles

from helpers import CLASSIC, M1, M2

M2_ENC = "00100011010010100100110100010010001000"


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
