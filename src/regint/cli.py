"""Command-line interface.

Five subcommands: `check` tests a single word for membership, `decide`
runs one of the two decision procedures on an automaton file, `search`
hunts for a witness inside a regular language, `reduce` generates
instance languages, and `solve` runs the concrete solvers.  Verdicts
travel through the exit code (0 yes, 1 no, 2 malformed input, 3 budget
exceeded for searches); everything printed to stdout is JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

import regint  # public names import their modules on first access, so a call loads only what it runs

from .errors import MalformedInputError, ReginError, ResourceLimitError
from .problems import PAD, PROBLEMS, Problem

# reduction kind -> builder from (input document, --variant) to the printed
# payload; only ntm-to-tiling-lang takes a variant
REDUCTIONS = {
    "pcp-to-shuffled-regex":
        lambda data, _: regint.reduce_pcp_to_shuffled_regex(regint.pcp_from_json(data), PAD).to_json(),
    "pcp-to-bpcp": lambda data, _: regint.reduce_pcp_to_bpcp_lang(regint.pcp_from_json(data)).to_json(),
    "tm-to-machine-lang": lambda data, _: regint.reduce_tm_to_machine_lang(regint.tm_from_json(data)).to_json(),
    "ntm-to-tiles": lambda data, _: regint.tile_set_to_json(regint.reduce_ntm_to_tiles(regint.tm_from_json(data))),
    "ntm-to-tiling-lang":
        lambda data, variant: regint.reduce_ntm_to_tiling_lang(regint.tm_from_json(data), variant).to_json(),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors and -h/--help also land on stdout as JSON, keeping
    the output contract on the malformed-invocation and help paths."""

    def error(self, message):
        _emit({"error": message})
        raise SystemExit(2)

    def print_help(self, file=None):
        _emit({"help": self.format_help()})


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise MalformedInputError(f"in: cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, an int past the digit limit, deep nesting
        raise MalformedInputError(f"in: {path} is not JSON: {exc}") from exc


def _alphabet(problem: Problem, override: Optional[str], letters: Iterable[str]) -> frozenset[str]:
    """The override as given, else the inferred letters minus the
    problem's reserved symbols."""
    if problem.reserved is None:
        if override is not None:
            raise MalformedInputError(f"alphabet: not applicable to {problem.name}")
        return frozenset()
    if override is None:
        return frozenset(letters) - problem.reserved
    if not override:
        raise MalformedInputError("alphabet: may not be empty")
    return frozenset(override)


def _run_check(args) -> int:
    problem = PROBLEMS[args.problem]
    member = problem.checker(_alphabet(problem, args.alphabet, args.word))(args.word)
    _emit({"problem": args.problem, "word": args.word, "member": member})
    return 0 if member else 1


def _run_decide(args) -> int:
    automaton = regint.automaton_from_json(_load_json(args.dfa))
    if not isinstance(automaton, regint.Dfa):
        raise MalformedInputError("kind: decide expects a dfa")
    problem = PROBLEMS[args.problem]
    verdict, witness = problem.decider(automaton, _alphabet(problem, args.alphabet, automaton.alphabet))
    _emit({"problem": args.problem, "verdict": verdict, "witness": witness})
    return 0 if verdict else 1


def _run_search(args) -> int:
    automaton = regint.automaton_from_json(_load_json(args.automaton))
    problem = PROBLEMS[args.problem]
    checker = problem.checker(_alphabet(problem, args.alphabet, automaton.alphabet))
    budget = regint.SearchBudget(
        max_word_length=args.max_len,
        max_words_tested=args.max_words,
        wall_clock_limit=args.timeout,
    )
    report = regint.find_witness(automaton, checker, budget)
    _emit(report.to_json(deterministic=args.deterministic))
    return {"witness": 0, "exhausted": 1, "budget-exceeded": 3}[report.outcome]


def _run_reduce(args) -> int:
    if args.variant is not None and args.kind != "ntm-to-tiling-lang":
        raise MalformedInputError(f"variant: not applicable to {args.kind}")
    payload = REDUCTIONS[args.kind](_load_json(args.infile), args.variant or "bounded")
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise MalformedInputError(f"out: cannot write {args.out}: {exc.strerror or exc}") from exc
    _emit(payload)
    return 0


def _run_solve(args) -> int:
    payload = PROBLEMS[args.target].solver(_load_json(args.infile))
    _emit("none" if payload is None else payload)
    return 1 if payload is None else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regint", description=__doc__.splitlines()[0])
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress timing fields so output is reproducible")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="test one word for membership")
    check.add_argument("--problem", required=True, choices=PROBLEMS)
    check.add_argument("--word", required=True)
    check.add_argument("--alphabet", help="base letters, e.g. 'ab' (default: inferred)")
    check.set_defaults(run=_run_check)

    decide = sub.add_parser("decide", help="run a decision procedure on a DFA file")
    decide.add_argument("--problem", required=True,
                        choices=tuple(name for name, p in PROBLEMS.items() if p.decider))
    decide.add_argument("--dfa", required=True, help="automaton JSON of kind dfa")
    decide.add_argument("--alphabet", help="base letters (default: from the DFA)")
    decide.set_defaults(run=_run_decide)

    search = sub.add_parser("search", help="bounded witness search in a regular language")
    search.add_argument("--problem", required=True, choices=PROBLEMS)
    search.add_argument("--automaton", required=True, help="automaton JSON (dfa or nfa)")
    search.add_argument("--max-len", type=int, required=True)
    search.add_argument("--max-words", type=int, default=1_000_000)
    search.add_argument("--timeout", type=float, default=60.0,
                        help="wall clock limit in seconds")
    search.add_argument("--alphabet", help="base letters (default: from the automaton)")
    search.set_defaults(run=_run_search)

    reduce_cmd = sub.add_parser("reduce", help="generate an instance language or tile set")
    reduce_cmd.add_argument("kind", choices=REDUCTIONS)
    reduce_cmd.add_argument("--in", dest="infile", required=True)
    reduce_cmd.add_argument("--variant", choices=("bounded", "corridor"),
                            help="ntm-to-tiling-lang only (default: bounded)")
    reduce_cmd.add_argument("--out")
    reduce_cmd.set_defaults(run=_run_reduce)

    solve = sub.add_parser("solve", help="solve a concrete instance file")
    solve.add_argument("target", choices=tuple(name for name, p in PROBLEMS.items() if p.solver))
    solve.add_argument("--in", dest="infile", required=True)
    solve.set_defaults(run=_run_solve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ResourceLimitError as exc:
        _emit({"error": f"resource limit: {exc}"})
        return 2
    except MemoryError:  # an input too large to hold, e.g. an automaton of 10**13 states
        _emit({"error": "resource limit: out of memory"})
        return 2
    except ReginError as exc:
        _emit({"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
