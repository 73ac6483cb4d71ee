"""Seeded inputs, queries and known-answer gates for the in-process
workloads: search-enum, search-check and decide (cli lives in
clicases.py).

Every call into regint goes through a module attribute
(`search.find_witness`, `deciders.decide_intreg_unary_shuffled`, ...)
so that the traced run can rebind those attributes.  Known answers come
from construction or from the independent counts in this file, never
from the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

from metrics import SEQ_EMPTY_BASE, SEQ_NONEMPTY, UNARY_EMPTY_BASE, UNARY_NONEMPTY
from regint import automata, deciders, reductions, search
from regint.problems import machines, strings, tiling

PAD = "_"
SEPARATOR = "$"
LETTERS = "bcdefghijklmnopqrstuvwxyz"  # parse_regex reserves '_' and friends

# Words the NEVER-machine languages hold up to the searched bounds.
TILING_WORDS = 14693
MACHINE_WORDS = {"NP": 65519, "NL": 32752, "PSPACE": 32752}
MACHINE_EXTRA = {"NP": 16, "NL": 15, "PSPACE": 15}

# The decide workload draws its DFA family from this fixed seed; --seed
# relabels the states of every member (see build_decide).
FAMILY_SEED = 1


@dataclass
class Query:
    qid: str
    group: str
    run: Callable[[], object]
    gate: Callable[[object], Optional[str]]  # None when the outcome is right


@dataclass
class Workload:
    name: str
    queries: list[Query]
    digest: str
    workdir: Optional[str] = None  # scratch files of the cli workload

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Independent helpers


def never_machine(writes: tuple[str, str]) -> machines.TmSpec:
    """Walks right over '0' and '1' forever; the accept state has no
    incoming move, so no run accepts.  `writes` picks what it writes back,
    which changes the encoding but neither the behaviour nor how many
    words the machine and tiling languages hold up to the searched
    bounds."""
    w0, w1 = writes
    return machines.TmSpec(
        states=2, input_alphabet=("0", "1"), tape_alphabet=("_", "0", "1"),
        blank="_", start=0, accept=1,
        transitions=frozenset({(0, "0", 0, w0, "R"), (0, "1", 0, w1, "R")}),
    )


NEVER_WRITES = tuple(itertools.product("_01", repeat=2))


def machine_word_count(extra: int) -> int:
    """|{enc $ x $ a^n : x in {0,1}*, |x| + n <= extra - 2}|, in closed form."""
    m = extra - 2
    return 2 ** (m + 2) - m - 3


def dfa_word_count(dfa: automata.Dfa, max_len: int) -> int:
    """Accepted words of length <= max_len, by counting paths."""
    ways = {dfa.start: 1}
    total = 0
    for length in range(max_len + 1):
        total += sum(c for q, c in ways.items() if q in dfa.finals)
        if length == max_len:
            break
        nxt: dict[int, int] = {}
        for q, c in ways.items():
            for sym in dfa.alphabet:
                r = dfa.delta[(q, sym)]
                nxt[r] = nxt.get(r, 0) + c
        ways = nxt
    return total


def run_dfa(delta, start: int, word: str) -> int:
    q = start
    for c in word:
        q = delta[(q, c)]
    return q


def product(a: tuple, b: tuple, symbols: str) -> tuple:
    """Reachable product of two (states, delta, start, finals) tuples."""
    index = {(a[2], b[2]): 0}
    order = [(a[2], b[2])]
    delta = {}
    i = 0
    while i < len(order):
        p, q = order[i]
        for sym in symbols:
            t = (a[1][(p, sym)], b[1][(q, sym)])
            if t not in index:
                index[t] = len(order)
                order.append(t)
            delta[(i, sym)] = index[t]
        i += 1
    finals = {i for i, (p, q) in enumerate(order) if p in a[3] and q in b[3]}
    return len(order), delta, 0, finals


def random_dfa(rng: random.Random, n: int, symbols: str) -> tuple:
    delta = {(q, s): rng.randrange(n) for q in range(n) for s in symbols}
    finals = {q for q in range(n) if rng.random() < 0.1}
    return n, delta, 0, finals


def unary_member(rng: random.Random) -> str:
    """Interleaving of two tracks holding the same number of 'a's."""
    m = rng.randint(2, 6)
    k = rng.randint(1, m)

    def track():
        ones = set(rng.sample(range(m), k))
        return ["a" if i in ones else PAD for i in range(m)]

    return "".join(x + y for x, y in zip(track(), track()))


def sequential_member(rng: random.Random) -> str:
    """u $ v whose sides spell the same a/b word once pads are erased."""
    core = "".join(rng.choice("ab") for _ in range(rng.randint(2, 6)))

    def padded():
        out = []
        for c in core:
            while rng.random() < 0.3:
                out.append(PAD)
            out.append(c)
        return "".join(out)

    return padded() + SEPARATOR + padded()


# ODD_A: an odd number of 'a's.  Every unary member has an even number.
ODD_A = (2, {(0, "a"): 1, (1, "a"): 0, (0, PAD): 0, (1, PAD): 1}, 0, {1})


def _a_then_b() -> tuple:
    """At least one 'a' before '$' and only 'b' after it, pads anywhere:
    the two sides can never spell the same word."""
    dead = 3
    delta = {(q, s): dead for q in range(4) for s in "ab_$"}
    delta.update({(0, PAD): 0, (0, "a"): 1, (1, "a"): 1, (1, PAD): 1, (1, SEPARATOR): 2,
                  (2, "b"): 2, (2, PAD): 2})
    return 4, delta, 0, {2}


A_THEN_B = _a_then_b()


# --------------------------------------------------------------------------
# search-enum and search-check


def _search_gate(expected_words: int):
    def gate(report) -> Optional[str]:
        got = (report.outcome, report.witness, report.words_tested)
        want = ("exhausted", None, expected_words)
        return None if got == want else f"got {got}, want {want}"

    return gate


def build_search_enum(seed: int) -> Workload:
    rng = random.Random(seed)
    writes = rng.choice(NEVER_WRITES)
    tm = never_machine(writes)
    lang = reductions.reduce_ntm_to_tiling_lang(tm, "bounded")
    ser = tiling.serialize_tile_set(reductions.reduce_ntm_to_tiles(tm))
    bound = len(ser) + 30
    x, y, z = rng.sample(LETTERS, 3)
    regex = f"({x}|{y})" * 20 + z
    budget_dfa = automata.determinize(automata.regex_to_nfa(automata.parse_regex(regex, {x, y, z})))

    def tiling_query():
        budget = search.SearchBudget(bound, 100_000, 600.0)
        return search.find_witness(lang.nfa, lambda w: tiling.member_bounded_tiling(w), budget)

    def budget_query():
        # 2^20 words of length 21 and a budget of 10^6: the words budget
        # stops it even if the clock does not
        return search.find_witness(budget_dfa, lambda w: False, search.SearchBudget(21, 10**6, 0.1))

    def budget_gate(report) -> Optional[str]:
        if report.outcome != "budget-exceeded" or report.witness is not None:
            return f"got {report.outcome}/{report.witness!r}, want budget-exceeded/None"
        return None

    queries = [
        Query("tiling-never", "complete", tiling_query, _search_gate(TILING_WORDS)),
        Query("budget-prefix-tree", "budget", budget_query, budget_gate),
    ]
    digest = digest_of({
        "tiling": automata.automaton_to_json(lang.nfa), "bound": bound,
        "budget": automata.automaton_to_json(budget_dfa),
    })
    return Workload("search-enum", queries, digest)


def build_search_check(seed: int) -> Workload:
    rng = random.Random(seed)
    tm = never_machine(rng.choice(NEVER_WRITES))
    enc = machines.encode_tm(tm)
    lang = reductions.reduce_tm_to_machine_lang(tm)
    # a fresh state numbering per seed; the search does not depend on it
    dfa = automata.determinize(lang.nfa)
    dfa = relabel(rng, (dfa.states, dfa.delta, dfa.start, dfa.finals), "".join(dfa.alphabet))
    queries = []
    for mode in ("NP", "NL", "PSPACE"):
        max_len = len(enc) + MACHINE_EXTRA[mode]
        counted = dfa_word_count(dfa, max_len)
        if not counted == machine_word_count(MACHINE_EXTRA[mode]) == MACHINE_WORDS[mode]:
            raise RuntimeError(f"machine language {mode}: path count {counted} disagrees")

        def run(mode=mode, max_len=max_len):
            checker = lambda w: machines.member_machine_language(w, mode)  # noqa: E731
            return search.find_witness(dfa, checker, search.SearchBudget(max_len, 10**6, 600.0))

        queries.append(Query(f"machine-{mode}", "complete", run, _search_gate(counted)))
    digest = digest_of({"dfa": automata.automaton_to_json(dfa), "enc": enc})
    return Workload("search-check", queries, digest)


# --------------------------------------------------------------------------
# decide


def _family() -> list[tuple[str, str, tuple, Optional[str]]]:
    """(kind, verdict, dfa tuple, planted word) for every decide instance.

    Nonempty members get a planted word, confirmed by its member_*
    checker, whose end state is made final.  Empty members are products
    with an automaton that no member word can pass, drawn until the
    product has its full size and at least one final state.
    """
    rng = random.Random(FAMILY_SEED)
    out = []
    for n in UNARY_NONEMPTY:
        word = unary_member(rng)
        if not strings.member_shuffled_string_eq(word, "a", PAD):
            raise RuntimeError(f"planted unary word {word!r} is not a member")
        states, delta, start, finals = random_dfa(rng, n, "a" + PAD)
        finals.add(run_dfa(delta, start, word))
        out.append(("unary", "nonempty", (states, delta, start, finals), word))
    for n in UNARY_EMPTY_BASE:
        while True:
            prod = product(random_dfa(rng, n, "a" + PAD), ODD_A, "a" + PAD)
            if prod[0] == 2 * n and prod[3]:
                break
        out.append(("unary", "empty", prod, None))
    for n in SEQ_NONEMPTY:
        word = sequential_member(rng)
        if not strings.member_sequential_string_eq(word, "ab", PAD):
            raise RuntimeError(f"planted sequential word {word!r} is not a member")
        states, delta, start, finals = random_dfa(rng, n, "ab_$")
        finals.add(run_dfa(delta, start, word))
        out.append(("sequential", "nonempty", (states, delta, start, finals), word))
    for n in SEQ_EMPTY_BASE:
        while True:
            prod = product(random_dfa(rng, n, "ab_$"), A_THEN_B, "ab_$")
            if prod[0] == 3 * n and len(prod[3]) >= 2:
                break
        out.append(("sequential", "empty", prod, None))
    return out


def relabel(rng: random.Random, dfa: tuple, symbols: str) -> automata.Dfa:
    states, delta, start, finals = dfa
    perm = list(range(states))
    rng.shuffle(perm)
    new_delta = {(perm[q], s): perm[r] for (q, s), r in delta.items()}
    return automata.Dfa(states, frozenset(symbols), new_delta, perm[start],
                        frozenset(perm[q] for q in finals))


def build_decide(seed: int) -> Workload:
    """The DFA family is fixed; --seed draws a fresh state numbering for
    every member.  Verdicts and decider work do not depend on numbering,
    so every seed costs the same while the inputs differ."""
    rng = random.Random(seed)
    queries = []
    payload = []
    for kind, verdict, dfa_tuple, word in _family():
        symbols = "a" + PAD if kind == "unary" else "ab_$"
        dfa = relabel(rng, dfa_tuple, symbols)
        if word is not None and run_dfa(dfa.delta, dfa.start, word) not in dfa.finals:
            raise RuntimeError("relabelling lost the planted word")
        payload.append(automata.automaton_to_json(dfa))
        want = verdict == "nonempty"
        qid = f"{kind}-n{dfa.states}-{verdict}"
        if kind == "unary":
            def run(dfa=dfa):
                return deciders.decide_intreg_unary_shuffled(dfa, "a", PAD)

            def gate(found, want=want):
                return None if found is want else f"verdict {found}, want {want}"
        else:
            def run(dfa=dfa):
                return deciders.decide_intreg_sequential_string_eq(dfa, "ab", PAD)

            def gate(result, want=want, dfa=dfa):
                found, witness = result
                if found is not want:
                    return f"verdict {found}, want {want}"
                if not want:
                    return None if witness is None else f"witness {witness!r} on an empty verdict"
                if not automata.accepts(dfa, witness):
                    return f"witness {witness!r} not accepted by the DFA"
                if not strings.member_sequential_string_eq(witness, "ab", PAD):
                    return f"witness {witness!r} is not a sequential member"
                return None
        queries.append(Query(qid, kind, run, gate))
    return Workload("decide", queries, digest_of(payload))


BUILDERS = {
    "search-enum": build_search_enum,
    "search-check": build_search_check,
    "decide": build_decide,
}
