"""The cli workload: `python -m regint.cli` subprocess calls on inputs
generated from the seed into a scratch directory of the checkout.

Every call has an expected exit code and a check of its JSON output.
Expectations come from how each input was built (planted members,
languages that are empty by construction, closed-form word counts) and
from the small independent checkers below, never from regint itself.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from typing import Callable, Optional

from regint.problems import machines
from workloads import (
    A_THEN_B, ODD_A, PAD, SEPARATOR, Query, Workload, digest_of, machine_word_count,
    never_machine, NEVER_WRITES, product, random_dfa, run_dfa, sequential_member, unary_member,
)

Check = Callable[[object], Optional[str]]


# --------------------------------------------------------------------------
# Independent encoders and checkers


def dfa_json(dfa: tuple, symbols: str) -> dict:
    states, delta, start, finals = dfa
    return {
        "kind": "dfa",
        "alphabet": sorted(symbols),
        "states": states,
        "start": start,
        "finals": sorted(finals),
        "transitions": [{"from": q, "on": s, "to": r} for (q, s), r in sorted(delta.items())],
    }


def tm_json(tm) -> dict:
    return {
        "states": tm.states, "input": list(tm.input_alphabet), "tape": list(tm.tape_alphabet),
        "blank": tm.blank, "start": tm.start, "accept": tm.accept,
        "delta": [{"from": s, "read": r, "to": d, "write": w, "move": m}
                  for s, r, d, w, m in sorted(tm.transitions)],
    }


def encode(tm) -> str:
    """The machine's unary transition code (header, then sorted moves)."""
    sym = {c: i + 1 for i, c in enumerate(tm.tape_alphabet)}
    move = {"L": 1, "R": 2, "S": 3}
    chunks = ["0" * (s + 1) + "1" + "0" * sym[r] + "1" + "0" * (d + 1) + "1" + "0" * sym[w] + "1"
              + "0" * move[m]
              for s, r, d, w, m in sorted(tm.transitions,
                                          key=lambda t: (t[0], sym[t[1]], t[2], sym[t[3]], move[t[4]]))]
    return "0" * tm.states + "1" + "0" * len(tm.tape_alphabet) + "11" + "11".join(chunks)


def tile_count(tm) -> int:
    """Tiles the machine construction emits: copy tiles, per R/L move an
    action tile plus one per symbol, S moves, one accept tile; the three
    clean-up states add one S, one R, two L and three S moves per symbol."""
    g = len(tm.tape_alphabet)
    moves = [t[4] for t in tm.transitions]
    r, left, s = moves.count("R") + g, moves.count("L") + 2 * g, moves.count("S") + 3 * g
    return g + r * (1 + g) + left * (1 + g) + s + 1


def sequential_ok(word: str) -> bool:
    if word.count(SEPARATOR) != 1:
        return False
    u, v = word.split(SEPARATOR)
    return u.replace(PAD, "") == v.replace(PAD, "")


def tiling_violations(inst: dict, grid, height: int) -> Optional[str]:
    tiles = inst["tiles"]
    width = inst["width"]
    if len(grid) != height or any(len(row) != width for row in grid):
        return "grid has the wrong shape"
    for j, row in enumerate(grid):
        for i, idx in enumerate(row):
            t = tiles[idx]
            south = inst["b"][i] if j == 0 else tiles[grid[j - 1][i]]["n"]
            if t["s"] != south:
                return f"cell ({j},{i}) south edge mismatch"
            if i > 0 and t["w"] != tiles[row[i - 1]]["e"]:
                return f"cell ({j},{i}) west edge mismatch"
            if inst["variant"] == "bounded":
                if i == 0 and t["w"] != inst["l"][j]:
                    return f"cell ({j},{i}) left border mismatch"
                if i == width - 1 and t["e"] != inst["r"][j]:
                    return f"cell ({j},{i}) right border mismatch"
            if j == height - 1 and t["n"] != inst["t"][i]:
                return f"cell ({j},{i}) top border mismatch"
    return None


def _expect(**fields) -> Check:
    def check(doc):
        if not isinstance(doc, dict):
            return f"expected an object, got {doc!r}"
        bad = {k: doc.get(k) for k, v in fields.items() if doc.get(k) != v}
        return None if not bad else f"fields {bad}, want {fields}"

    return check


# --------------------------------------------------------------------------
# Instances


def shuffled_member(rng: random.Random) -> str:
    core = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
    tracks = []
    for _ in range(2):
        out = []
        for c in core:
            while rng.random() < 0.3:
                out.append(PAD)
            out.append(c)
        tracks.append("".join(out))
    n = max(map(len, tracks))
    u, v = (t.ljust(n, PAD) for t in tracks)
    return "".join(x + y for x, y in zip(u, v))


def flip_first_letter(word: str, positions) -> str:
    """Swap a/b at the first letter position among `positions`."""
    for i in positions:
        if word[i] in "ab":
            return word[:i] + ("b" if word[i] == "a" else "a") + word[i + 1:]
    raise ValueError("no letter to flip")


def trie_dfa(words: list[str], symbols: str) -> tuple:
    """DFA accepting exactly `words`, with a sink state."""
    delta: dict = {}
    finals = set()
    nodes = {"": 0}
    for w in words:
        for k in range(1, len(w) + 1):
            nodes.setdefault(w[:k], len(nodes))
        finals.add(nodes[w])
    sink = len(nodes)
    for prefix, q in nodes.items():
        for s in symbols:
            delta[(q, s)] = nodes.get(prefix + s, sink)
    for s in symbols:
        delta[(sink, s)] = sink
    return sink + 1, delta, 0, finals


def machine_lang_dfa(enc: str) -> tuple:
    """enc $ (0|1)* $ a* over {0,1,$,a}, with a sink state."""
    symbols = "01$a"
    n = len(enc)
    loop, tail, sink = n + 1, n + 2, n + 3
    delta = {(q, s): sink for q in range(n + 4) for s in symbols}
    for i, c in enumerate(enc):
        delta[(i, c)] = i + 1
    delta[(n, "$")] = loop
    delta[(loop, "0")] = delta[(loop, "1")] = loop
    delta[(loop, "$")] = tail
    delta[(tail, "a")] = tail
    return n + 4, delta, 0, {tail}


# start state accepting: accepts every input at once, in every mode
ACCEPT_NOW = machines.TmSpec(states=1, input_alphabet=("0",), tape_alphabet=("_", "0"), blank="_",
                             start=0, accept=0, transitions=frozenset())


def white_tiles(extra: int, rng: random.Random) -> list[dict]:
    """The all-white tile plus `extra` tiles over colours w/r/g."""
    tiles = [{"w": "w", "n": "w", "e": "w", "s": "w"}]
    for _ in range(extra):
        tiles.append({k: rng.choice("rg") for k in "wnes"})
    return tiles


def tiling_instance(rng: random.Random, variant: str, solvable: bool) -> dict:
    width = rng.randint(2, 3)
    tiles = white_tiles(rng.randint(1, 3), rng)
    colors = sorted({c for t in tiles for c in t.values()} | {"w", "x"})
    bottom = ["w"] * width
    if not solvable:
        bottom[rng.randrange(width)] = "x"  # no tile has an 'x' edge
    inst = {"colors": colors, "white": None, "blank": None, "accept": None, "tiles": tiles,
            "variant": variant, "width": width, "t": ["w"] * width, "b": bottom,
            "l": None, "r": None}
    if variant == "bounded":
        inst["l"] = inst["r"] = ["w"] * width
    return inst


def tiling_word(inst: dict) -> str:
    tiles = ";".join(",".join(t[k] for k in "wnes") for t in inst["tiles"])
    return "$".join([tiles] + ["#".join(inst[k]) for k in ("l", "t", "r", "b")])


def pcp_instance(rng: random.Random, solvable: bool) -> dict:
    n = rng.randint(2, 4)
    a, b = [], []
    for _ in range(n):
        top = "".join(rng.choice("01") for _ in range(rng.randint(2, 3)))
        a.append(top)
        # unsolvable: every top string is longer than its bottom string
        b.append(top[: rng.randint(1, len(top) - 1)] if not solvable else
                 "".join(rng.choice("01") for _ in range(rng.randint(1, 3))))
    if solvable:
        i = rng.randrange(n)
        b[i] = a[i]
    return {"alphabet": ["0", "1"], "a": a, "b": b}


# --------------------------------------------------------------------------
# Calls


def _bpcp_check(inst: dict, k: int) -> Check:
    def check(doc):
        if not isinstance(doc, dict) or not doc.get("indices"):
            return f"expected a solution, got {doc!r}"
        idx = doc["indices"]
        if len(idx) > k or any(not 1 <= i <= len(inst["a"]) for i in idx):
            return f"indices {idx} out of range"
        top = "".join(inst["a"][i - 1] for i in idx)
        bottom = "".join(inst["b"][i - 1] for i in idx)
        return None if top == bottom else f"indices {idx} do not match"

    return check


def _grid_check(inst: dict) -> Check:
    def check(doc):
        if not isinstance(doc, dict) or "grid" not in doc:
            return f"expected a tiling, got {doc!r}"
        height = doc["height"]
        if inst["variant"] == "bounded" and height != inst["width"]:
            return "bounded tiling is not square"
        return tiling_violations(inst, doc["grid"], height)

    return check


def _none(doc) -> Optional[str]:
    return None if doc == "none" else f"expected \"none\", got {doc!r}"


def _seq_decide_check(dfa: tuple) -> Check:
    def check(doc):
        w = doc.get("witness") if isinstance(doc, dict) else None
        if not isinstance(doc, dict) or doc.get("verdict") is not True or not isinstance(w, str):
            return f"expected a nonempty verdict with a witness, got {doc!r}"
        if any(c not in "ab_$" for c in w) or run_dfa(dfa[1], dfa[2], w) not in dfa[3]:
            return f"witness {w!r} not accepted"
        return None if sequential_ok(w) else f"witness {w!r} is not a member"

    return check


def _cases(rng: random.Random, workdir: str) -> list[tuple[str, list[str], int, Check]]:
    """(subcommand, argv after the subcommand, exit code, output check)."""
    files = 0

    def dump(payload) -> str:
        nonlocal files
        files += 1
        path = os.path.join(workdir, f"in{files}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out)
        return path

    cases = []

    def check(problem, word, member):
        cases.append(("check", ["--problem", problem, "--word", word], 0 if member else 1,
                      _expect(problem=problem, word=word, member=member)))

    for _ in range(5):
        w = shuffled_member(rng)
        check("shuffled-string-eq", w, True)
        check("shuffled-string-eq", flip_first_letter(w, range(0, len(w), 2)), False)
    for _ in range(5):
        w = sequential_member(rng)
        check("sequential-string-eq", w, True)
        check("sequential-string-eq", flip_first_letter(w, range(w.index(SEPARATOR))), False)
    for _ in range(4):
        w = unary_member(rng)
        check("unary-shuffled-string-eq", w, True)
        check("unary-shuffled-string-eq", w + "a" + PAD, False)  # one more 'a' on one track
    for problem in ("machine-np", "machine-nl", "machine-pspace"):
        for _ in range(2):
            x = "0" * rng.randint(0, 3)
            check(problem, f"{encode(ACCEPT_NOW)}${x}${'a' * rng.randint(4, 8)}", True)
            tm = never_machine(rng.choice(NEVER_WRITES))
            x = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            check(problem, f"{encode(tm)}${x}${'a' * rng.randint(2, 8)}", False)
    for solvable in (True, False, True, False, True, False):
        check("bounded-tiling", tiling_word(tiling_instance(rng, "bounded", solvable)), solvable)

    # decide: planted members and products that are empty by construction
    for _ in range(2):
        w = unary_member(rng)
        dfa = random_dfa(rng, 6, "a_")
        dfa[3].add(run_dfa(dfa[1], 0, w))
        cases.append(("decide", ["--problem", "unary-shuffled-string-eq", "--dfa", dump(dfa_json(dfa, "a_"))],
                      0, _expect(verdict=True, witness=None)))
        empty = product(random_dfa(rng, 3, "a_"), ODD_A, "a_")
        cases.append(("decide", ["--problem", "unary-shuffled-string-eq", "--dfa", dump(dfa_json(empty, "a_"))],
                      1, _expect(verdict=False, witness=None)))
    for _ in range(2):
        w = sequential_member(rng)
        dfa = random_dfa(rng, 10, "ab_$")
        dfa[3].add(run_dfa(dfa[1], 0, w))
        cases.append(("decide", ["--problem", "sequential-string-eq", "--dfa", dump(dfa_json(dfa, "ab_$"))],
                      0, _seq_decide_check(dfa)))
        empty = product(random_dfa(rng, 5, "ab_$"), A_THEN_B, "ab_$")
        cases.append(("decide", ["--problem", "sequential-string-eq", "--dfa", dump(dfa_json(empty, "ab_$"))],
                      1, _expect(verdict=False, witness=None)))

    # search: finite languages whose shortlex order is known, and the
    # never-accepting machine language with its closed-form word count
    for with_member in (True, False, True, False, True, False):
        words = set()
        while len(words) < 6:
            w = "".join(rng.choice("ab_$") for _ in range(rng.randint(1, 6)))
            if not sequential_ok(w):
                words.add(w)
        if with_member:
            words.add(sequential_member(rng))
        ordered = sorted(words, key=lambda w: (len(w), w))
        max_len = max(map(len, ordered))
        hits = [i for i, w in enumerate(ordered) if sequential_ok(w)]
        path = dump(dfa_json(trie_dfa(ordered, "ab_$"), "ab_$"))
        argv = ["--problem", "sequential-string-eq", "--automaton", path, "--max-len", str(max_len)]
        if hits:
            want = _expect(outcome="witness", witness=ordered[hits[0]], wordsTested=hits[0] + 1)
            cases.append(("search", argv, 0, want))
        else:
            want = _expect(outcome="exhausted", witness=None, wordsTested=len(ordered), bound=max_len)
            cases.append(("search", argv, 1, want))
    for mode in ("machine-np", "machine-nl"):
        enc = encode(never_machine(rng.choice(NEVER_WRITES)))
        path = dump(dfa_json(machine_lang_dfa(enc), "01$a"))
        extra = rng.randint(5, 7)
        argv = ["--problem", mode, "--automaton", path, "--max-len", str(len(enc) + extra)]
        cases.append(("search", argv, 1, _expect(outcome="exhausted", witness=None,
                                                  wordsTested=machine_word_count(extra))))
        cases.append(("search", argv + ["--max-words", "5"], 3,
                      _expect(outcome="budget-exceeded", witness=None, wordsTested=5)))

    # reduce: every kind, output pinned by construction
    for _ in range(4):
        pcp = pcp_instance(rng, rng.random() < 0.5)
        path = dump(pcp)
        blocks = []
        for a, b in zip(pcp["a"], pcp["b"]):
            n = max(len(a), len(b))
            blocks.append("".join(x + y for x, y in zip(a.ljust(n, PAD), b.ljust(n, PAD))))
        cases.append(("reduce", ["pcp-to-shuffled-regex", "--in", path], 0,
                      _expect(provenance="pcp-to-shuffled-regex", regex="(" + "|".join(blocks) + ")+")))
        a, b = pcp["a"], pcp["b"]
        bpcp_text = f"{'#'.join(a)}(#{a[-1]})*${'#'.join(b)}(#{b[-1]})*$(0|1)*"
        cases.append(("reduce", ["pcp-to-bpcp", "--in", path], 0,
                      _expect(provenance="pcp-to-bpcp", regex=bpcp_text)))
    for tm in [never_machine(rng.choice(NEVER_WRITES)) for _ in range(4)]:
        path = dump(tm_json(tm))
        cases.append(("reduce", ["tm-to-machine-lang", "--in", path], 0,
                      _expect(provenance="tm-to-machine-lang", regex=f"{encode(tm)}$(0|1)*$a*")))
        count = tile_count(tm)
        cases.append(("reduce", ["ntm-to-tiles", "--in", path], 0,
                      lambda doc, count=count: None if isinstance(doc, dict) and len(doc.get("tiles", ())) == count
                      else f"expected {count} tiles"))
        final = tm.states + 2
        side = f"$.(#.)*${'q%d:_' % final}(#_)*$.(#.)*$("
        cases.append(("reduce", ["ntm-to-tiling-lang", "--in", path], 0,
                      lambda doc, side=side: None if isinstance(doc, dict)
                      and doc.get("provenance") == "ntm-to-tiling-lang/bounded"
                      and side in doc.get("regex", "") else "unexpected tiling language"))

    # solve: all three targets, solvable and unsolvable by construction
    for solvable in (True, False, True, False, True, False):
        pcp = pcp_instance(rng, solvable)
        k = len(pcp["a"])
        cases.append(("solve", ["bpcp", "--in", dump({**pcp, "k": k})], 0 if solvable else 1,
                      _bpcp_check(pcp, k) if solvable else _none))
    for variant in ("bounded", "corridor"):
        for solvable in (True, False, True, False, True, False):
            inst = tiling_instance(rng, variant, solvable)
            cases.append(("solve", [f"{variant}-tiling", "--in", dump(inst)], 0 if solvable else 1,
                          _grid_check(inst) if solvable else _none))
    return cases


def build_cli(seed: int, scratch_root: str) -> Workload:
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=scratch_root)
    rng = random.Random(seed)
    cases = _cases(rng, workdir)
    queries = []
    payload = []
    for i, (sub, argv, code, check) in enumerate(cases):
        full = [sys.executable, "-m", "regint.cli", "--deterministic", sub] + argv
        payload.append([sub] + [os.path.basename(a) if a.startswith(workdir) else a for a in argv])

        def run(full=full):
            proc = subprocess.run(full, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        def gate(result, code=code, check=check):
            got, out, err = result
            if got != code:
                return f"exit {got}, want {code}: {out.strip()[:200]} {err.strip()[:200]}"
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                return f"stdout is not JSON: {out[:200]!r}"
            return check(doc)

        queries.append(Query(f"cli-{i:03d}-{sub}", sub, run, gate))
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            payload.append([name, json.load(handle)])
    return Workload("cli", queries, digest_of(payload), workdir=workdir)
