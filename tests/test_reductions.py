"""Instance-language generators, end to end.

The PCP generators are exercised against the shuffled/BPCP membership
checkers through the witness search, with every found witness decoded
back and re-verified by direct concatenation; the machine-to-tiling
pipeline is checked against hand-traced runs and the tiling solvers.
"""

import hashlib
import json
import random

import pytest

from regint.automata import accepts, equivalent, parse_regex, regex_to_nfa
from regint.errors import AlphabetError, MalformedInputError, MalformedWordError, RegexSyntaxError
from regint.problems import (
    PcpInstance,
    TmSpec,
    check_bpcp,
    encode_tm,
    member_bpcp,
    member_bounded_tiling,
    member_corridor_tiling,
    member_machine_language,
    member_shuffled_regex_eq,
    member_shuffled_string_eq,
    parse_bpcp_word,
    parse_tiling_word,
    serialize_tile_set,
    solve_bounded_tiling,
    solve_corridor_tiling,
    validate_tiling,
)
from regint.reductions import (
    WHITE,
    normalize_tm,
    reduce_ntm_to_tiles,
    reduce_ntm_to_tiling_lang,
    reduce_pcp_to_bpcp_lang,
    reduce_pcp_to_shuffled_regex,
    reduce_tm_to_machine_lang,
)
from regint.search import SearchBudget, enumerate_words, find_witness

from helpers import (
    ACCEPT_NOW,
    CLASSIC,
    M1,
    M2,
    MISMATCH,
    NEVER,
    PAIR,
    PARITY,
    SHORTLONG,
    SOLVABLE,
    TRIV,
    UNSOLVABLE,
    decode_blocks,
    instance_for,
    pcp_blocks,
    verify_pcp_solution,
)


def budget(max_len, words=1_000_000, seconds=60.0):
    return SearchBudget(max_word_length=max_len, max_words_tested=words, wall_clock_limit=seconds)


# ---------------------------------------------------------------------------
# Machine normalization


def test_normalize_adds_three_cleanup_states():
    for tm in (M1, M2, ACCEPT_NOW, NEVER):
        n = normalize_tm(tm)
        assert n.states == tm.states + 3
        assert n.accept == tm.states + 2
        assert n.start == tm.start
        assert n.input_alphabet == tm.input_alphabet
        assert n.tape_alphabet == tm.tape_alphabet
        assert n.blank == tm.blank
        assert tm.transitions <= n.transitions


def test_normalize_cleanup_transition_families():
    n = normalize_tm(M2)
    drift, sweep, final = M2.states, M2.states + 1, M2.states + 2
    extra = n.transitions - M2.transitions
    for a in M2.tape_alphabet:
        assert (M2.accept, a, drift, n.blank, "S") in extra
        assert (drift, a, drift, a, "R") in extra
        assert (drift, a, sweep, n.blank, "L") in extra
        assert (drift, a, final, n.blank, "S") in extra
        assert (sweep, a, sweep, n.blank, "L") in extra
        assert (sweep, a, final, n.blank, "S") in extra
    assert len(extra) == 6 * len(M2.tape_alphabet)
    # the fresh final state keeps the no-outgoing rule, so TmSpec accepted it
    assert not any(src == final for src, *_ in n.transitions)


# ---------------------------------------------------------------------------
# PCP -> interleaved block language


def test_shuffled_regex_rejects_bad_pad():
    with pytest.raises(AlphabetError):
        reduce_pcp_to_shuffled_regex(CLASSIC, "0")
    with pytest.raises(AlphabetError):
        reduce_pcp_to_shuffled_regex(CLASSIC, "__")


def test_shuffled_regex_classic_blocks_and_text():
    lang = reduce_pcp_to_shuffled_regex(CLASSIC, "_")
    assert pcp_blocks(CLASSIC) == ["11_1_1", "11001_1_1_", "100_"]
    assert lang.regex_text == "(11_1_1|11001_1_1_|100_)+"
    assert lang.nfa.alphabet == frozenset("01_")
    assert lang.provenance == "pcp-to-shuffled-regex"
    # the text uses '_' and '+' as plain characters, so it is display-only
    with pytest.raises((RegexSyntaxError, AlphabetError)):
        parse_regex(lang.regex_text, lang.nfa.alphabet)


def test_shuffled_regex_language_is_block_concatenations():
    lang = reduce_pcp_to_shuffled_regex(CLASSIC, "_")
    for word, want in [
        ("11_1_1", True),
        ("100_", True),
        ("11_1_1100_", True),
        ("", False),
        ("11_1_", False),
        ("1", False),
    ]:
        assert accepts(lang.nfa, word) is want


def test_shuffled_regex_solution_words_are_members():
    for pcp, indices in SOLVABLE:
        lang = reduce_pcp_to_shuffled_regex(pcp, "_")
        blocks = pcp_blocks(pcp)
        word = "".join(blocks[i - 1] for i in indices)
        assert accepts(lang.nfa, word)
        assert member_shuffled_string_eq(word, pcp.alphabet, "_")


def test_shuffled_regex_witnesses_decode_to_verified_solutions():
    for pcp, _known in SOLVABLE:
        lang = reduce_pcp_to_shuffled_regex(pcp, "_")
        rep = find_witness(
            lang.nfa,
            lambda w, pcp=pcp: member_shuffled_string_eq(w, pcp.alphabet, "_"),
            budget(40),
        )
        assert rep.outcome == "witness"
        indices = decode_blocks(rep.witness, pcp)
        assert indices is not None
        assert verify_pcp_solution(pcp, indices)


def test_shuffled_regex_classic_witness_pin():
    lang = reduce_pcp_to_shuffled_regex(CLASSIC, "_")
    rep = find_witness(
        lang.nfa, lambda w: member_shuffled_string_eq(w, frozenset("01"), "_"), budget(40)
    )
    assert rep.outcome == "witness"
    assert rep.witness == "11001_1_1_" + "11_1_1" + "11_1_1" + "100_"
    assert rep.words_tested == 106
    assert decode_blocks(rep.witness, CLASSIC) == (2, 1, 1, 3)
    # both interleaved tracks erase to the same concatenation
    assert rep.witness[0::2].replace("_", "") == "101111110"
    assert rep.witness[1::2].replace("_", "") == "101111110"
    # a plain word is its own regex, so the regex-equality checker agrees
    assert member_shuffled_regex_eq(rep.witness, frozenset("01"))


def test_shuffled_regex_pair_witness_pin():
    lang = reduce_pcp_to_shuffled_regex(PAIR, "_")
    rep = find_witness(
        lang.nfa, lambda w: member_shuffled_string_eq(w, frozenset("01"), "_"), budget(40)
    )
    assert rep.outcome == "witness"
    assert rep.witness == "110_00_0"
    assert decode_blocks(rep.witness, PAIR) == (1, 2)


def test_shuffled_regex_unsolvable_instances_exhaust():
    for pcp in UNSOLVABLE:
        lang = reduce_pcp_to_shuffled_regex(pcp, "_")
        rep = find_witness(
            lang.nfa,
            lambda w, pcp=pcp: member_shuffled_string_eq(w, pcp.alphabet, "_"),
            budget(40),
        )
        assert rep.outcome == "exhausted", pcp
        assert rep.bound == 40


def test_shuffled_regex_mismatch_word_count():
    # two length-4 blocks: 2 + 4 + ... + 2^10 concatenations fit under 40
    lang = reduce_pcp_to_shuffled_regex(MISMATCH, "_")
    rep = find_witness(
        lang.nfa, lambda w: member_shuffled_string_eq(w, frozenset("01"), "_"), budget(40)
    )
    assert rep.outcome == "exhausted"
    assert rep.words_tested == 2046


# ---------------------------------------------------------------------------
# PCP -> BPCP word language


def test_bpcp_lang_rejects_reserved_alphabet():
    with pytest.raises(AlphabetError):
        reduce_pcp_to_bpcp_lang(PcpInstance(frozenset("#"), ("#",), ("#",)))


def test_bpcp_lang_trivial_text_reparses():
    lang = reduce_pcp_to_bpcp_lang(TRIV)
    assert lang.regex_text == "a(#a)*$a(#a)*$(0|1)*"
    assert lang.provenance == "pcp-to-bpcp"
    reparsed = regex_to_nfa(parse_regex(lang.regex_text, lang.nfa.alphabet))
    assert equivalent(lang.nfa, reparsed)


def test_bpcp_lang_classic_members():
    lang = reduce_pcp_to_bpcp_lang(CLASSIC)
    w_k3 = "1#10111#10$111#10#0$11"
    w_k4 = "1#10111#10#10$111#10#0#0$100"
    assert accepts(lang.nfa, w_k3)
    assert accepts(lang.nfa, w_k4)
    assert not accepts(lang.nfa, "1#10111$111#10#0$11")  # truncated list a
    assert member_bpcp(w_k4) is True
    assert member_bpcp(w_k3) is False  # no solution of length <= 3


def test_bpcp_lang_overgenerates_unequal_repetitions():
    # the two repetition stars are independent; the checker rejects the
    # resulting unequal list lengths
    lang = reduce_pcp_to_bpcp_lang(CLASSIC)
    unequal = "1#10111#10#10$111#10#0$100"
    assert accepts(lang.nfa, unequal)
    assert member_bpcp(unequal) is False


def test_bpcp_lang_search_finds_solvable_instances():
    for pcp, max_len in [(TRIV, 8), (PAIR, 14), (CLASSIC, 28)]:
        lang = reduce_pcp_to_bpcp_lang(pcp)
        rep = find_witness(lang.nfa, member_bpcp, budget(max_len))
        assert rep.outcome == "witness", pcp
        parsed, k = parse_bpcp_word(rep.witness)
        solution = check_bpcp(parsed, k)
        assert solution is not None
        assert verify_pcp_solution(parsed, solution.indices)


def test_bpcp_lang_search_witness_pins():
    rep = find_witness(reduce_pcp_to_bpcp_lang(TRIV).nfa, member_bpcp, budget(8))
    assert rep.outcome == "witness" and rep.witness == "a$a$1"
    rep = find_witness(reduce_pcp_to_bpcp_lang(PAIR).nfa, member_bpcp, budget(14))
    assert rep.outcome == "witness" and rep.witness == "10#0$1#00$10"
    rep = find_witness(reduce_pcp_to_bpcp_lang(CLASSIC).nfa, member_bpcp, budget(28))
    assert rep.outcome == "witness"
    # K=4 needs four listed pairs (the parser rejects K beyond the list
    # length), so the least member repeats the last blocks once
    assert rep.witness == "1#10111#10#10$111#10#0#0$100"
    assert rep.words_tested == 390


def test_bpcp_lang_search_exhausts_unsolvable_instances():
    for pcp, max_len in [(MISMATCH, 19), (PARITY, 18), (SHORTLONG, 14)]:
        lang = reduce_pcp_to_bpcp_lang(pcp)
        rep = find_witness(lang.nfa, member_bpcp, budget(max_len))
        assert rep.outcome == "exhausted", pcp
        assert check_bpcp(pcp, 6) is None


def test_bpcp_lang_shortlong_word_count():
    rep = find_witness(reduce_pcp_to_bpcp_lang(SHORTLONG).nfa, member_bpcp, budget(14))
    assert rep.outcome == "exhausted"
    assert rep.words_tested == 1544


# ---------------------------------------------------------------------------
# Machine word language


def test_machine_lang_rejects_reserved_input_symbols():
    bad = TmSpec(states=1, input_alphabet=("a",), tape_alphabet=("_", "a"), blank="_",
                 start=0, accept=0, transitions=frozenset())
    with pytest.raises(AlphabetError):
        reduce_tm_to_machine_lang(bad)


def test_machine_lang_text_and_reparse():
    enc = encode_tm(M2)
    lang = reduce_tm_to_machine_lang(M2)
    assert lang.regex_text == f"{enc}$(0|1)*$a*"
    assert lang.regex_text.count("$") == 2
    assert lang.provenance == "tm-to-machine-lang"
    reparsed = regex_to_nfa(parse_regex(lang.regex_text, lang.nfa.alphabet))
    assert equivalent(lang.nfa, reparsed)


def test_machine_lang_members_run_the_machine():
    enc = encode_tm(M2)
    lang = reduce_tm_to_machine_lang(M2)
    w = f"{enc}$01$aaaa"
    assert accepts(lang.nfa, w)
    assert member_machine_language(w, "NL") is True
    assert member_machine_language(f"{enc}$01$aaa", "NL") is False
    assert member_machine_language(f"{enc}$01$aa", "NP") is True
    assert member_machine_language(f"{enc}$01$a", "NP") is False
    assert member_machine_language(f"{enc}$01$aa", "PSPACE") is True
    assert member_machine_language(f"{enc}$00$aaaaaaaa", "NL") is False


def test_machine_lang_np_shortest_witness():
    enc = encode_tm(M2)
    lang = reduce_tm_to_machine_lang(M2)
    rep = find_witness(
        lang.nfa, lambda w: member_machine_language(w, "NP"), budget(len(enc) + 12)
    )
    assert rep.outcome == "witness"
    assert rep.witness == f"{enc}$1$a"
    assert rep.words_tested == 9


def test_machine_lang_immediate_accept_witness():
    enc = encode_tm(ACCEPT_NOW)
    lang = reduce_tm_to_machine_lang(ACCEPT_NOW)
    rep = find_witness(
        lang.nfa, lambda w: member_machine_language(w, "NP"), budget(len(enc) + 8)
    )
    # start state is accepting: the empty input with zero padding wins
    assert rep.outcome == "witness"
    assert rep.witness == f"{enc}$$"
    assert rep.words_tested == 1


def test_machine_lang_unreachable_accept_exhausts():
    enc = encode_tm(NEVER)
    lang = reduce_tm_to_machine_lang(NEVER)
    rep = find_witness(
        lang.nfa, lambda w: member_machine_language(w, "NP"), budget(len(enc) + 6)
    )
    assert rep.outcome == "exhausted"
    assert rep.witness is None


# ---------------------------------------------------------------------------
# Machine -> tile set


def expected_tile_count(tm):
    n = normalize_tm(tm)
    gamma = len(n.tape_alphabet)
    moves = [t[4] for t in n.transitions]
    return (
        gamma
        + moves.count("R") * (1 + gamma)
        + moves.count("L") * (1 + gamma)
        + moves.count("S")
        + 1
    )


def test_tile_counts_match_the_emission_families():
    for tm, count in [(M1, 28), (M2, 54)]:
        ts = reduce_ntm_to_tiles(tm)
        assert len(ts.tiles) == expected_tile_count(tm) == count
    for tm in (ACCEPT_NOW, NEVER):
        assert len(reduce_ntm_to_tiles(tm).tiles) == expected_tile_count(tm)


def test_tile_set_distinguished_colors_and_layout():
    ts = reduce_ntm_to_tiles(M2)
    n = normalize_tm(M2)
    assert ts.white == WHITE and ts.blank == "_" and ts.accept == f"q{n.accept}:_"
    states = {f"q{q}" for q in range(n.states)}
    heads = {f"q{q}:{a}" for q in range(n.states) for a in n.tape_alphabet}
    for tile in ts.tiles:
        assert tile.w in {WHITE} | states and tile.e in {WHITE} | states
        assert tile.n in set(n.tape_alphabet) | heads
        assert tile.s in set(n.tape_alphabet) | heads
    # copy tiles first, accept-repeat tile last
    assert ts.tiles[: len(n.tape_alphabet)] == tuple(
        (WHITE, a, WHITE, a) for a in n.tape_alphabet
    )
    assert ts.tiles[-1] == (WHITE, ts.accept, WHITE, ts.accept)


def test_tile_generation_rejects_colliding_symbols():
    for sym in (",", "."):
        bad = TmSpec(states=1, input_alphabet=("0",), tape_alphabet=("_", "0", sym),
                     blank="_", start=0, accept=0, transitions=frozenset())
        with pytest.raises(MalformedInputError):
            reduce_ntm_to_tiles(bad)


# sha256 of the tile sets below, in emission order, or of the error's
# type and message: it pins every tile's place, not only the counts
TILES_DIGEST = "e54f82cd82587ac2bf538ae8a96ec4d6a567626da941464478b321a640952f4f"


def random_machine(rng):
    states = rng.randint(1, 4)
    tape = ("_",) + tuple(rng.sample("01a", rng.randint(1, 3)))
    if rng.random() < 0.1:
        tape += (rng.choice(",;$#."),)
    accept = rng.randrange(states)
    sources = [q for q in range(states) if q != accept]
    transitions = frozenset(
        (rng.choice(sources), rng.choice(tape), rng.randrange(states), rng.choice(tape), rng.choice("LRS"))
        for _ in range(rng.randint(0, 6) if sources else 0)
    )
    inputs = tape[1 : rng.randint(2, len(tape))]
    return TmSpec(states, inputs, tape, "_", rng.randrange(states), accept, transitions)


def test_tile_sets_are_pinned():
    rng = random.Random(7070)
    digest = hashlib.sha256()
    rejected = 0
    for _ in range(600):
        try:
            ts = reduce_ntm_to_tiles(random_machine(rng))
        except MalformedInputError as exc:
            rejected += 1
            out = str(exc)
        else:
            out = ts.tiles, sorted(ts.colors), ts.white, ts.blank, ts.accept
        digest.update(repr(out).encode())
    assert rejected == 52
    assert digest.hexdigest() == TILES_DIGEST


# sha256 of every generator's to_json() below, in order: it pins each
# NFA transition, the regex text, the provenance and the alphabet
LANGUAGES_DIGEST = "33576ecded771d4e0c30e3f681425040cfed5056949c0e74e67fd27096a6bd15"


def random_pcp(rng):
    """Some instances declare letters no list uses; about a third pair
    strings of equal length, so their blocks need no pad."""
    alphabet = rng.sample("01bcx", rng.randint(1, 4))
    used = alphabet[: rng.randint(1, len(alphabet))]
    k = rng.randint(1, 4)
    if rng.random() < 0.3:
        lengths = [rng.randint(1, 4) for _ in range(k)]
        lists = [tuple("".join(rng.choice(used) for _ in range(n)) for n in lengths) for _ in "ab"]
    else:
        lists = [tuple("".join(rng.choice(used) for _ in range(rng.randint(1, 4))) for _ in range(k))
                 for _ in "ab"]
    return PcpInstance(frozenset(alphabet), *lists)


def canonical_machines(rng):
    """A machine in the layout encode_tm takes, with 0-3 input letters,
    and one on the same states whose tape may hold extra letters and
    whose start state is drawn at random."""
    inputs = tuple(str(i) for i in range(rng.randint(0, 3)))
    tape = ("_",) + inputs + tuple(rng.sample("xyz", rng.randint(0, 2)))
    states = rng.randint(1, 4)
    accept = 1 if states > 1 else 0
    sources = [q for q in range(states) if q != accept]
    transitions = frozenset(
        (rng.choice(sources), rng.choice(tape), rng.randrange(states), rng.choice(tape), rng.choice("LRS"))
        for _ in range(rng.randint(0, 6) if sources else 0)
    )
    narrow = frozenset(t for t in transitions if t[1] in ("_",) + inputs and t[3] in ("_",) + inputs)
    return (TmSpec(states, inputs, ("_",) + inputs, "_", 0, accept, narrow),
            TmSpec(states, inputs, tape, "_", rng.randrange(states), accept, transitions))


def test_generated_languages_are_pinned():
    pcp_rng, tm_rng = random.Random(15), random.Random(16)
    languages = []
    for _ in range(500):
        pcp = random_pcp(pcp_rng)
        languages += [reduce_pcp_to_shuffled_regex(pcp, "_"), reduce_pcp_to_bpcp_lang(pcp)]
    for _ in range(40):
        canonical, wide = canonical_machines(tm_rng)
        languages += [reduce_tm_to_machine_lang(canonical), reduce_ntm_to_tiling_lang(wide, "bounded"),
                      reduce_ntm_to_tiling_lang(wide, "corridor")]
    digest = hashlib.sha256()
    for lang in languages:
        digest.update(json.dumps(lang.to_json()).encode())
    assert digest.hexdigest() == LANGUAGES_DIGEST


# ---------------------------------------------------------------------------
# Run <-> tiling correspondence


def test_accepting_runs_tile_at_max_time_space():
    # hand-traced runs of the normalized machines, all the way to the
    # all-blank head-on-cell-1 final configuration:
    #   ACCEPT_NOW on "":  q0:_ -> q1:_ -> q3:_              t=2, s=1
    #   M1 on "1":         q0:1 -> q1:1 -> q2:_ -> q4:_      t=3, s=1
    #   M2 on "1":         q0:1 -> q1:1 -> q2:_ -> q4:_      t=3, s=1
    #   M2 on "01":        q0 steps right, accepts on the 1,
    #                      then blanks both cells            t=5, s=2
    for tm, x, size in [(ACCEPT_NOW, "", 2), (M1, "1", 3), (M2, "1", 3), (M2, "01", 5)]:
        inst = instance_for(tm, x, size, "bounded")
        tiling = solve_bounded_tiling(inst)
        assert tiling is not None, (tm, x, size)
        assert validate_tiling(inst, tiling) == []


def test_accepting_runs_tile_in_the_corridor_too():
    for tm, x, size, height in [(M1, "1", 3, 3), (M2, "01", 5, 5)]:
        inst = instance_for(tm, x, size, "corridor")
        tiling = solve_corridor_tiling(inst)
        assert tiling is not None
        assert tiling.height == height
        assert validate_tiling(inst, tiling) == []


def test_too_small_regions_are_unsolvable():
    assert solve_bounded_tiling(instance_for(M2, "01", 3, "bounded")) is None
    assert solve_bounded_tiling(instance_for(M1, "1", 2, "bounded")) is None


def test_larger_regions_stay_solvable():
    inst = instance_for(M2, "01", 6, "bounded")
    tiling = solve_bounded_tiling(inst)
    assert tiling is not None and validate_tiling(inst, tiling) == []


def test_rejected_inputs_are_unsolvable_bounded_up_to_four():
    for tm, inputs in [(M1, [""]), (M2, ["0", "", "00"])]:
        for x in inputs:
            for n in range(max(1, len(x)), 5):
                assert solve_bounded_tiling(instance_for(tm, x, n, "bounded")) is None, (x, n)


def test_stuck_start_is_unsolvable_in_the_corridor():
    # the start head over blank appears on no tile's south for these
    # machines, so even the free-sided corridor has no first row
    for tm in (M1, M2):
        for n in range(1, 5):
            assert solve_corridor_tiling(instance_for(tm, "", n, "corridor")) is None


# ---------------------------------------------------------------------------
# Machine -> tiling word language


def test_tiling_lang_rejects_unknown_variant():
    with pytest.raises(MalformedInputError):
        reduce_ntm_to_tiling_lang(M1, "torus")


def test_tiling_lang_words_parse_or_disagree_on_width():
    # border stars run independently, so width-mismatched words exist in
    # the language; every width-consistent word parses as an instance
    lang = reduce_ntm_to_tiling_lang(M1, "corridor")
    ser = serialize_tile_set(reduce_ntm_to_tiles(M1))
    parsed = 0
    for word in enumerate_words(lang.nfa, len(ser) + 14):
        try:
            inst = parse_tiling_word(word)
        except MalformedWordError as exc:
            assert "lengths differ" in str(exc)
            continue
        parsed += 1
        assert inst.variant == "corridor"
        assert inst.t[0] == "q4:_" and inst.b[0].startswith("q0:")
    assert parsed >= 2


def test_tiling_lang_corridor_members():
    lang = reduce_ntm_to_tiling_lang(M1, "corridor")
    ser = serialize_tile_set(reduce_ntm_to_tiles(M1))
    w1 = f"{ser}$q4:_$q0:1"
    assert accepts(lang.nfa, w1)
    assert member_corridor_tiling(w1) is True
    assert not accepts(lang.nfa, f"{ser}$q4:_$q0:0")  # '0' is not an input of M1
    wr = f"{ser}$q4:_$q0:_"
    assert accepts(lang.nfa, wr)
    assert member_corridor_tiling(wr) is False


def test_tiling_lang_corridor_search_pin():
    lang = reduce_ntm_to_tiling_lang(M1, "corridor")
    ser = serialize_tile_set(reduce_ntm_to_tiles(M1))
    rep = find_witness(lang.nfa, member_corridor_tiling,
                       budget(len(ser) + 16, words=4000, seconds=30.0))
    assert rep.outcome == "witness"
    assert rep.witness == f"{ser}$q4:_$q0:1"
    assert rep.words_tested == 1


def test_tiling_lang_bounded_members():
    lang = reduce_ntm_to_tiling_lang(M1, "bounded")
    ser = serialize_tile_set(reduce_ntm_to_tiles(M1))
    too_small = f"{ser}$.$q4:_$.$q0:1"
    assert accepts(lang.nfa, too_small)
    assert member_bounded_tiling(too_small) is False
    solvable = f"{ser}$.#.#.$q4:_#_#_$.#.#.$q0:1#_#_"
    assert accepts(lang.nfa, solvable)
    assert member_bounded_tiling(solvable) is True


def test_tiling_lang_bounded_search_finds_a_solvable_word():
    lang = reduce_ntm_to_tiling_lang(M1, "bounded")
    ser = serialize_tile_set(reduce_ntm_to_tiles(M1))
    rep = find_witness(lang.nfa, member_bounded_tiling,
                       budget(len(ser) + 30, words=100_000, seconds=60.0))
    assert rep.outcome == "witness"
    assert rep.witness == f"{ser}$.#.#.$q4:_#_#_$.#.#.$q0:1#_#_"
    inst = parse_tiling_word(rep.witness)
    assert solve_bounded_tiling(inst) is not None


def test_tiling_lang_bounded_search_exhausts_for_never_accepting_machine():
    # smallest parseable instance words appear at len(ser) + 14, and the
    # language holds 14693 words up to len(ser) + 30: none may pass
    lang = reduce_ntm_to_tiling_lang(NEVER, "bounded")
    ser = serialize_tile_set(reduce_ntm_to_tiles(NEVER))
    rep = find_witness(lang.nfa, member_bounded_tiling,
                       budget(len(ser) + 30, words=100_000, seconds=120.0))
    assert rep.outcome == "exhausted"
    assert rep.witness is None and rep.words_tested == 14693


# ---------------------------------------------------------------------------
# Serialization of generated languages


def test_generated_language_json_shape():
    lang = reduce_pcp_to_bpcp_lang(TRIV)
    doc = lang.to_json()
    assert doc["regex"] == lang.regex_text
    assert doc["provenance"] == "pcp-to-bpcp"
    assert doc["kind"] == "nfa"
