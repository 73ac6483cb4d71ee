"""Tilings: validation, the two solvers against brute force, the word
encoding, and the membership checkers."""

import hashlib
import random

import pytest

from regint.errors import MalformedInputError, MalformedWordError, ResourceLimitError
from regint.problems import (
    TileSet,
    TileType,
    Tiling,
    TilingInstance,
    instance_to_word,
    member_bounded_tiling,
    member_corridor_tiling,
    parse_tiling_word,
    serialize_tile_set,
    solve_bounded_tiling,
    solve_corridor_tiling,
    tile_set_from_json,
    tile_set_to_json,
    tiling_instance_from_json,
    tiling_instance_to_json,
    validate_tiling,
)
from regint.problems import tiling
from regint.reductions import reduce_ntm_to_tiles, reduce_ntm_to_tiling_lang
from regint.search import enumerate_words

from helpers import M2, NEVER, brute_bounded, brute_corridor, instance_for


def tiles_of(*quads):
    tts = tuple(TileType(*q) for q in quads)
    colors = frozenset(c for t in tts for c in t)
    return TileSet(tts, colors)


# ---------------------------------------------------------------------------
# validation


def test_tile_colors_must_be_declared():
    with pytest.raises(MalformedInputError):
        TileSet((TileType("w", "n", "e", "s"),), frozenset("wne"))


def test_instance_coloring_lengths_must_match_width():
    ts = tiles_of(("w", "c", "w", "c"))
    with pytest.raises(MalformedInputError):
        TilingInstance("bounded", ts, 2, ("w", "w"), ("c",), ("w", "w"), ("c", "c"))


def test_instance_variant_must_be_known():
    ts = tiles_of(("w", "c", "w", "c"))
    with pytest.raises(MalformedInputError, match="variant"):
        TilingInstance("square", ts, 1, ("w",), ("c",), ("w",), ("c",))


def test_corridor_instances_have_no_side_colorings():
    ts = tiles_of(("w", "c", "w", "c"))
    with pytest.raises(MalformedInputError):
        TilingInstance("corridor", ts, 1, ("w",), ("c",), None, ("c",))


def test_validator_reports_each_violation():
    ts = tiles_of(("w", "c", "w", "c"), ("w", "d", "w", "d"))
    inst = TilingInstance("bounded", ts, 2, ("w", "w"), ("c", "c"), ("w", "w"), ("c", "c"))
    # tile 1 in the corner: wrong bottom border and a vertical mismatch
    bad = Tiling(2, 2, ((1, 0), (0, 0)))
    problems = validate_tiling(inst, bad)
    assert any(p.startswith("bottom border") for p in problems)
    assert any("north" in p for p in problems)
    good = Tiling(2, 2, ((0, 0), (0, 0)))
    assert validate_tiling(inst, good) == []


def test_validator_rejects_non_square_bounded_grids():
    ts = tiles_of(("w", "c", "w", "c"))
    inst = TilingInstance("bounded", ts, 1, ("w",), ("c",), ("w",), ("c",))
    assert validate_tiling(inst, Tiling(1, 2, ((0,), (0,)))) != []


def test_validator_reports_a_grid_that_does_not_fit_the_instance():
    ts = tiles_of(("w", "c", "w", "c"))
    inst = TilingInstance("corridor", ts, 2, None, ("c", "c"), None, ("c", "c"))
    assert validate_tiling(inst, Tiling(1, 1, ((0,),))) == ["width 1 != instance width 2"]
    assert validate_tiling(inst, Tiling(2, 2, ((0, 0), (0,)))) == ["grid shape does not match width/height"]
    assert validate_tiling(inst, Tiling(2, 2, ((0, 0), (0, 1)))) == ["cell (1,1): tile index 1 out of range"]
    assert validate_tiling(inst, Tiling(2, 1, ((-1, 0),))) == ["cell (0,0): tile index -1 out of range"]


def test_validator_reports_a_zero_height_grid():
    ts = tiles_of(("w", "c", "w", "c"))
    inst = TilingInstance("corridor", ts, 2, None, ("c", "c"), None, ("c", "c"))
    assert validate_tiling(inst, Tiling(2, 0, ())) == ["height must be at least 1"]


# ---------------------------------------------------------------------------
# bounded solving


def test_each_solver_refuses_the_other_variant():
    ts = tiles_of(("w", "c", "w", "c"))
    bounded = TilingInstance("bounded", ts, 1, ("w",), ("c",), ("w",), ("c",))
    corridor = TilingInstance("corridor", ts, 1, None, ("c",), None, ("c",))
    with pytest.raises(MalformedInputError, match="needs a bounded instance"):
        solve_bounded_tiling(corridor)
    with pytest.raises(MalformedInputError, match="needs a corridor instance"):
        solve_corridor_tiling(bounded)


def test_single_cell_tiling():
    ts = tiles_of(("w", "b", "w", "b"))
    inst = TilingInstance("bounded", ts, 1, ("w",), ("b",), ("w",), ("b",))
    tiling = solve_bounded_tiling(inst)
    assert tiling == Tiling(1, 1, ((0,),))
    assert validate_tiling(inst, tiling) == []


def test_unmatchable_top_coloring_gives_none():
    # "qf" is declared but appears on no tile's north edge
    base = tiles_of(("w", "b", "w", "b"))
    ts = TileSet(base.tiles, base.colors | {"qf"})
    inst = TilingInstance("bounded", ts, 1, ("w",), ("qf",), ("w",), ("b",))
    assert solve_bounded_tiling(inst) is None


def test_bounded_solver_agrees_with_brute_force_on_tiny_instances():
    rng = random.Random(2024)
    colors = ["w", "c", "d"]
    agreements = 0
    for _ in range(120):
        count = rng.randint(1, 3)
        tts = tuple(
            TileType(*(rng.choice(colors) for _ in range(4))) for _ in range(count)
        )
        ts = TileSet(tts, frozenset(colors))
        n = rng.randint(1, 2)
        pick = lambda: tuple(rng.choice(colors) for _ in range(n))
        inst = TilingInstance("bounded", ts, n, pick(), pick(), pick(), pick())
        mine = solve_bounded_tiling(inst)
        brute = brute_bounded(inst)
        assert (mine is None) == (brute is None), inst
        if mine is not None:
            assert validate_tiling(inst, mine) == []
        agreements += 1
    assert agreements == 120


# ---------------------------------------------------------------------------
# corridor solving


def test_corridor_single_column_height_one():
    ts = tiles_of(("w", "c", "w", "c"))
    inst = TilingInstance("corridor", ts, 1, None, ("c",), None, ("c",))
    assert solve_corridor_tiling(inst) == Tiling(1, 1, ((0,),))


def test_corridor_unmatchable_top_gives_none():
    # no tile carries north color "d"
    base = tiles_of(("w", "c", "w", "c"))
    ts = TileSet(base.tiles, base.colors | {"d"})
    inst = TilingInstance("corridor", ts, 1, None, ("d",), None, ("c",))
    assert solve_corridor_tiling(inst) is None


def test_two_tile_chain_forces_height_two():
    # bottom color c lifts to m, m lifts to t: exactly two rows
    ts = tiles_of(("w", "m", "w", "c"), ("w", "t", "w", "m"))
    inst = TilingInstance("corridor", ts, 1, None, ("t",), None, ("c",))
    tiling = solve_corridor_tiling(inst)
    assert tiling is not None
    assert tiling.height == 2
    assert tiling.grid == ((0,), (1,))
    assert validate_tiling(inst, tiling) == []


def test_corridor_height_is_minimal():
    # tile 0 keeps c, tile 1 finishes: heights 1,2,3,... all exist, BFS
    # must return 1
    ts = tiles_of(("w", "c", "w", "c"), ("w", "t", "w", "c"))
    inst = TilingInstance("corridor", ts, 1, None, ("t",), None, ("c",))
    tiling = solve_corridor_tiling(inst)
    assert tiling is not None and tiling.height == 1


def test_corridor_solver_agrees_with_brute_force_on_tiny_instances():
    rng = random.Random(77)
    colors = ["w", "c"]
    for _ in range(80):
        count = rng.randint(1, 3)
        tts = tuple(
            TileType(*(rng.choice(colors) for _ in range(4))) for _ in range(count)
        )
        ts = TileSet(tts, frozenset(colors))
        n = rng.randint(1, 2)
        pick = lambda: tuple(rng.choice(colors) for _ in range(n))
        inst = TilingInstance("corridor", ts, n, None, pick(), None, pick())
        mine = solve_corridor_tiling(inst)
        brute = brute_corridor(inst, 3)
        if brute is not None:
            assert mine is not None
            assert mine.height == brute.height  # minimal height agrees
            assert validate_tiling(inst, mine) == []
        elif mine is not None:
            # solvable but only above the brute-force height cap
            assert mine.height > 3
        else:
            assert mine is None


def test_corridor_node_budget_raises(monkeypatch):
    ts = tiles_of(("w", "c", "w", "c"), ("c", "c", "c", "c"), ("w", "c", "c", "c"),
                  ("c", "c", "w", "c"))
    inst = TilingInstance("corridor", ts, 3, None, ("c", "c", "c"), None, ("c", "c", "c"))
    monkeypatch.setattr(tiling, "_MAX_ROWS", 2)
    with pytest.raises(ResourceLimitError):
        solve_corridor_tiling(inst)


# ---------------------------------------------------------------------------
# exact solver outputs
#
# sha256 of the outputs below: it pins the first bounded tiling in
# cell order and the corridor's minimal height, its rows and where its
# row budget runs out, not only whether a tiling exists.
SOLVER_DIGEST = "f5d40beca2afd92f333cff0e9d6a8f1dd4be24af880cc90da55b44ea215e8843"


def random_instance(rng):
    colors = "wcdx"[: rng.randint(2, 4)]
    count = rng.randint(1, 7)
    tts = tuple(TileType(*(rng.choice(colors) for _ in range(4))) for _ in range(count))
    ts = TileSet(tts, frozenset(colors))
    n = rng.randint(1, 4)
    pick = lambda: tuple(rng.choice(colors) for _ in range(n))
    if rng.random() < 0.5:
        return TilingInstance("bounded", ts, n, pick(), pick(), pick(), pick())
    return TilingInstance("corridor", ts, n, None, pick(), None, pick())


def corridor_outcome(instance):
    try:
        result = solve_corridor_tiling(instance)
    except ResourceLimitError:
        return "ResourceLimitError"
    return result and (result.height, result.grid)


def test_solver_outputs_are_pinned(monkeypatch):
    rng = random.Random(8080)
    digest = hashlib.sha256()
    solved = 0
    for _ in range(3000):
        inst = random_instance(rng)
        if inst.variant == "bounded":
            found = solve_bounded_tiling(inst)
            out = found and found.grid
        else:
            with monkeypatch.context() as m:
                m.setattr(tiling, "_MAX_ROWS", 5)
                capped = corridor_outcome(inst)
            out = capped, corridor_outcome(inst)
        solved += out is not None and out[-1] is not None
        digest.update(repr(out).encode())
    assert solved == 406
    assert digest.hexdigest() == SOLVER_DIGEST


# ---------------------------------------------------------------------------
# free corridor sides
#
# Corridor instances constrain top and bottom only.  A machine tile
# set therefore admits tilings in which a head walks off one border
# while a reception tile conjures one from the other: locally valid,
# matching no run of the machine.  M2 rejects "0", yet its width-1
# corridor instance tiles.


def test_free_sides_admit_head_escape_tilings():
    inst = instance_for(M2, "0", 1, "corridor")
    tiling = solve_corridor_tiling(inst)
    assert tiling is not None
    assert validate_tiling(inst, tiling) == []
    assert tiling.height == 3


# ---------------------------------------------------------------------------
# word encoding


def test_instance_word_round_trip_bounded():
    inst = instance_for(M2, "01", 5, "bounded")
    word = instance_to_word(inst)
    again = parse_tiling_word(word)
    assert again.variant == "bounded"
    assert again.width == 5
    assert again.t == inst.t and again.b == inst.b and again.l == inst.l and again.r == inst.r
    assert again.tile_set.tiles == inst.tile_set.tiles


def test_instance_word_round_trip_corridor():
    inst = instance_for(M2, "01", 5, "corridor")
    again = parse_tiling_word(instance_to_word(inst))
    assert again.variant == "corridor"
    assert again.l is None and again.r is None
    assert again.t == inst.t and again.b == inst.b


def test_membership_checkers_on_round_tripped_words():
    sat = instance_for(M2, "01", 5, "bounded")
    assert member_bounded_tiling(instance_to_word(sat)) is True
    unsat = instance_for(M2, "0", 3, "bounded")
    assert member_bounded_tiling(instance_to_word(unsat)) is False
    csat = instance_for(M2, "01", 5, "corridor")
    assert member_corridor_tiling(instance_to_word(csat)) is True


def test_malformed_words_are_non_members():
    for bad in ("", "x", "a,b,c,d$e", "a,b,c,d$e$f$g$h$i$j"):
        assert member_bounded_tiling(bad) is False
        assert member_corridor_tiling(bad) is False


def test_serialize_tile_set_is_stable():
    ts = tiles_of(("w", "c", "w", "c"), ("w", "d", "w", "d"))
    assert serialize_tile_set(ts) == "w,c,w,c;w,d,w,d"


def test_colors_holding_a_delimiter_are_not_serialized():
    for color in ("c;d", "c,d", "c$d", "c#d"):
        with pytest.raises(MalformedInputError, match="cannot be serialized"):
            serialize_tile_set(tiles_of(("w", color, "w", "c")))
        ts = TileSet((TileType("w", "c", "w", "c"),), frozenset({"w", "c", color}))
        with pytest.raises(MalformedInputError) as exc:
            instance_to_word(TilingInstance("corridor", ts, 1, None, (color,), None, ("c",)))
        assert str(exc.value) == f"t: color {color!r} cannot be serialized"


def test_parse_rejects_malformed_tile_fields():
    with pytest.raises(MalformedWordError):
        parse_tiling_word("w,c,w$t$b")


# sha256 of the parse outcomes below: the decoded instance, or the
# error's type and message, so the checks keep their order and wording
PARSE_DIGEST = "f7b330bf9add80a273504eb4e93dd416d37b707de89e0e715ecd62b6bf2124f4"


def parse_outcome(word):
    try:
        inst = parse_tiling_word(word)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    ts = inst.tile_set
    return inst.variant, inst.width, ts.tiles, sorted(ts.colors), inst.l, inst.t, inst.r, inst.b


def test_word_parses_are_pinned():
    rng = random.Random(9090)
    digest = hashlib.sha256()
    parsed = 0
    for _ in range(4000):
        word = "".join(rng.choice("ab,;$#") for _ in range(rng.randint(0, 16)))
        digest.update(repr(parse_outcome(word)).encode())
    for _ in range(4000):
        chars = list(instance_to_word(random_instance(rng)))
        for _ in range(rng.randint(0, 3)):
            spot = rng.randrange(len(chars) + 1)
            edit = rng.choice("dir")
            if edit == "i":
                chars.insert(spot, rng.choice("ab,;$#w"))
            elif spot < len(chars):
                chars[spot : spot + 1] = rng.choice("ab,;$#w") if edit == "r" else ""
        out = parse_outcome("".join(chars))
        parsed += len(out) > 2
        digest.update(repr(out).encode())
    assert parsed == 1502
    assert digest.hexdigest() == PARSE_DIGEST


def word_outcome(word):
    return parse_outcome(word), member_bounded_tiling(word), member_corridor_tiling(word)


def never_words(variant, extra):
    ser = serialize_tile_set(reduce_ntm_to_tiles(NEVER))
    return list(enumerate_words(reduce_ntm_to_tiling_lang(NEVER, variant).nfa, len(ser) + extra))


@pytest.mark.parametrize("variant", ["bounded", "corridor"])
def test_cached_tile_parse_gives_the_fresh_answer(variant):
    words = never_words(variant, 20)
    assert len(words) == {"bounded": 221, "corridor": 459}[variant]
    first = [word_outcome(word) for word in words]
    for word, want in zip(words, first):
        assert word_outcome(word) == want


def test_a_width_mismatch_is_rejected_without_the_parse(monkeypatch):
    # 652 of these 680 words have colorings of different widths, as in a
    # tiling-language search; the checkers reject them before parsing
    words = never_words("bounded", 20) + never_words("corridor", 20)
    want = []
    for word in words:
        try:
            inst = parse_tiling_word(word)
        except MalformedWordError:
            want.append((False, False))
            continue
        want.append((inst.variant == "bounded" and solve_bounded_tiling(inst) is not None,
                     inst.variant == "corridor" and solve_corridor_tiling(inst) is not None))
    parsed = []
    monkeypatch.setattr(tiling, "parse_tiling_word", lambda word: parsed.append(word) or parse_tiling_word(word))
    assert [(member_bounded_tiling(w), member_corridor_tiling(w)) for w in words] == want
    assert len(parsed) == 28
    assert not any("lengths differ" in parse_outcome(word)[-1] for word in parsed)


def test_tile_parse_cache_keeps_failures_and_stays_bounded():
    words, bad_words = [], []
    for word in never_words("corridor", 16)[::8]:
        field, rest = word.split("$", 1)
        words.append(word)
        for bad in (field + ",x", field + ";", field[:field.rindex(",") + 1]):
            words.append(f"{bad}${rest}")
            bad_words.append(words[-1])
    alone = {word: word_outcome(word) for word in words}
    for word in bad_words:
        (error, message), *answers = alone[word]
        assert error == "MalformedWordError" and message.startswith("bad tile")
        assert answers == [False, False]
    for word in words + words[::-1]:
        assert word_outcome(word) == alone[word]


# ---------------------------------------------------------------------------
# JSON


def test_tile_set_json_round_trip():
    ts = tiles_of(("w", "c", "w", "c"))
    assert tile_set_from_json(tile_set_to_json(ts)) == ts


def test_instance_json_round_trip():
    for variant in ("bounded", "corridor"):
        inst = instance_for(M2, "01", 5, variant)
        assert tiling_instance_from_json(tiling_instance_to_json(inst)) == inst


def test_instance_json_names_bad_fields():
    with pytest.raises(MalformedInputError) as exc:
        tiling_instance_from_json({"variant": "bounded"})
    assert "width" in str(exc.value) or "tiles" in str(exc.value) or "colors" in str(exc.value)
    doc = tile_set_to_json(tiles_of(("w", "c", "w", "c")))
    doc["tiles"][0]["w"] = ["w"]
    with pytest.raises(MalformedInputError, match=r"tiles\[0\]"):
        tile_set_from_json(doc)
