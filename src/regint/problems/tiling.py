"""Wang-tile tilings of bounded squares and corridors.

A tile (w, n, e, s) is a unit square with west/north/east/south edge
colors; neighbouring tiles must agree on the shared edge.  Instances
preset color sequences on the region borders: all four for an n×n
bounded square, top and bottom only for a width-n corridor whose height
is existentially quantified.

Grids are indexed grid[row][column] with row 0 at the bottom; border
colorings read left to right, and the side colorings of a bounded
instance bottom to top.

A word encodes an instance as tile set and colorings joined by '$':
tiles are ';'-separated, 'w,n,e,s' each; coloring entries are
'#'-separated.  Bounded words carry l$t$r$b, corridor words t$b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ..errors import (MalformedInputError, MalformedWordError, ResourceLimitError, document, is_int, is_strings,
                      require)

_DELIMITERS = set(",;$#")
_MAX_ROWS = 200_000  # rows the corridor search may explore before it gives up

# the colorings each variant's instances and words carry, in word order;
# a bounded instance carries all four
SIDES = {"bounded": ("l", "t", "r", "b"), "corridor": ("t", "b")}


class TileType(NamedTuple):
    w: str
    n: str
    e: str
    s: str


@dataclass(frozen=True)
class TileSet:
    """Tiles plus the distinguished colors of the machine construction.

    The distinguished colors are None on tile sets reconstructed from
    words, where the encoding does not identify them; solving never
    consults them.
    """

    tiles: tuple[TileType, ...]
    colors: frozenset[str]
    white: Optional[str] = None
    blank: Optional[str] = None
    accept: Optional[str] = None

    def __post_init__(self):
        for i, tile in enumerate(self.tiles):
            for color in tile:
                if color not in self.colors:
                    raise MalformedInputError(f"tiles[{i}]: color {color!r} not declared")
        for name in ("white", "blank", "accept"):
            value = getattr(self, name)
            if value is not None and value not in self.colors:
                raise MalformedInputError(f"{name}: color {value!r} not declared")


@dataclass(frozen=True)
class TilingInstance:
    variant: str
    tile_set: TileSet
    width: int
    l: Optional[tuple[str, ...]]
    t: tuple[str, ...]
    r: Optional[tuple[str, ...]]
    b: tuple[str, ...]

    def __post_init__(self):
        if self.variant not in SIDES:
            raise MalformedInputError(f"variant: expected 'bounded' or 'corridor', got {self.variant!r}")
        if self.width < 1:
            raise MalformedInputError("width: must be at least 1")
        for name in SIDES[self.variant]:
            coloring = getattr(self, name)
            if coloring is None or len(coloring) != self.width:
                raise MalformedInputError(f"{name}: expected a coloring of length {self.width}")
            for color in coloring:
                if color not in self.tile_set.colors:
                    raise MalformedInputError(f"{name}: color {color!r} not declared")
        if self.variant == "corridor" and not (self.l is None and self.r is None):
            raise MalformedInputError("l/r: corridor instances have no side colorings")


@dataclass(frozen=True)
class Tiling:
    """grid[row][column] = tile index, row 0 at the bottom."""

    width: int
    height: int
    grid: tuple[tuple[int, ...], ...]


def validate_tiling(instance: TilingInstance, tiling: Tiling) -> list[str]:
    """All edge-matching and border violations, empty when valid.

    Kept independent of the solvers on purpose: it checks a finished
    grid directly against the matching rules and the borders.
    """
    problems = []
    tiles = instance.tile_set.tiles
    n, h = tiling.width, tiling.height
    if n != instance.width:
        problems.append(f"width {n} != instance width {instance.width}")
        return problems
    if instance.variant == "bounded" and h != instance.width:
        problems.append(f"bounded tiling must be square, got height {h}")
        return problems
    if h < 1:
        return ["height must be at least 1"]
    if len(tiling.grid) != h or any(len(row) != n for row in tiling.grid):
        problems.append("grid shape does not match width/height")
        return problems
    for j, row in enumerate(tiling.grid):
        for i, idx in enumerate(row):
            if not 0 <= idx < len(tiles):
                problems.append(f"cell ({i},{j}): tile index {idx} out of range")
                return problems
    for j in range(h):
        for i in range(n):
            tile = tiles[tiling.grid[j][i]]
            if i + 1 < n and tile.e != tiles[tiling.grid[j][i + 1]].w:
                problems.append(f"cell ({i},{j}): east {tile.e!r} != west of ({i + 1},{j})")
            if j + 1 < h and tile.n != tiles[tiling.grid[j + 1][i]].s:
                problems.append(f"cell ({i},{j}): north {tile.n!r} != south of ({i},{j + 1})")
    for i in range(n):
        south = tiles[tiling.grid[0][i]].s
        if south != instance.b[i]:
            problems.append(f"bottom border at column {i}: {south!r} != {instance.b[i]!r}")
        north = tiles[tiling.grid[h - 1][i]].n
        if north != instance.t[i]:
            problems.append(f"top border at column {i}: {north!r} != {instance.t[i]!r}")
    if instance.variant == "bounded":
        for j in range(h):
            west = tiles[tiling.grid[j][0]].w
            if west != instance.l[j]:
                problems.append(f"left border at row {j}: {west!r} != {instance.l[j]!r}")
            east = tiles[tiling.grid[j][n - 1]].e
            if east != instance.r[j]:
                problems.append(f"right border at row {j}: {east!r} != {instance.r[j]!r}")
    return problems


def _depth_first(depth: int, options: Callable[[list[int], int], Iterable[int]]) -> Iterator[list[int]]:
    """Each full choice list in depth-first order, yielded as one list
    refilled in place; options(chosen, k) lists position k's candidates
    once chosen[:k] is fixed.  Untried candidates sit on an explicit
    stack, so a deep search cannot exhaust the recursion limit."""
    chosen = [-1] * depth
    untried = [iter(options(chosen, 0))]
    while untried:
        k = len(untried) - 1
        chosen[k] = next(untried[-1], -1)
        if chosen[k] < 0:
            untried.pop()
        elif k + 1 < depth:
            untried.append(iter(options(chosen, k + 1)))
        else:
            yield chosen


def solve_bounded_tiling(instance: TilingInstance) -> Optional[Tiling]:
    """First tiling in cell-by-cell backtracking order, or None.

    Cells are filled row-major from the bottom-left, each trying tiles
    in index order; each placement is constrained by the south and west
    edges already fixed and, on the last column and row, by the r and t
    colorings.
    """
    if instance.variant != "bounded":
        raise MalformedInputError("variant: solve_bounded_tiling needs a bounded instance")
    n = instance.width
    tiles = instance.tile_set.tiles
    by_ws: dict[tuple[str, str], list[int]] = {}
    for idx, tile in enumerate(tiles):
        by_ws.setdefault((tile.w, tile.s), []).append(idx)

    def candidates(cells: list[int], cell: int) -> list[int]:
        j, i = divmod(cell, n)
        west = instance.l[j] if i == 0 else tiles[cells[cell - 1]].e
        south = instance.b[i] if j == 0 else tiles[cells[cell - n]].n
        return [idx for idx in by_ws.get((west, south), ())
                if (i < n - 1 or tiles[idx].e == instance.r[j]) and (j < n - 1 or tiles[idx].n == instance.t[i])]

    for cells in _depth_first(n * n, candidates):
        return Tiling(n, n, tuple(tuple(cells[j * n : (j + 1) * n]) for j in range(n)))
    return None


def solve_corridor_tiling(instance: TilingInstance) -> Optional[Tiling]:
    """A witness tiling of minimal height, or None.

    The height is the tiling's own `height`; like `solve_bounded_tiling`,
    the solver returns the `Tiling` alone (it once returned a
    (height, Tiling) pair).

    Breadth-first over rows: a row is any horizontally matching tile
    sequence (side edges unconstrained); its south colors must equal
    the previous row's north colors (the b coloring for the first row);
    the goal is a row whose north colors equal t.  The search state is
    the north color vector, so the level at which t first appears is
    the minimal height.  A level expands its vectors in discovery order,
    each one's rows depth-first over columns in tile index order, and
    the first row to reach a vector is kept.  Raises ResourceLimitError
    past `_MAX_ROWS` explored rows rather than answering wrongly.
    """
    if instance.variant != "corridor":
        raise MalformedInputError("variant: solve_corridor_tiling needs a corridor instance")
    n = instance.width
    tiles = instance.tile_set.tiles
    by_s: dict[str, list[int]] = {}
    by_sw: dict[tuple[str, str], list[int]] = {}
    for idx, tile in enumerate(tiles):
        by_s.setdefault(tile.s, []).append(idx)
        by_sw.setdefault((tile.s, tile.w), []).append(idx)
    budget = _MAX_ROWS

    def rows_over(south: tuple[str, ...]) -> Iterator[tuple[int, ...]]:
        nonlocal budget
        def options(row: list[int], i: int) -> Iterable[int]:
            return by_sw.get((south[i], tiles[row[i - 1]].e), ()) if i else by_s.get(south[0], ())

        for row in _depth_first(n, options):
            budget -= 1
            if budget < 0:
                raise ResourceLimitError("corridor row cap exceeded")
            yield tuple(row)

    # level 0 is b; parent: north vector -> (south vector, row) first reaching it
    parent: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[int, ...]]] = {}
    frontier = [instance.b]
    height = 0
    while frontier:
        height += 1
        nxt = []
        for vector in frontier:
            for row in rows_over(vector):
                north = tuple(tiles[idx].n for idx in row)
                if north not in parent:
                    parent[north] = (vector, row)
                    nxt.append(north)
        if instance.t in parent:
            rows, vector = [], instance.t
            for _ in range(height):
                vector, row = parent[vector]
                rows.append(row)
            return Tiling(n, height, tuple(reversed(rows)))
        frontier = nxt
    return None


# --------------------------------------------------------------------------
# Word encoding


def serialize_tile_set(tile_set: TileSet) -> str:
    """';'-joined tiles, each 'w,n,e,s', in declaration order."""
    for i, tile in enumerate(tile_set.tiles):
        for color in tile:
            if not color or set(color) & _DELIMITERS:
                raise MalformedInputError(
                    f"tiles[{i}]: color {color!r} cannot be serialized (empty or contains a delimiter)"
                )
    return ";".join(",".join(tile) for tile in tile_set.tiles)


def _parse_tiles(field: str) -> tuple[TileType, ...]:
    tiles = []
    for chunk in field.split(";"):
        parts = chunk.split(",")
        if len(parts) != 4 or any(not p for p in parts):
            raise MalformedWordError(f"bad tile {chunk!r}: expected 'w,n,e,s'")
        tiles.append(TileType(*parts))
    return tuple(tiles)


def _parse_coloring(field: str) -> tuple[str, ...]:
    entries = tuple(field.split("#"))
    if "" in entries:
        raise MalformedWordError(f"bad coloring {field!r}: empty entry")
    return entries


def parse_tiling_word(word: str) -> TilingInstance:
    """Decode a bounded (T$l$t$r$b) or corridor (T$t$b) instance word."""
    fields = word.split("$")
    variant = next((v for v, sides in SIDES.items() if len(sides) == len(fields) - 1), None)
    if variant is None:
        raise MalformedWordError(f"expected 2 or 4 '$' separators, got {len(fields) - 1}")
    tiles = _parse_tiles(fields[0])
    colorings = [_parse_coloring(f) for f in fields[1:]]
    widths = {len(c) for c in colorings}
    if len(widths) != 1:
        raise MalformedWordError(f"coloring lengths differ: {sorted(widths)}")
    colors = frozenset(c for tile in tiles for c in tile) | frozenset(e for c in colorings for e in c)
    tile_set = TileSet(tiles=tiles, colors=colors)
    named = dict.fromkeys(SIDES["bounded"]) | dict(zip(SIDES[variant], colorings))
    # the checks above leave nothing for TilingInstance to refuse: every
    # coloring is nonempty, of one width, and declares its own colors
    return TilingInstance(variant, tile_set, widths.pop(), **named)


def instance_to_word(instance: TilingInstance) -> str:
    sides = SIDES[instance.variant]
    for name in sides:
        for entry in getattr(instance, name):
            if not entry or set(entry) & _DELIMITERS:
                raise MalformedInputError(f"{name}: color {entry!r} cannot be serialized")
    fields = [serialize_tile_set(instance.tile_set)]
    fields.extend("#".join(getattr(instance, name)) for name in sides)
    return "$".join(fields)


def _instance_of(word: str, variant: str) -> Optional[TilingInstance]:
    """The `variant` instance a word encodes, or None when it encodes
    none.  A word without one coloring field per side in
    SIDES[variant], all of one width, is refused before the parse, its
    coloring split or its error message: every instance word of the
    variant passes that check."""
    fields = word.split("$")
    if len(fields) != len(SIDES[variant]) + 1 or len({f.count("#") for f in fields[1:]}) != 1:
        return None
    try:
        return parse_tiling_word(word)
    except MalformedWordError:
        return None


def member_bounded_tiling(word: str) -> bool:
    """Does the word encode a solvable bounded instance?"""
    instance = _instance_of(word, "bounded")
    return instance is not None and solve_bounded_tiling(instance) is not None


def member_corridor_tiling(word: str) -> bool:
    """Does the word encode a corridor instance tileable at some height?"""
    instance = _instance_of(word, "corridor")
    return instance is not None and solve_corridor_tiling(instance) is not None


# --------------------------------------------------------------------------
# JSON wire format


def tile_set_to_json(tile_set: TileSet) -> dict:
    return {
        "colors": sorted(tile_set.colors),
        "white": tile_set.white,
        "blank": tile_set.blank,
        "accept": tile_set.accept,
        "tiles": [{"w": t.w, "n": t.n, "e": t.e, "s": t.s} for t in tile_set.tiles],
    }


def _string_or_null(value: object) -> bool:
    return value is None or isinstance(value, str)


def tile_set_from_json(obj: object) -> TileSet:
    obj = document(obj)
    colors = require(obj, "colors", is_strings, "a list of strings")
    tiles = []
    for i, entry in enumerate(require(obj, "tiles", lambda v: isinstance(v, list), "a list")):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in "wnes"):
            raise MalformedInputError(f"tiles[{i}]: expected an object with string w/n/e/s")
        tiles.append(TileType(entry["w"], entry["n"], entry["e"], entry["s"]))
    return TileSet(
        tiles=tuple(tiles),
        colors=frozenset(colors),
        white=require(obj, "white", _string_or_null, "a string or null"),
        blank=require(obj, "blank", _string_or_null, "a string or null"),
        accept=require(obj, "accept", _string_or_null, "a string or null"),
    )


def tiling_instance_to_json(instance: TilingInstance) -> dict:
    out = tile_set_to_json(instance.tile_set)
    out["variant"] = instance.variant
    out["width"] = instance.width
    for name in SIDES["bounded"]:
        coloring = getattr(instance, name)
        out[name] = None if coloring is None else list(coloring)
    return out


def tiling_instance_from_json(obj: object) -> TilingInstance:
    tile_set = tile_set_from_json(obj)
    variant = require(obj, "variant", lambda v: isinstance(v, str) and v in SIDES, "'bounded' or 'corridor'")
    width = require(obj, "width", is_int, "an integer")
    colorings = {}
    for name in SIDES["bounded"]:
        value = require(obj, name, lambda v: v is None or is_strings(v), "a list of strings or null")
        colorings[name] = None if value is None else tuple(value)
    return TilingInstance(variant, tile_set, width, **colorings)
