"""Bounded Post correspondence: instances, brute-force solving, and the
word encoding a₁#…#aₙ$b₁#…#bₙ$bin(K)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import MalformedInputError, MalformedWordError


@dataclass(frozen=True)
class PcpInstance:
    """Two equal-length lists of nonempty strings over a common alphabet."""

    alphabet: frozenset[str]
    list_a: tuple[str, ...]
    list_b: tuple[str, ...]

    def __post_init__(self):
        if len(self.list_a) != len(self.list_b) or not self.list_a:
            raise MalformedInputError("a/b: lists must have equal nonzero length")
        for name, strings in (("a", self.list_a), ("b", self.list_b)):
            for i, s in enumerate(strings):
                if not s:
                    raise MalformedInputError(f"{name}[{i}]: strings must be nonempty")
                for c in s:
                    if c not in self.alphabet:
                        raise MalformedInputError(f"{name}[{i}]: symbol {c!r} not in alphabet")

    @property
    def size(self) -> int:
        return len(self.list_a)


@dataclass(frozen=True)
class BpcpSolution:
    """1-based index sequence i₁..i_k (k ≤ bound) with equal concatenations."""

    indices: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if not self.indices or len(self.indices) > self.bound:
            raise MalformedInputError("indices: length must be in 1..bound")
        if any(i < 1 for i in self.indices):
            raise MalformedInputError("indices: must be positive (1-based)")


def check_bpcp(instance: PcpInstance, k: int) -> Optional[BpcpSolution]:
    """First solution of length ≤ k in length-then-lex order, or None.

    Depth-first over the prefix-consistency tree: a partial index
    sequence survives only while one concatenation is a prefix of the
    other.  Iterative deepening makes the order length-then-lex.
    """
    if k <= 0:
        return None
    pairs = list(zip(instance.list_a, instance.list_b))

    def extend(ahead: int, rem: str, i: int) -> Optional[tuple[int, str]]:
        # ahead=+1: A-concat = B-concat + rem; ahead=-1 the mirror; 0: equal.
        a, b = pairs[i]
        left = rem + a if ahead >= 0 else a
        right = b if ahead >= 0 else rem + b
        if left.startswith(right):
            surplus = left[len(right):]
            return (1 if surplus else 0), surplus
        if right.startswith(left):
            return -1, right[len(left):]
        return None

    for depth in range(1, k + 1):
        # (ahead, rem, untried indices) before each chosen position: an
        # explicit stack, so a large k cannot exhaust the recursion limit
        indices = [0] * depth
        stack = [(0, "", iter(range(len(pairs))))]
        while stack:
            ahead, rem, untried = stack[-1]
            i = next(untried, None)
            if i is None:
                stack.pop()
                continue
            nxt = extend(ahead, rem, i)
            if nxt is None:
                continue
            indices[len(stack) - 1] = i + 1
            if len(stack) < depth:
                stack.append((*nxt, iter(range(len(pairs)))))
            elif nxt[0] == 0:
                return BpcpSolution(tuple(indices), k)
    return None


def bin_encode(k: int) -> str:
    """Standard msb-first binary without leading zeros; k must be ≥ 1."""
    if k < 1:
        raise MalformedInputError("bin_encode needs k >= 1")
    return format(k, "b")


def bin_decode(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise MalformedWordError(f"not a binary numeral: {bits!r}")
    if bits[0] != "1":
        raise MalformedWordError(f"leading zero in numeral: {bits!r}")
    return int(bits, 2)


def parse_bpcp_word(word: str) -> tuple[PcpInstance, int]:
    """Split a₁#…#aₙ$b₁#…#bₙ$bin(K); raises MalformedWordError on any
    shape violation (list length mismatch, empty string, K > n, ...)."""
    parts = word.split("$")
    if len(parts) != 3:
        raise MalformedWordError("expected exactly two '$' separators")
    list_a = tuple(parts[0].split("#"))
    list_b = tuple(parts[1].split("#"))
    if len(list_a) != len(list_b):
        raise MalformedWordError(f"list lengths differ: {len(list_a)} vs {len(list_b)}")
    alphabet = frozenset("".join(list_a) + "".join(list_b))
    try:
        instance = PcpInstance(alphabet, list_a, list_b)
    except MalformedInputError as exc:
        raise MalformedWordError(str(exc)) from exc
    k = bin_decode(parts[2])
    if k > instance.size:
        raise MalformedWordError(f"bound {k} exceeds list length {instance.size}")
    return instance, k


def member_bpcp(word: str) -> bool:
    """Does the word encode a bounded PCP instance with a solution?"""
    try:
        instance, k = parse_bpcp_word(word)
    except MalformedWordError:
        return False
    return check_bpcp(instance, k) is not None


def pcp_to_json(instance: PcpInstance) -> dict:
    return {
        "alphabet": sorted(instance.alphabet),
        "a": list(instance.list_a),
        "b": list(instance.list_b),
    }


def pcp_from_json(obj: object) -> PcpInstance:
    if not isinstance(obj, dict):
        raise MalformedInputError("document: expected a JSON object")
    alphabet = obj.get("alphabet")
    if not isinstance(alphabet, list) or not all(isinstance(c, str) and len(c) == 1 for c in alphabet):
        raise MalformedInputError("alphabet: expected a list of single-character strings")
    for key in ("a", "b"):
        value = obj.get(key)
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise MalformedInputError(f"{key}: expected a list of strings")
    return PcpInstance(frozenset(alphabet), tuple(obj["a"]), tuple(obj["b"]))
