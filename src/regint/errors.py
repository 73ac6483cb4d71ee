"""Shared exception types, and the field checks every JSON reader uses."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional


class ReginError(Exception):
    """Base class for errors raised by this package."""


class AlphabetError(ReginError, ValueError):
    """A symbol or alphabet does not meet an operation's requirements."""


class RegexSyntaxError(ReginError, ValueError):
    """Regex text could not be parsed.  Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MalformedWordError(ReginError, ValueError):
    """A word does not follow the expected encoding shape."""


class MalformedInputError(ReginError, ValueError):
    """A JSON document or field failed validation.  Names the field."""


class ResourceLimitError(ReginError, RuntimeError):
    """A configured search cap was exceeded before an answer was reached."""


class CheckerError(ReginError, RuntimeError):
    """A membership checker raised while testing a word.  Carries the word."""

    def __init__(self, word: str, cause: BaseException):
        super().__init__(f"checker failed on word {word!r}: {cause}")
        self.word = word


def raise_first_fault(
    faults: Callable[[Iterable], Iterator[str]], transitions: frozenset, key: Optional[Callable] = None
) -> None:
    """Raise MalformedInputError naming the first fault of `faults` over
    the transitions sorted by `key`, if there is any fault.

    A frozenset's order follows the hash seed, so the unsorted pass only
    finds out whether some transition is faulty, and the reported fault
    is the first in serialized order on every run."""
    if next(faults(transitions), None):
        raise MalformedInputError(next(faults(sorted(transitions, key=key))))


def is_int(value: object) -> bool:
    """An int that is not a bool: JSON's true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_chars(value: object) -> bool:
    """A list of single-character strings."""
    return isinstance(value, list) and all(isinstance(c, str) and len(c) == 1 for c in value)


def is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def document(obj: object) -> dict:
    """The document itself, which must be a JSON object."""
    if not isinstance(obj, dict):
        raise MalformedInputError("document: expected a JSON object")
    return obj


def require(obj: dict, key: str, valid: Callable[[object], bool], expected: str):
    """obj[key], or None when it is absent, if `valid` accepts it;
    otherwise raise "<key>: expected <expected>"."""
    value = obj.get(key)
    if not valid(value):
        raise MalformedInputError(f"{key}: expected {expected}")
    return value


def entries(obj: dict, key: str, keys: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (i, entry) for the list obj[key] of objects that each carry
    every one of `keys`.

    A generator, so the caller's own checks on entry i run before the
    shape of entry i + 1 is checked: with faults in both, the first is
    the one reported."""
    for i, entry in enumerate(require(obj, key, lambda v: isinstance(v, list), "a list")):
        if not isinstance(entry, dict):
            raise MalformedInputError(f"{key}[{i}]: expected an object")
        for name in keys:
            if name not in entry:
                raise MalformedInputError(f"{key}[{i}].{name}: missing")
        yield i, entry
