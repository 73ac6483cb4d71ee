"""Shared exception types."""

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
