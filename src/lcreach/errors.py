"""Exception types shared across the package.

Parsers raise :class:`ParseError` (with a 1-based line number when one is
known) for malformed text and :class:`SemanticError` for well-formed text
that describes an inconsistent object.  Everything raised on purpose by this
package derives from :class:`LcreachError`, so callers can catch one type.
"""

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


class LcreachError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LcreachError):
    """Malformed input text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SemanticError(ParseError):
    """Syntactically valid input describing an inconsistent object."""


# The line-based file parsers share these three steps.


def content_lines(text: str) -> list[str]:
    """The lines of ``text``, without trailing blank lines."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def parse_ints(tokens: Iterable[str], message: str, line: int) -> list[int]:
    """``tokens`` as integers; otherwise a ParseError with ``message`` at ``line``."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(message, line=line) from None


def build_object(cls: Callable[..., T], *args) -> T:
    """``cls(*args)``, reporting the ValueError of its invariant checks as a SemanticError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


class UndeclaredSymbolError(SemanticError):
    """A grammar rule mentions a nonterminal that no production defines."""


class KindError(LcreachError):
    """Operation applied to a graph of the wrong kind (directed/undirected)."""


class InvalidPathError(LcreachError):
    """A path object does not describe a connected walk in its graph."""


class ForeignSymbolError(LcreachError):
    """A string contains a symbol outside the relevant alphabet."""


class AlphabetMismatchError(LcreachError):
    """Graph labels are not covered by the language's alphabet."""


class NotADagError(LcreachError):
    """A DAG-only solver was handed a cyclic graph."""


class NotATreeError(LcreachError):
    """A tree-only solver was handed a graph that is not a tree."""


class NoRespectingPathError(LcreachError):
    """The unique tree path between the endpoints violates edge directions."""


class CorruptWitnessError(LcreachError):
    """A witness references derivation facts missing from its table."""


class BlockSyntaxError(LcreachError):
    """Malformed block-choice string (unbalanced braces, missing '#', ...)."""


class EmptyChoiceError(BlockSyntaxError):
    """A block offers an empty choice, which no labeled branch can spell."""


class PortConflictError(LcreachError):
    """Two circuit consumers are wired to the same output port of a gate."""


class PathMismatchError(LcreachError):
    """A path does not fit the reduction instance it is decoded against."""


class TooLargeError(LcreachError):
    """Instance exceeds the hard size guard of a brute-force oracle."""
