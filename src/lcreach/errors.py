"""Exception types shared across the package.

Parsers raise :class:`ParseError` (with a 1-based line number when one is
known) for malformed text and :class:`SemanticError` for well-formed text
that describes an inconsistent object.  Everything raised on purpose by this
package derives from :class:`LcreachError`, so callers can catch one type.
"""

from typing import Callable, Collection, Sequence, TypeVar

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


def ascii_only_ints(text: str) -> bool:
    """Whether bare ``int`` reads only ``-?[0-9]+`` from whitespace-free tokens of ``text``.

    It also reads ``+1``, ``1_0`` and non-ASCII digits, which no file format
    here describes.
    """
    return text.isascii() and "+" not in text and "_" not in text


def parse_ints(tokens: Sequence[str], message: str, line: int) -> list[int]:
    """``tokens``, from ``str.split``, as ASCII integers; otherwise a ParseError with ``message`` at ``line``."""
    try:
        if ascii_only_ints("".join(tokens)):
            return list(map(int, tokens))
    except ValueError:
        pass
    raise ParseError(message, line=line)


class InvariantError(ValueError):
    """A constructor's invariant check failed on item ``index`` of field ``field``."""

    def __init__(self, message: str, field: str, index: int = 0):
        super().__init__(message)
        self.field, self.index = field, index


def is_symbol(ch: str) -> bool:
    """Whether ``ch`` is one printable, non-whitespace character, as every label and terminal is."""
    return len(ch) == 1 and ch.isprintable() and not ch.isspace()


def symbol_alphabet(symbols: Collection[str]) -> frozenset[str]:
    """``symbols`` as a set, if each is a symbol (:func:`is_symbol`).

    Otherwise an InvariantError on field ``alphabet`` names the first symbol
    at fault, in the order ``symbols`` gives them.
    """
    for ch in symbols:
        if not is_symbol(ch):
            raise InvariantError(f"bad alphabet character {ch!r}", "alphabet")
    return frozenset(symbols)


def build_object(cls: Callable[..., T], *args, **lines: int) -> T:
    """``cls(*args)``, reporting the ValueError of its invariant checks as a SemanticError.

    ``lines`` maps a field to the line of its first item; item ``i`` is ``i`` lines on.
    """
    try:
        return cls(*args)
    except ValueError as exc:
        line = lines.get(getattr(exc, "field", None))
        raise SemanticError(str(exc), line=None if line is None else line + exc.index) from None


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
    """A witness that cannot be read or does not hold together.

    Raised for a witness file that is not valid JSON, not a witness file, or
    has a malformed walk; for a derivation that fails its check against the
    graph and normal form; and for a table that cannot rebuild the
    derivation of its root fact.
    """


class BlockSyntaxError(LcreachError):
    """Malformed block-choice string (unbalanced braces, missing '#', ...)."""


class EmptyChoiceError(BlockSyntaxError):
    """A block offers an empty choice, which no labeled branch can spell."""


class PortConflictError(LcreachError):
    """Two circuit consumers are wired to the same output port of a gate."""


class PathMismatchError(LcreachError):
    """A path does not fit the reduction instance it is decoded against."""


class TooLargeError(LcreachError):
    """Instance exceeds a hard size guard: a brute-force oracle's, or a reduction's output limit."""
