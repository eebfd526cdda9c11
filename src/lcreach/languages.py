"""Built-in languages: recognizers plus grammar/automaton constructors.

:class:`Language` bundles a recognizer with the grammar or DFA that
describes it, where there is one; grammar files, DFA files and built-in names
all load as one.  Five languages ship with the package, addressable by name
from the CLI through :func:`builtin_language`:

``d2``
    Nonempty balanced strings over two bracket pairs ``()`` and ``[]``.
``dd2``
    A doubled variant of ``d2``: every ``(`` is immediately followed by
    ``a``, every ``)`` immediately preceded by ``b``, and similarly ``[``/``c``
    and ``]``/``d``.  Useful because direction of travel becomes visible in
    the yield of an undirected walk.
``nbc-d2``
    Block-choice strings: a bracket prefix followed by blocks written
    ``{x#y}``; a string is a member when some per-block choice concatenates
    (after the prefix) to a ``d2`` string.
``lang-a``
    Instance/certificate encodings of vertex cover: ``w1#w2#b1#...#bn``
    where ``w1 = 1^k 0^(n-k)`` is a unary budget, ``w2`` is the row-major
    upper-triangular adjacency bit-run, and the per-vertex bits ``bi`` pick a
    candidate cover.  A member iff the bits select at most ``k`` vertices
    covering every listed edge.
``abstar``
    The regular language ``(ab)*``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import BlockSyntaxError
from .grammar import Cfg, Dfa, NormalForm, cyk_member, normalize

D2_ALPHABET = frozenset("()[]")
DD2_ALPHABET = frozenset("()[]abcd")
_CLOSE_OF = {"(": ")", "[": "]"}


def d2_member(w: str) -> bool:
    """Stack matcher for nonempty balanced bracket strings over ()[].

    Symbols outside the four brackets make the answer False.
    """
    if not w:
        return False
    stack: list[str] = []
    for ch in w:
        if ch in "([":
            stack.append(ch)
        elif ch in ")]":
            if not stack or _CLOSE_OF[stack.pop()] != ch:
                return False
        else:
            return False
    return not stack


def d2_grammar() -> Cfg:
    """The five-alternative grammar for ``d2``."""
    s = "S"
    prods = (
        (s, ("(", s, ")")),
        (s, ("[", s, "]")),
        (s, (s, s)),
        (s, ("(", ")")),
        (s, ("[", "]")),
    )
    return Cfg(frozenset({s}), D2_ALPHABET, prods, s)


def dd2_grammar() -> Cfg:
    """The five-alternative grammar for ``dd2`` (eight terminals)."""
    s = "S"
    prods = (
        (s, ("(", "a", s, "b", ")")),
        (s, ("[", "c", s, "d", "]")),
        (s, (s, s)),
        (s, ("(", "a", "b", ")")),
        (s, ("[", "c", "d", "]")),
    )
    return Cfg(frozenset({s}), DD2_ALPHABET, prods, s)


@lru_cache(maxsize=None)
def _dd2_normal_form():
    return normalize(dd2_grammar())


def dd2_member(w: str) -> bool:
    """Membership in ``dd2``, decided by CYK on the normalized grammar."""
    if not w or any(ch not in DD2_ALPHABET for ch in w):
        return False
    return cyk_member(_dd2_normal_form(), w)


def abstar_dfa() -> Dfa:
    """Total three-state DFA for ``(ab)*`` (state 2 is the dead state)."""
    delta = {
        (0, "a"): 1,
        (0, "b"): 2,
        (1, "a"): 2,
        (1, "b"): 0,
        (2, "a"): 2,
        (2, "b"): 2,
    }
    return Dfa(3, frozenset("ab"), delta, 0, frozenset({0}))


def abstar_member(w: str) -> bool:
    """Membership in ``(ab)*``; symbols outside {a, b} make it False."""
    state = 0
    for ch in w:
        if ch == "a" and state == 0:
            state = 1
        elif ch == "b" and state == 1:
            state = 0
        else:
            return False
    return state == 0


# --- block-choice strings -------------------------------------------------


def parse_nbc(w: str) -> tuple[str, tuple[tuple[str, ...], ...]]:
    """Split a block-choice string into (prefix, blocks of choices).

    The strict shape is a bracket prefix followed by zero or more blocks
    ``{x#y#...}`` with nothing between or after them.  Each block holds at
    least two '#'-separated choices; choices may be empty.  Violations raise
    BlockSyntaxError.
    """
    prefix: list[str] = []
    blocks: list[tuple[str, ...]] = []
    i = 0
    n = len(w)
    while i < n and w[i] in "()[]":
        prefix.append(w[i])
        i += 1
    while i < n:
        if w[i] != "{":
            raise BlockSyntaxError(f"unexpected {w[i]!r} at position {i}: expected a block")
        i += 1
        content: list[str] = []
        while i < n and w[i] != "}":
            ch = w[i]
            if ch == "{":
                raise BlockSyntaxError(f"nested block brace at position {i}")
            if ch not in "()[]#":
                raise BlockSyntaxError(f"bad symbol {ch!r} inside a block")
            content.append(ch)
            i += 1
        if i == n:
            raise BlockSyntaxError("unclosed block brace")
        i += 1
        choices = "".join(content).split("#")
        if len(choices) < 2:
            raise BlockSyntaxError("block without '#': a block must offer a choice")
        blocks.append(tuple(choices))
    return "".join(prefix), tuple(blocks)


def nbc_d2_member(w: str) -> bool:
    """Brute-force membership: try every per-block choice combination."""
    prefix, blocks = parse_nbc(w)
    return any(
        d2_member(prefix + "".join(picks)) for picks in itertools.product(*blocks)
    )


def _nbc_member_total(w: str) -> bool:
    """Recognizer variant that treats malformed strings as non-members."""
    try:
        return nbc_d2_member(w)
    except BlockSyntaxError:
        return False


# --- vertex-cover certificate strings --------------------------------------


def adjacency_bits(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """Row-major upper-triangular adjacency bit-run for 1-based vertices.

    Bit order is (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).  This single
    routine defines the encoding for both the recognizer and the vertex-cover
    reduction, so the two cannot drift apart.
    """
    present = {(min(i, j), max(i, j)) for i, j in edges}
    return "".join(
        "1" if (i, j) in present else "0"
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    )


def encode_lang_a(n: int, k: int, edges: Iterable[tuple[int, int]], cover_bits: str) -> str:
    """Assemble the full certificate string for an instance and bit choice."""
    if len(cover_bits) != n:
        raise ValueError(f"expected {n} cover bits, got {len(cover_bits)}")
    return (
        "1" * k
        + "0" * (n - k)
        + "#"
        + adjacency_bits(n, edges)
        + "#"
        + "#".join(cover_bits)
    )


@dataclass(frozen=True)
class LangAInstanceView:
    """The decoded pieces of a well-shaped ``lang-a`` string."""

    n: int
    k: int
    adjacency: str
    cover_bits: str


def parse_lang_a(w: str) -> Optional[LangAInstanceView]:
    """Decode a ``lang-a`` string, or None when the shape is inconsistent.

    ``n`` is inferred from the first piece; the adjacency run must then hold
    exactly n(n-1)/2 bits and be followed by n single-bit pieces.
    """
    pieces = w.split("#")
    budget = pieces[0]
    n = len(budget)
    if n < 1 or len(pieces) != n + 2:
        return None
    if any(ch not in "01" for ch in budget) or "01" in budget:
        return None
    adj = pieces[1]
    if len(adj) != n * (n - 1) // 2 or any(ch not in "01" for ch in adj):
        return None
    bits = pieces[2:]
    if any(len(b) != 1 or b not in "01" for b in bits):
        return None
    return LangAInstanceView(n=n, k=budget.count("1"), adjacency=adj, cover_bits="".join(bits))


def lang_a_member(w: str) -> bool:
    """True when the chosen bits form a vertex cover within the budget.

    Malformed strings are simply non-members; this recognizer never raises.
    """
    view = parse_lang_a(w)
    if view is None:
        return False
    if view.cover_bits.count("1") > view.k:
        return False
    pos = 0
    for i in range(1, view.n):
        for j in range(i + 1, view.n + 1):
            if view.adjacency[pos] == "1":
                if view.cover_bits[i - 1] != "1" and view.cover_bits[j - 1] != "1":
                    return False
            pos += 1
    return True


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Language:
    """A language as the solve modes see it.

    ``member`` is a total recognizer: it answers False, never raises, for
    strings with foreign symbols.  ``grammar`` (for mode ``cfl``) and ``dfa``
    (for mode ``regular``) are finite descriptions, where they exist.
    ``normal_form`` is set for languages read from a grammar file only; their
    witnesses are proved by derivation rather than by ``member``.
    """

    name: str
    member: Callable[[str], bool]
    grammar: Optional[Cfg] = None
    dfa: Optional[Dfa] = None
    normal_form: Optional[NormalForm] = None


@lru_cache(maxsize=None)
def builtin_language(name: str) -> Language:
    if name == "d2":
        return Language("d2", d2_member, grammar=d2_grammar())
    if name == "dd2":
        return Language("dd2", dd2_member, grammar=dd2_grammar())
    if name == "nbc-d2":
        return Language("nbc-d2", _nbc_member_total)
    if name == "lang-a":
        return Language("lang-a", lang_a_member)
    if name == "abstar":
        return Language("abstar", abstar_member, dfa=abstar_dfa())
    raise KeyError(f"unknown builtin language {name!r}")


BUILTIN_NAMES = ("d2", "dd2", "nbc-d2", "lang-a", "abstar")
