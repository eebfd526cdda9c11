"""Built-in languages: online recognizers plus grammar/automaton constructors.

:class:`Language` bundles a membership test with the grammar normal form,
DFA or online :class:`Recognizer` that describes it, where there is one;
grammar files, DFA files and built-in names all load as one.  Five languages
ship with the package, addressable by name from the CLI through
:func:`builtin_language`:

``d2``
    Nonempty balanced strings over two bracket pairs ``()`` and ``[]``.
``dd2``
    A doubled variant of ``d2``: every ``(`` is immediately followed by
    ``a``, every ``)`` immediately preceded by ``b``, and similarly ``[``/``c``
    and ``]``/``d``.  Useful because direction of travel becomes visible in
    the yield of an undirected walk.  Both are stack matchers.
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
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

from .errors import BlockSyntaxError
from .grammar import Cfg, Dfa, NormalForm, normalize

D2_ALPHABET = frozenset("()[]")
DD2_ALPHABET = frozenset("()[]abcd")
_CLOSE_OF = {"(": ")", "[": "]"}


class Recognizer(NamedTuple):
    """An online recognizer that reads a string one symbol at a time.

    ``step(state, ch)`` returns the next hashable state, or None when no
    extension of the input is accepted (``start`` is None when no input at
    all is); ``accepts(state)`` decides the input read so far.  Two inputs
    in one state are accepted after the same suffixes, which is what lets a
    walk search keep one walk per state.
    """

    start: Hashable
    step: Callable[[Hashable, str], Optional[Hashable]]
    accepts: Callable[[Hashable], bool]

    def member(self, w: str) -> bool:
        """Fold ``w`` through the recognizer: accepted, and never dead on the way."""
        state = self.start
        for ch in w:
            state = self.step(state, ch)
            if state is None:
                return False
        return self.accepts(state)


def yield_recognizer(member: Callable[[str], bool]) -> Recognizer:
    """The fallback for a black-box ``member``: the state is the yield itself, never dead."""
    return Recognizer("", operator.add, member)


def dfa_recognizer(d: Dfa) -> Recognizer:
    """The states of ``d`` that can reach an accepting one; other states and missing moves are dead."""
    back: dict[int, set[int]] = {}
    for (q, _), r in d.delta.items():
        back.setdefault(r, set()).add(q)
    live, todo = set(d.accepting), list(d.accepting)
    while todo:  # a state is live when some symbol leads to a live state
        new = back.get(todo.pop(), set()) - live
        live |= new
        todo += new
    delta = {key: r for key, r in d.delta.items() if r in live}
    start = d.start if d.start in live else None
    return Recognizer(start, lambda q, ch: delta.get((q, ch)), d.accepting.__contains__)


def _d2_step(state: str, ch: str) -> Optional[str]:
    """The open brackets after a ``$``; only the empty input is ``""``."""
    if ch in ("(", "["):
        return (state or "$") + ch
    if len(state) > 1 and _CLOSE_OF[state[-1]] == ch:
        return state[:-1]
    return None


# A dd2 symbol that starts a pair: the d2 bracket it spells and the symbol owed next.
_DD2_PAIR = {"(": ("(", "a"), "[": ("[", "c"), "b": (")", ")"), "d": ("]", "]")}


def _dd2_step(state: tuple[str, str], ch: str) -> Optional[tuple[str, str]]:
    """A d2 state and the symbol owed next, if any: dd2 spells each bracket as a pair."""
    stack, owed = state
    if owed:
        return (stack, "") if ch == owed else None
    if ch not in _DD2_PAIR:
        return None
    bracket, owed = _DD2_PAIR[ch]
    stack = _d2_step(stack, bracket)
    return None if stack is None else (stack, owed)


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


def abstar_dfa() -> Dfa:
    """Two-state DFA for ``(ab)*``; every transition it lacks rejects."""
    return Dfa(2, frozenset("ab"), {(0, "a"): 1, (1, "b"): 0}, 0, frozenset({0}))


D2 = Recognizer("", _d2_step, "$".__eq__)
DD2 = Recognizer(("", ""), _dd2_step, ("$", "").__eq__)
ABSTAR = dfa_recognizer(abstar_dfa())
d2_member = D2.member
dd2_member = DD2.member
abstar_member = ABSTAR.member


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

    Bit order is (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).  The
    vertex-cover reduction and the test suite's ``lang-a`` encoder both build
    the run with this one routine, so the two cannot drift apart.
    """
    present = {(min(i, j), max(i, j)) for i, j in edges}
    return "".join(
        "1" if (i, j) in present else "0"
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    )


def _lang_a_step(state: tuple, ch: str) -> Optional[tuple]:
    """Read one symbol of a ``lang-a`` string; None once no suffix completes it.

    The state is tagged by the piece being read:

    * ``(0, n, k)`` — the budget, ``n`` symbols of which ``k`` are ones; a
      ``1`` after a ``0`` is dead.
    * ``(1, n, k, later, row, j)`` — the adjacency run.  ``later`` holds the
      masks of the later neighbours of the vertices whose row is read,
      ``row`` those of vertex ``len(later)`` so far, and ``j`` the vertex its
      next bit pairs it with (0-based).  A bit past the n(n-1)/2 is dead.
    * ``(2, t, left, forced, later)`` — the cover bits, ``t`` symbols after
      the run's ``#``.  ``later`` now has a mask for every vertex, ``left``
      is the ones the budget still allows, and ``forced`` the vertices with
      an earlier neighbour whose bit is ``0``.  A ``1`` past the budget, or
      a ``0`` for a forced vertex, is dead.

    A state holds all the prefix says about the suffixes it accepts, so two
    prefixes in one state accept the same suffixes.  Some dead prefixes stay
    live, such as a budget no cover of the run can meet.
    """
    tag = state[0]
    if tag == 2:
        _, t, left, forced, later = state
        if t & 1:  # a '#' is owed, unless the last bit is read
            return (2, t + 1, left, forced, later) if ch == "#" and t < 2 * len(later) - 1 else None
        if ch == "1":
            return (2, t + 1, left - 1, forced, later) if left else None
        vertex = t >> 1
        if ch == "0" and not forced >> vertex & 1:
            return (2, t + 1, left, forced | later[vertex], later)
        return None
    if tag == 1:
        _, n, k, later, row, j = state
        if ch == "#":  # vertex n - 1 has no later neighbour and no row
            return (2, 0, k, 0, later + (0,)) if len(later) >= n - 1 else None
        if ch not in ("0", "1") or len(later) >= n - 1:
            return None
        if ch == "1":
            row |= 1 << j
        if j + 1 < n:
            return (1, n, k, later, row, j + 1)
        return (1, n, k, later + (row,), 0, len(later) + 2)
    _, n, k = state
    if ch == "1":
        return (0, n + 1, k + 1) if k == n else None
    if ch == "0":
        return (0, n + 1, k)
    if ch == "#" and n:
        return (1, n, k, (), 0, 1)
    return None


def _lang_a_accepts(state: tuple) -> bool:
    """Every cover bit is read: the budget and the edges were checked bit by bit."""
    return state[0] == 2 and state[1] == 2 * len(state[4]) - 1


LANG_A = Recognizer((0, 0, 0), _lang_a_step, _lang_a_accepts)
lang_a_member = LANG_A.member


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Language:
    """A language as the solve modes see it.

    ``member`` is a total membership test: it answers False, never raises,
    for strings with foreign symbols.  ``normal_form`` (for mode ``cfl``,
    whose witnesses it proves by derivation) and ``dfa`` (for mode
    ``regular``) are finite descriptions, where they exist.  ``recognizer``
    reads a walk's yield one symbol at a time, for ``bounded-enum`` and
    ``dag-enum``; without one, they key walks by their yield.  Beside a ``dfa`` it is
    ``dfa_recognizer(dfa)``, which mode ``regular`` searches.
    """

    member: Callable[[str], bool]
    dfa: Optional[Dfa] = None
    normal_form: Optional[NormalForm] = None
    recognizer: Optional[Recognizer] = None


@lru_cache(maxsize=None)
def builtin_language(name: str) -> Language:
    if name == "d2":
        return Language(d2_member, normal_form=normalize(d2_grammar()), recognizer=D2)
    if name == "dd2":
        return Language(dd2_member, normal_form=normalize(dd2_grammar()), recognizer=DD2)
    if name == "nbc-d2":
        return Language(_nbc_member_total)
    if name == "lang-a":
        return Language(lang_a_member, recognizer=LANG_A)
    if name == "abstar":
        return Language(abstar_member, dfa=abstar_dfa(), recognizer=ABSTAR)
    raise KeyError(f"unknown builtin language {name!r}")


BUILTIN_NAMES = ("d2", "dd2", "nbc-d2", "lang-a", "abstar")
