"""Context-free grammars, a binary normal form, and DFAs.

Grammars are kept in two shapes.  :class:`Cfg` is the surface form: arbitrary
productions whose right-hand sides mix terminals (single printable, non-space
characters, as edge labels are) and nonterminals (identifiers).
:class:`NormalForm` is the solver form: only ``A -> B C`` and ``A -> a`` rules
plus a flag recording whether the start symbol derives the empty string.
:func:`normalize` converts the former into the latter deterministically,
keeping original nonterminal names and using a reserved ``_`` prefix for the
symbols it has to invent.  Membership in a grammar's language is a
reachability question on a chain (:func:`lcreach.solve.cfl_member`).

Grammar file format: one or more lines ``LHS -> item item | item ...`` where
terminals are quoted like ``'('`` and nonterminals are bare identifiers.  An
empty right-hand side denotes the empty string.  The start symbol is the
left-hand side of the first production.

DFA file format::

    dfa <state_count>
    <alphabet as one run of distinct characters>
    start <q0>
    accept <q> <q> ...
    <q> <symbol> <q'>        (one line per transition)

Transition tables may be partial, in the file and in memory: a missing
transition rejects, as a move into a dead state would.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import (
    InvariantError,
    ParseError,
    SemanticError,
    UndeclaredSymbolError,
    build_object,
    content_lines,
    is_symbol,
    parse_ints,
    symbol_alphabet,
)

Production = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Cfg:
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    productions: tuple[Production, ...]
    start: str

    def __post_init__(self):
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(
            self, "productions", tuple((lhs, tuple(rhs)) for lhs, rhs in self.productions)
        )
        if self.nonterminals & self.terminals:
            raise ValueError("nonterminals and terminals must be disjoint")
        for t in self.terminals:  # the characters an edge label can be
            if not is_symbol(t):
                raise ValueError(f"terminals are single printable, non-space characters, got {t!r}")
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        for lhs, rhs in self.productions:
            if lhs not in self.nonterminals:
                raise ValueError(f"production head {lhs!r} is not a nonterminal")
            for sym in rhs:
                if sym not in self.nonterminals and sym not in self.terminals:
                    raise ValueError(f"undeclared symbol {sym!r} in a production body")


@dataclass(frozen=True)
class NormalForm:
    """Binary-form grammar: ``A -> B C`` and ``A -> a`` rules only.

    ``start_nullable`` records whether the original start symbol derived the
    empty string; it is the only nullability the normal form keeps.
    ``terminals`` is the full declared alphabet of the source grammar, which
    may be wider than the set of characters the rules still mention.
    """

    binary_rules: tuple[tuple[str, str, str], ...]
    terminal_rules: tuple[tuple[str, str], ...]
    start_nullable: bool
    start: str
    terminals: frozenset[str]

    @property
    def nonterminals(self) -> frozenset[str]:
        names = {self.start}
        for a, b, c in self.binary_rules:
            names.update((a, b, c))
        names.update(a for a, _ in self.terminal_rules)
        return frozenset(names)


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(r"\s*(->|\||'[^']'|[A-Za-z][A-Za-z0-9_]*|\S)")


def parse_cfg(text: str) -> Cfg:
    """Parse the grammar file format; the first production's head is start."""
    productions: list[Production] = []
    heads: list[str] = []
    terminals: set[str] = set()
    rhs_idents: list[tuple[str, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = _TOKEN.findall(line)
        if len(tokens) < 2 or not _IDENT.fullmatch(tokens[0]) or tokens[1] != "->":
            raise ParseError("expected a production of the form 'LHS -> ...'", line=line_no)
        lhs = tokens[0]
        heads.append(lhs)
        alternatives: list[list[str]] = [[]]
        for tok in tokens[2:]:
            if tok == "|":
                alternatives.append([])
            elif tok.startswith("'") and tok.endswith("'") and len(tok) == 3:
                ch = tok[1]
                if not is_symbol(ch):
                    raise ParseError(f"bad terminal character {ch!r}", line=line_no)
                terminals.add(ch)
                alternatives[-1].append(ch)
            elif _IDENT.fullmatch(tok):
                rhs_idents.append((tok, line_no))
                alternatives[-1].append(tok)
            else:
                raise ParseError(f"unexpected token {tok!r}", line=line_no)
        for alt in alternatives:
            productions.append((lhs, tuple(alt)))

    if not productions:
        raise ParseError("a grammar needs at least one production", line=1)
    nonterminals = set(heads)
    for ident, line_no in rhs_idents:
        if ident not in nonterminals:
            raise UndeclaredSymbolError(
                f"nonterminal {ident!r} is used but never defined", line=line_no
            )
    return build_object(Cfg, frozenset(nonterminals), frozenset(terminals), tuple(productions), heads[0])


def render_cfg(g: Cfg) -> str:
    """Render ``g`` so that ``parse_cfg(render_cfg(g)) == g``.

    Consecutive productions that share a head are grouped with ``|`` so the
    original production order is preserved.
    """

    def item(sym: str) -> str:
        return f"'{sym}'" if sym in g.terminals else sym

    lines = [
        f"{head} -> " + " | ".join(" ".join(map(item, rhs)) for _, rhs in run)
        for head, run in itertools.groupby(g.productions, operator.itemgetter(0))
    ]
    return "\n".join(lines) + "\n"


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    taken.add(name)
    return name


def _least_fixpoint(seed: Iterable[str], rules: Collection[tuple[str, Sequence[str]]]) -> set[str]:
    """The least superset of ``seed`` closed under ``rules``.

    A rule ``(head, body)`` puts ``head`` in the set once all of ``body`` is in it.
    """
    found = set(seed)
    while True:
        new = {head for head, body in rules if head not in found and found.issuperset(body)}
        if not new:
            return found
        found |= new


def normalize(g: Cfg) -> NormalForm:
    """Deterministic conversion of ``g`` to binary normal form.

    Original nonterminal names are kept; invented symbols use the reserved
    prefix ``_`` (terminal wrappers ``_t_x``, binarization helpers ``_bN``).
    Empty-string derivations survive only as the ``start_nullable`` flag.
    Rules that can never contribute to a terminal string derivable from the
    start symbol are pruned, and the rule lists are sorted.
    """
    taken = set(g.nonterminals)
    wrappers: dict[str, str] = {}

    def wrap(ch: str) -> str:
        if ch not in wrappers:
            wrappers[ch] = _fresh(f"_t_{ch}", taken)
        return wrappers[ch]

    # Wrap terminals in long bodies (A -> a B becomes A -> _t_a B), then split
    # bodies longer than two with numbered helpers (A -> B C D: A -> B _b1, _b1 -> C D).
    rules: list[tuple[str, tuple[str, ...]]] = []
    helpers = 0
    for lhs, rhs in g.productions:
        if len(rhs) >= 2:
            rhs = tuple(wrap(s) if s in g.terminals else s for s in rhs)
        while len(rhs) > 2:
            helpers += 1
            name = _fresh(f"_b{helpers}", taken)
            rules.append((lhs, (rhs[0], name)))
            lhs, rhs = name, rhs[1:]
        rules.append((lhs, rhs))
    rules += [(wrappers[ch], (ch,)) for ch in sorted(wrappers)]

    # Drop empty bodies; a pair with a nullable half also stands for its other half.
    nullable = _least_fixpoint((), rules)
    bodies = {(lhs, rhs) for lhs, rhs in rules if rhs}
    bodies |= {
        (lhs, (rhs[1 - i],)) for lhs, rhs in rules if len(rhs) == 2 for i in (0, 1) if rhs[i] in nullable
    }

    # Drop unit rules A -> B: a rule B -> body gives A -> body to each A that derives B by units.
    units = {(lhs, rhs) for lhs, rhs in bodies if len(rhs) == 1 and rhs[0] in taken}
    above = {b: _least_fixpoint((b,), units) for _, (b,) in units}
    final = {(a, rhs) for b, rhs in bodies - units for a in above.get(b, (b,))}

    # Keep only rules whose symbols the start reaches through pairs of productive
    # halves; so every symbol kept, but perhaps the start, is productive.
    binary = {(a, *rhs) for a, rhs in final if len(rhs) == 2}
    terminal = {(a, rhs[0]) for a, rhs in final if len(rhs) == 1}
    productive = _least_fixpoint({a for a, _ in terminal}, [(a, (b, c)) for a, b, c in binary])
    halves = [(x, (a,)) for a, b, c in binary if b in productive and c in productive for x in (b, c)]
    reachable = _least_fixpoint((g.start,), halves)
    return NormalForm(
        binary_rules=tuple(sorted(r for r in binary if reachable.issuperset(r))),
        terminal_rules=tuple(sorted(r for r in terminal if r[0] in reachable)),
        start_nullable=g.start in nullable,
        start=g.start,
        terminals=g.terminals,
    )


@dataclass(frozen=True)
class Dfa:
    """A deterministic finite automaton over single-character symbols.

    ``delta`` may be partial: a missing transition rejects the input.
    """

    state_count: int
    alphabet: frozenset[str]
    delta: dict[tuple[int, str], int]
    start: int
    accepting: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.state_count < 1:
            raise ValueError("a DFA needs at least one state")
        object.__setattr__(self, "alphabet", symbol_alphabet(self.alphabet))
        if not 0 <= self.start < self.state_count:
            raise InvariantError("start state out of range", "start")
        for q in self.accepting:
            if not 0 <= q < self.state_count:
                raise InvariantError(f"accepting state {q} out of range", "accepting")
        for (q, ch), q2 in self.delta.items():
            if not (0 <= q < self.state_count and 0 <= q2 < self.state_count):
                raise ValueError(f"transition ({q}, {ch!r}) -> {q2} out of range")
            if ch not in self.alphabet:
                raise ValueError(f"transition on {ch!r}, which is outside the alphabet")


def parse_dfa(text: str) -> Dfa:
    """Parse the DFA file format; a transition the file leaves out rejects."""
    lines = content_lines(text)
    if len(lines) < 4:
        raise ParseError("expected 'dfa <n>', alphabet, start, and accept lines", line=max(1, len(lines)))

    header = lines[0].split()
    if len(header) != 2 or header[0] != "dfa":
        raise ParseError("header must be 'dfa <state_count>'", line=1)
    (declared,) = parse_ints(header[1:], "state count must be an integer", 1)
    if declared < 1:
        raise SemanticError("a DFA needs at least one state", line=1)

    alpha = lines[1].strip()
    if len(set(alpha)) != len(alpha):
        raise ParseError("alphabet characters must be distinct", line=2)
    alphabet = frozenset(alpha)  # checked by Dfa, at line 2

    start_tokens = lines[2].split()
    if len(start_tokens) != 2 or start_tokens[0] != "start":
        raise ParseError("third line must be 'start <state>'", line=3)
    accept_tokens = lines[3].split()
    if not accept_tokens or accept_tokens[0] != "accept":
        raise ParseError("fourth line must be 'accept <state> ...'", line=4)
    (start,) = parse_ints(start_tokens[1:], "states must be integers", 3)
    accepting = frozenset(parse_ints(accept_tokens[1:], "states must be integers", 4))

    delta: dict[tuple[int, str], int] = {}
    for line_no, raw in enumerate(lines[4:], start=5):
        tokens = raw.split()
        if len(tokens) != 3:
            raise ParseError("transition line must be '<q> <symbol> <q2>'", line=line_no)
        q, q2 = parse_ints((tokens[0], tokens[2]), "states must be integers", line_no)
        ch = tokens[1]
        if len(ch) != 1 or ch not in alphabet:
            raise SemanticError(f"transition symbol {ch!r} is not in the alphabet", line=line_no)
        if not (0 <= q < declared and 0 <= q2 < declared):
            raise SemanticError("transition state out of range", line=line_no)
        if (q, ch) in delta:
            raise SemanticError(f"duplicate transition for state {q} on {ch!r}", line=line_no)
        delta[(q, ch)] = q2

    return build_object(Dfa, declared, alpha, delta, start, accepting, alphabet=2, start=3, accepting=4)
