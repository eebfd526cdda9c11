"""Context-free grammars, a binary normal form, CYK membership, and DFAs.

Grammars are kept in two shapes.  :class:`Cfg` is the surface form: arbitrary
productions whose right-hand sides mix terminals (single characters) and
nonterminals (identifiers).  :class:`NormalForm` is the solver form: only
``A -> B C`` and ``A -> a`` rules plus a flag recording whether the start
symbol derives the empty string.  :func:`normalize` converts the former into
the latter deterministically, keeping original nonterminal names and using a
reserved ``_`` prefix for the symbols it has to invent.

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

Transition tables may be partial in the file; the parser completes them with
an implicit dead state so that every :class:`Dfa` in memory is total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ParseError,
    SemanticError,
    UndeclaredSymbolError,
    build_object,
    content_lines,
    parse_ints,
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
        for t in self.terminals:
            if len(t) != 1:
                raise ValueError(f"terminals are single characters, got {t!r}")
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
        tokens = []
        pos = 0
        while pos < len(line):
            m = _TOKEN.match(line, pos)
            if m is None:
                break
            tokens.append(m.group(1))
            pos = m.end()
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
                if not ch.isprintable() or ch.isspace():
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

    lines: list[str] = []
    run_head: Optional[str] = None
    run_alts: list[str] = []
    for lhs, rhs in g.productions + (("", ()),):
        if lhs != run_head:
            if run_head is not None:
                lines.append(f"{run_head} -> " + " | ".join(run_alts))
            run_head, run_alts = lhs, []
        run_alts.append(" ".join(item(s) for s in rhs))
    return "\n".join(lines) + "\n"


def is_linear(g: Cfg) -> bool:
    """True when no right-hand side mentions more than one nonterminal."""
    return all(sum(s in g.nonterminals for s in rhs) <= 1 for _, rhs in g.productions)


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    taken.add(name)
    return name


def normalize(g: Cfg) -> NormalForm:
    """Deterministic conversion of ``g`` to binary normal form.

    Original nonterminal names are kept; invented symbols use the reserved
    prefix ``_`` (terminal wrappers ``_t_x``, binarization helpers ``_bN``).
    Empty-string derivations survive only as the ``start_nullable`` flag.
    Rules that can never contribute to a terminal string derivable from the
    start symbol are pruned, and the rule lists are sorted.
    """
    taken = set(g.nonterminals)
    rules: list[tuple[str, list[str]]] = [(lhs, list(rhs)) for lhs, rhs in g.productions]

    # Wrap terminals that occur in long bodies: A -> a B becomes A -> _t_a B.
    wrappers: dict[str, str] = {}

    def wrap(ch: str) -> str:
        if ch not in wrappers:
            wrappers[ch] = _fresh(f"_t_{ch}", taken)
        return wrappers[ch]

    wrapped: list[tuple[str, list[str]]] = []
    for lhs, rhs in rules:
        if len(rhs) >= 2:
            rhs = [wrap(s) if s in g.terminals else s for s in rhs]
        wrapped.append((lhs, rhs))
    for ch in sorted(wrappers):
        wrapped.append((wrappers[ch], [ch]))

    # Binarize long bodies with numbered helper symbols.
    binned: list[tuple[str, list[str]]] = []
    helper = 0
    for lhs, rhs in wrapped:
        while len(rhs) > 2:
            helper += 1
            name = _fresh(f"_b{helper}", taken)
            binned.append((lhs, [rhs[0], name]))
            lhs, rhs = name, rhs[1:]
        binned.append((lhs, rhs))

    # Nullable elimination: drop empty bodies, expand optional occurrences.
    nonterminals = taken | {lhs for lhs, _ in binned}
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in binned:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    start_nullable = g.start in nullable

    expanded: set[tuple[str, tuple[str, ...]]] = set()
    for lhs, rhs in binned:
        if len(rhs) == 1:
            expanded.add((lhs, tuple(rhs)))
        elif len(rhs) == 2:
            a, b = rhs
            expanded.add((lhs, (a, b)))
            if a in nullable:
                expanded.add((lhs, (b,)))
            if b in nullable:
                expanded.add((lhs, (a,)))

    # Unit elimination via reflexive-transitive closure of A -> B rules.
    unit_next: dict[str, set[str]] = {a: set() for a in nonterminals}
    non_unit: list[tuple[str, tuple[str, ...]]] = []
    for lhs, rhs in sorted(expanded):
        if len(rhs) == 1 and rhs[0] in nonterminals:
            unit_next[lhs].add(rhs[0])
        else:
            non_unit.append((lhs, rhs))

    def unit_closure(a: str) -> set[str]:
        seen = {a}
        stack = [a]
        while stack:
            for b in unit_next[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    by_head: dict[str, list[tuple[str, ...]]] = {}
    for lhs, rhs in non_unit:
        by_head.setdefault(lhs, []).append(rhs)
    final: set[tuple[str, tuple[str, ...]]] = set()
    for a in sorted(nonterminals):
        for b in unit_closure(a):
            for rhs in by_head.get(b, ()):
                final.add((a, rhs))

    # Keep only rules that are productive and reachable from the start.
    binary = {(lhs, rhs[0], rhs[1]) for lhs, rhs in final if len(rhs) == 2}
    terminal = {(lhs, rhs[0]) for lhs, rhs in final if len(rhs) == 1}
    productive = {a for a, _ in terminal}
    changed = True
    while changed:
        changed = False
        for a, b, c in binary:
            if a not in productive and b in productive and c in productive:
                productive.add(a)
                changed = True
    reachable = {g.start}
    changed = True
    while changed:
        changed = False
        for a, b, c in binary:
            if a in reachable and b in productive and c in productive:
                if not {b, c} <= reachable:
                    reachable.update((b, c))
                    changed = True
    useful = reachable & (productive | {g.start})
    binary = {(a, b, c) for a, b, c in binary if a in useful and b in useful and c in useful}
    terminal = {(a, ch) for a, ch in terminal if a in useful}

    return NormalForm(
        binary_rules=tuple(sorted(binary)),
        terminal_rules=tuple(sorted(terminal)),
        start_nullable=start_nullable,
        start=g.start,
        terminals=g.terminals,
    )


def cyk_derives(nf: NormalForm, w: str, root: str) -> bool:
    """True when ``root`` derives ``w`` under ``nf``.

    The empty string is tracked only for the start symbol (via
    ``start_nullable``).  Symbols outside the grammar's alphabet make the
    answer ``False`` rather than raising: no rule can ever cover them.
    """
    if not w:
        return nf.start_nullable and root == nf.start
    if any(ch not in nf.terminals for ch in w):
        return False
    n = len(w)
    by_char: dict[str, frozenset[str]] = {}
    for a, ch in nf.terminal_rules:
        by_char[ch] = by_char.get(ch, frozenset()) | {a}
    by_pair: dict[tuple[str, str], tuple[str, ...]] = {}
    for a, b, c in nf.binary_rules:
        by_pair[(b, c)] = by_pair.get((b, c), ()) + (a,)

    table: list[list[set[str]]] = [[set() for _ in range(n + 1)] for _ in range(n)]
    for i, ch in enumerate(w):
        table[i][1] = set(by_char.get(ch, ()))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[i][span]
            for split in range(1, span):
                left = table[i][split]
                right = table[i + split][span - split]
                if not left or not right:
                    continue
                for b in left:
                    for c in right:
                        for a in by_pair.get((b, c), ()):
                            cell.add(a)
    return root in table[0][n]


def cyk_member(nf: NormalForm, w: str) -> bool:
    """Membership of ``w`` in the language of ``nf``'s start symbol."""
    return cyk_derives(nf, w, nf.start)


@dataclass(frozen=True)
class Dfa:
    """A total deterministic finite automaton over single-character symbols."""

    state_count: int
    alphabet: frozenset[str]
    delta: dict[tuple[int, str], int]
    start: int
    accepting: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.state_count < 1:
            raise ValueError("a DFA needs at least one state")
        if not 0 <= self.start < self.state_count:
            raise ValueError("start state out of range")
        for q in self.accepting:
            if not 0 <= q < self.state_count:
                raise ValueError(f"accepting state {q} out of range")
        for (q, ch), q2 in self.delta.items():
            if not (0 <= q < self.state_count and 0 <= q2 < self.state_count):
                raise ValueError(f"transition ({q}, {ch!r}) -> {q2} out of range")
            if ch not in self.alphabet:
                raise ValueError(f"transition on {ch!r}, which is outside the alphabet")
        for q in range(self.state_count):
            for ch in self.alphabet:
                if (q, ch) not in self.delta:
                    raise ValueError(f"delta is not total: missing ({q}, {ch!r})")


def parse_dfa(text: str) -> Dfa:
    """Parse the DFA file format, completing partial tables with a dead state."""
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
    alphabet = frozenset(alpha)

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

    state_count = declared
    missing = [(q, ch) for q in range(declared) for ch in sorted(alphabet) if (q, ch) not in delta]
    if missing:
        dead = declared
        state_count = declared + 1
        for q, ch in missing:
            delta[(q, ch)] = dead
        for ch in sorted(alphabet):
            delta[(dead, ch)] = dead

    return build_object(Dfa, state_count, alphabet, delta, start, accepting)
