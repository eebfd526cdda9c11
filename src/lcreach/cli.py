"""Command-line front end.

Subcommands:

* ``solve`` — constrained reachability on a graph file, in one of five modes
  (``cfl`` by default, or ``regular``, ``dag-enum``, ``bounded-enum``,
  ``tree``), against a grammar file, a DFA file, or a built-in language.
* ``member`` — bare string membership against the same language sources.
* ``reduce`` — run one of the instance transformations on an input file.
* ``gen`` — seeded random instances (graphs, DAGs, circuits, vertex cover,
  block-choice strings).
* ``verify`` — replay a witness file against a graph and language.

Exit codes: 0 reachable/member/success, 1 unreachable/non-member/rejected,
2 usage or format errors, 3 bounded search exhausted without an answer,
4 internal error (a bug, never an answer).

Reports are deterministic byte-for-byte for identical inputs; wall-clock
timing is only included under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from . import generators
from .errors import CorruptWitnessError, LcreachError, NoRespectingPathError, ParseError
from .graph import (
    DIRECTED,
    UNDIRECTED,
    LabeledGraph,
    Path,
    Step,
    parse_graph,
    path_endpoints,
    path_yield,
    render_graph,
)
from .grammar import normalize, parse_cfg, parse_dfa
from .languages import BUILTIN_NAMES, Language, builtin_language, dfa_recognizer, yield_recognizer
from .reductions import (
    d2reach_to_dd2_ureach,
    mcvp_to_d2_reach,
    nbc_to_d2_dagreach,
    parse_circuit,
    parse_vc,
    reach_to_abstar_ureach,
    render_circuit,
    render_vc,
    vc_to_a_dagreach,
)
from .solve import (
    ExpansionLimitExceeded,
    bounded_enum_reach,
    # grammar-file membership keeps the name that perfbench/tracing.py rebinds
    cfl_member as cyk_member,
    cfl_reach,
    check_derivation,
    dag_enum_reach,
    expand_witness,
    regular_reach,
    tree_reach,
)

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4

WITNESS_FORMAT = "lcreach-witness"


# --- report plumbing ---------------------------------------------------------


@dataclass
class SolveReport:
    decision: str
    yield_: Optional[str] = None
    witness: Optional[dict] = None  # {start, steps, rendered}, as to_json writes it
    notes: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def human(self) -> str:
        lines = [f"decision: {self.decision}"]
        if self.yield_ is not None:
            lines.append(f"yield: {self.yield_}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness['rendered']}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for key in sorted(self.stats):
            lines.append(f"{key}: {self.stats[key]}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "decision": self.decision,
            "yield": self.yield_,
            "witness": self.witness,
            "notes": self.notes,
            "stats": self.stats,
        }
        return json.dumps(payload, sort_keys=True)


def _emit(report: SolveReport, as_json: bool) -> None:
    print(report.to_json() if as_json else report.human())


def _render_path(g: LabeledGraph, p: Path) -> str:
    parts = [str(p.start)]
    for edge, reverse in p.steps:
        parts.append(f"--{g.labels[edge]}--> {(g.us if reverse else g.vs)[edge]}")
    return " ".join(parts)


def _write_witness_file(path: str, p: Path, derivation: Optional[list] = None) -> None:
    """Version 1 holds the walk; version 2 adds the derivation that proves it."""
    payload = {
        "format": WITNESS_FORMAT,
        "version": 1,
        "start": p.start,
        "steps": [[s.edge, bool(s.reverse)] for s in p.steps],
    }
    if derivation is not None:
        payload.update(version=2, derivation=derivation)
    _write(path, json.dumps(payload, sort_keys=True) + "\n")


def _load_witness_file(path: str) -> tuple[Path, object]:
    """The walk, plus the unchecked derivation of a version 2 file (else None)."""
    try:
        payload = json.loads(_read(path))
    except (OSError, ParseError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CorruptWitnessError(f"cannot load witness file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != WITNESS_FORMAT:
        raise CorruptWitnessError("not a witness file")
    try:
        start, steps = payload["start"], tuple(Step(e, r) for e, r in payload["steps"])
        if type(start) is not int or not all(type(e) is int and type(r) is bool for e, r in steps):
            raise TypeError("start and edge indices must be integers, reverse flags booleans")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptWitnessError(f"malformed witness file: {exc}") from None
    derivation = payload.get("derivation") if payload.get("version") == 2 else None
    return Path(start, steps), derivation


def _attach_path(report: SolveReport, g: LabeledGraph, p: Path) -> None:
    report.witness = {
        "start": p.start,
        "steps": [[s.edge, int(s.reverse)] for s in p.steps],
        "rendered": _render_path(g, p),
    }


# --- language sources --------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_language(args: argparse.Namespace) -> Language:
    if args.grammar is not None:
        nf = normalize(parse_cfg(_read(args.grammar)))
        return Language(lambda w: cyk_member(nf, w), normal_form=nf)
    if args.dfa is not None:
        d = parse_dfa(_read(args.dfa))
        rec = dfa_recognizer(d)
        return Language(rec.member, dfa=d, recognizer=rec)
    return builtin_language(args.builtin)


def _source(args: argparse.Namespace) -> str:
    """The language source as the command line named it, e.g. ``builtin:d2``."""
    flag = "grammar" if args.grammar is not None else "dfa" if args.dfa is not None else "builtin"
    return f"{flag}:{getattr(args, flag)}"


def _check_walk(g: LabeledGraph, lang: Language, p: Path, derivation) -> tuple[Optional[str], Optional[str]]:
    """Why ``p`` is no witness (None if it is one), and its yield if it runs source to target.

    The endpoints come first: a derivation is compared with the steps only.
    Then ``derivation``, when not None, must derive exactly those steps
    under the normal form; without one, ``member`` must accept the yield.
    """
    try:
        text = path_yield(g, p)
    except LcreachError as exc:
        return f"path does not fit the graph: {exc}", None
    if path_endpoints(g, p) != (g.source, g.target):
        return "path endpoints are not the graph's source and target", None
    if derivation is None:
        return (None if lang.member(text) else "path yield is not in the language"), text
    try:
        proved = check_derivation(g, lang.normal_form, derivation, step_limit=len(p)) == p.steps
    except CorruptWitnessError as exc:
        return f"derivation fails its check: {exc}", text
    return (None if proved else "derivation derives other steps"), text


def _add_language_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--grammar", metavar="FILE", help="context-free grammar file")
    group.add_argument("--dfa", metavar="FILE", help="DFA file")
    group.add_argument("--builtin", choices=BUILTIN_NAMES, help="shipped recognizer")


# --- solve -------------------------------------------------------------------


# Each mode's runner hands the report's stats to its solver, which counts
# into them, and returns the walk it found (None when it found none, or
# found one too long to expand) plus, in mode cfl, the derivation that
# proves it.  A runner that decides something other than "unreachable" on
# a None walk says so in the report.
Found = tuple[Optional[Path], Optional[list]]


def _run_cfl(g: LabeledGraph, lang: Language, args: argparse.Namespace, report: SolveReport) -> Found:
    if lang.normal_form is None:
        raise _Usage(f"mode cfl needs a grammar; {_source(args)} does not provide one")
    nodes = cfl_reach(g, lang.normal_form, stats=report.stats)
    if nodes is None:
        return None, None
    expanded = expand_witness(nodes, step_limit=args.expand_limit)
    if isinstance(expanded, ExpansionLimitExceeded):
        report.decision = "reachable"
        report.notes.append(
            "witness expansion skipped: "
            f"{expanded.expanded_steps} steps exceed the limit of {args.expand_limit}; "
            f"shared derivation has {len(nodes)} facts"
        )
        return None, None
    return expanded, nodes


def _run_regular(g: LabeledGraph, lang: Language, args: argparse.Namespace, report: SolveReport) -> Found:
    if lang.dfa is None:
        raise _Usage(f"mode regular needs a DFA; {_source(args)} does not provide one")
    return regular_reach(g, lang.dfa, stats=report.stats, rec=lang.recognizer), None


def _run_dag_enum(g: LabeledGraph, lang: Language, args: argparse.Namespace, report: SolveReport) -> Found:
    return dag_enum_reach(g, lang.recognizer or yield_recognizer(lang.member), stats=report.stats), None


def _run_bounded_enum(g: LabeledGraph, lang: Language, args: argparse.Namespace, report: SolveReport) -> Found:
    rec = lang.recognizer or yield_recognizer(lang.member)
    found = bounded_enum_reach(g, rec, args.max_len, stats=report.stats)
    if found is None:
        report.decision = "unknown-bounded"
        report.notes.append(f"no accepted walk of length <= {args.max_len}")
    return found, None


def _run_tree(g: LabeledGraph, lang: Language, args: argparse.Namespace, report: SolveReport) -> Found:
    try:
        found = tree_reach(g, lang.member)
    except NoRespectingPathError:
        found = None
        report.notes.append("the unique tree path violates an edge direction")
    return found, None


_RUNNERS = {
    "cfl": _run_cfl,
    "regular": _run_regular,
    "dag-enum": _run_dag_enum,
    "bounded-enum": _run_bounded_enum,
    "tree": _run_tree,
}
_EXIT_CODES = {"reachable": EXIT_REACHABLE, "unreachable": EXIT_UNREACHABLE, "unknown-bounded": EXIT_UNKNOWN}


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.max_len is not None and args.mode != "bounded-enum":  # usage errors before any file is read
        raise _Usage("--max-len only applies to bounded-enum")
    if args.mode == "bounded-enum" and args.max_len is None:
        raise _Usage("mode bounded-enum requires --max-len")
    if args.mode == "bounded-enum" and args.max_len < 0:
        raise _Usage("--max-len must be nonnegative")
    if args.expand_limit < 0:
        raise _Usage("--expand-limit must be nonnegative")
    g = parse_graph(_read(args.graph))
    lang = _load_language(args)
    report = SolveReport(decision="unreachable")
    started = time.perf_counter()
    found, derivation = _RUNNERS[args.mode](g, lang, args, report)
    if found is not None:
        note, text = _check_walk(g, lang, found, derivation)
        if note is not None:
            raise RuntimeError(f"internal check failed: solver returned an invalid witness: {note}")
        report.decision, report.yield_ = "reachable", text
        _attach_path(report, g, found)
        if args.witness_out:
            _write_witness_file(args.witness_out, found, derivation)
    if args.timings:
        report.stats["wall_time"] = round(time.perf_counter() - started, 6)
    _emit(report, args.json)
    return _EXIT_CODES[report.decision]


# --- member ------------------------------------------------------------------


def _cmd_member(args: argparse.Namespace) -> int:
    lang = _load_language(args)
    started = time.perf_counter()
    verdict = lang.member(args.string)
    report = SolveReport(decision="member" if verdict else "non-member")
    if args.timings:
        report.stats["wall_time"] = round(time.perf_counter() - started, 6)
    _emit(report, args.json)
    return EXIT_REACHABLE if verdict else EXIT_UNREACHABLE


# --- reduce ------------------------------------------------------------------


# Each reduction reads its input file's text and returns the reduced graph.
_REDUCTIONS = {
    "reach-to-abstar": lambda text: reach_to_abstar_ureach(parse_graph(text)),
    "nbc-to-d2": lambda text: nbc_to_d2_dagreach(text.strip("\n")),
    "mcvp-to-d2": lambda text: mcvp_to_d2_reach(parse_circuit(text)),
    "d2-to-dd2": lambda text: d2reach_to_dd2_ureach(parse_graph(text)),
    "vc-to-a": lambda text: vc_to_a_dagreach(parse_vc(text)),
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    out = _REDUCTIONS[args.kind](_read(args.infile))
    _write(args.outfile, render_graph(out))
    summary = {"kind": args.kind, "vertices": out.vertex_count, "edges": len(out.us)}
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"reduced: {args.kind}; vertices: {out.vertex_count}; edges: {len(out.us)}")
    return EXIT_REACHABLE


# --- gen ---------------------------------------------------------------------


# Each generator reads the seeded random source and the options, and returns the file's text.
_GENERATORS = {
    "graph": lambda rng, a: render_graph(
        generators.random_graph(rng, a.n, a.m, a.alphabet, kind=a.graph_kind, self_loops=a.self_loops)
    ),
    "dag": lambda rng, a: render_graph(generators.random_dag(rng, a.n, a.m, a.alphabet)),
    "circuit": lambda rng, a: render_circuit(generators.random_circuit(rng, a.inputs, a.gates)),
    "vc": lambda rng, a: render_vc(generators.random_vc_instance(rng, a.n, a.m, a.k)),
    "nbc": lambda rng, a: generators.random_nbc_string(rng, a.blocks) + "\n",
}


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    try:  # the generators reject impossible sizes with ValueError
        text = _GENERATORS[args.kind](random.Random(args.seed), args)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_REACHABLE


# --- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    lang = _load_language(args)
    witness, derivation = _load_witness_file(args.witness)
    derivation = derivation if lang.normal_form is not None else None
    note, text = _check_walk(g, lang, witness, derivation)
    if note is not None and derivation is not None:  # a file's derivation can only spare the membership check
        note, text = _check_walk(g, lang, witness, None)
    report = SolveReport(decision="rejected", yield_=text)
    if note is None:
        report.decision = "verified"
        _attach_path(report, g, witness)
    else:
        report.notes.append(note)
    _emit(report, args.json)
    return EXIT_REACHABLE if note is None else EXIT_UNREACHABLE


# --- parser ------------------------------------------------------------------


class _Usage(Exception):
    """Subcommand-level usage error (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcreach", description="language-constrained reachability toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide constrained reachability on a graph file")
    solve.add_argument("--graph", required=True, metavar="FILE")
    _add_language_flags(solve)
    solve.add_argument(
        "--mode",
        choices=("cfl", "regular", "dag-enum", "bounded-enum", "tree"),
        default="cfl",
    )
    solve.add_argument("--max-len", type=int, default=None, metavar="N")
    solve.add_argument("--expand-limit", type=int, default=10**6, metavar="N")
    solve.add_argument("--witness-out", metavar="FILE")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--timings", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    member = sub.add_parser("member", help="string membership for a language source")
    _add_language_flags(member)
    member.add_argument("--string", required=True)
    member.add_argument("--json", action="store_true")
    member.add_argument("--timings", action="store_true")
    member.set_defaults(func=_cmd_member)

    reduce_ = sub.add_parser("reduce", help="transform an instance into a reachability instance")
    reduce_.add_argument("kind", choices=tuple(_REDUCTIONS))
    reduce_.add_argument("--in", dest="infile", required=True, metavar="FILE")
    reduce_.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    reduce_.add_argument("--json", action="store_true")
    reduce_.set_defaults(func=_cmd_reduce)

    gen = sub.add_parser("gen", help="seeded random instances")
    gen.add_argument("kind", choices=tuple(_GENERATORS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--m", type=int, default=12)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--alphabet", default="()[]")
    gen.add_argument("--kind", dest="graph_kind", choices=(DIRECTED, UNDIRECTED), default=DIRECTED)
    gen.add_argument("--self-loops", action="store_true")
    gen.add_argument("--inputs", type=int, default=4)
    gen.add_argument("--gates", type=int, default=8)
    gen.add_argument("--blocks", type=int, default=3)
    gen.add_argument("--out", metavar="FILE")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="replay a witness file against an instance")
    verify.add_argument("--graph", required=True, metavar="FILE")
    _add_language_flags(verify)
    verify.add_argument("--witness", required=True, metavar="FILE")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it unchanged."""
    return build_parser()


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_Usage, LcreachError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as an answer
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    if hasattr(sys.stdout, "reconfigure"):  # escape what its encoding cannot hold, as Python's own stderr does
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
