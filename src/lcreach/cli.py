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
2 usage or format errors, 3 bounded search exhausted without an answer.

Reports are deterministic byte-for-byte for identical inputs; wall-clock
timing is only included under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import generators
from .errors import (
    CorruptWitnessError,
    ForeignSymbolError,
    LcreachError,
    NoRespectingPathError,
)
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
from .grammar import (
    Cfg,
    Dfa,
    NormalForm,
    cyk_member,
    dfa_accepts,
    normalize,
    parse_cfg,
    parse_dfa,
)
from .languages import BUILTIN_NAMES, builtin_language
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
    cfl_reach,
    check_derivation,
    dag_enum_reach,
    expand_witness,
    regular_reach,
    tree_reach,
    witness_derivation,
)

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

WITNESS_FORMAT = "lcreach-witness"


# --- report plumbing ---------------------------------------------------------


@dataclass
class SolveReport:
    decision: str
    yield_: Optional[str] = None
    witness_rendered: Optional[str] = None
    witness_steps: Optional[list[list[int]]] = None
    witness_start: Optional[int] = None
    notes: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def human(self) -> str:
        lines = [f"decision: {self.decision}"]
        if self.yield_ is not None:
            lines.append(f"yield: {self.yield_}")
        if self.witness_rendered is not None:
            lines.append(f"witness: {self.witness_rendered}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for key in sorted(self.stats):
            lines.append(f"{key}: {self.stats[key]}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "decision": self.decision,
            "yield": self.yield_,
            "witness": None,
            "notes": self.notes,
            "stats": self.stats,
        }
        if self.witness_steps is not None:
            payload["witness"] = {
                "start": self.witness_start,
                "steps": self.witness_steps,
                "rendered": self.witness_rendered,
            }
        return json.dumps(payload, sort_keys=True)


def _emit(report: SolveReport, as_json: bool) -> None:
    print(report.to_json() if as_json else report.human())


def _render_path(g: LabeledGraph, p: Path) -> str:
    parts = [str(p.start)]
    for step in p.steps:
        e = g.edges[step.edge]
        head = e.u if step.reverse else e.v
        parts.append(f"--{e.label}--> {head}")
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
        payload["version"] = 2
        payload["derivation"] = derivation
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _load_witness_file(path: str) -> tuple[Path, object]:
    """The walk, plus the unchecked derivation of a version 2 file (else None)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptWitnessError(f"cannot load witness file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != WITNESS_FORMAT:
        raise CorruptWitnessError("not a witness file")
    try:
        start = int(payload["start"])
        steps = tuple(Step(int(e), bool(r)) for e, r in payload["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptWitnessError(f"malformed witness file: {exc}") from None
    derivation = payload.get("derivation") if payload.get("version") == 2 else None
    return Path(start, steps), derivation


def _attach_path(report: SolveReport, g: LabeledGraph, p: Path) -> None:
    report.yield_ = path_yield(g, p)
    report.witness_rendered = _render_path(g, p)
    report.witness_start = p.start
    report.witness_steps = [[s.edge, int(s.reverse)] for s in p.steps]


# --- language sources --------------------------------------------------------


@dataclass
class LanguageSource:
    """A language plus the routines the CLI needs from it."""

    label: str
    member: Callable[[str], bool]
    grammar: Optional[Cfg] = None
    dfa: Optional[Dfa] = None
    normal_form: Optional[NormalForm] = None  # set for grammar files only


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _total_dfa_member(d: Dfa) -> Callable[[str], bool]:
    def member(w: str) -> bool:
        try:
            return dfa_accepts(d, w)
        except ForeignSymbolError:
            return False

    return member


def _load_language(args: argparse.Namespace) -> LanguageSource:
    if args.grammar is not None:
        cfg = parse_cfg(_read(args.grammar))
        nf = normalize(cfg)
        return LanguageSource(
            label=f"grammar:{args.grammar}",
            member=lambda w: cyk_member(nf, w),
            grammar=cfg,
            normal_form=nf,
        )
    if args.dfa is not None:
        d = parse_dfa(_read(args.dfa))
        return LanguageSource(label=f"dfa:{args.dfa}", member=_total_dfa_member(d), dfa=d)
    lang = builtin_language(args.builtin)
    return LanguageSource(
        label=f"builtin:{lang.name}", member=lang.member, grammar=lang.grammar, dfa=lang.dfa
    )


def _derivation_proves(g: LabeledGraph, lang: LanguageSource, p: Path, derivation) -> bool:
    """True when ``derivation`` derives exactly ``p`` under the grammar file.

    Any other outcome, including a malformed derivation, leaves the verdict
    to the membership check, so a derivation can only spare that check.
    """
    if derivation is None or lang.normal_form is None:
        return False
    try:
        return check_derivation(g, lang.normal_form, derivation, step_limit=len(p)) == p.steps
    except CorruptWitnessError:
        return False


def _add_language_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--grammar", metavar="FILE", help="context-free grammar file")
    group.add_argument("--dfa", metavar="FILE", help="DFA file")
    group.add_argument("--builtin", choices=BUILTIN_NAMES, help="shipped recognizer")


# --- solve -------------------------------------------------------------------


def _solve_cfl(g: LabeledGraph, lang: LanguageSource, args: argparse.Namespace, report: SolveReport) -> int:
    if lang.grammar is None:
        raise _Usage(f"mode cfl needs a grammar; {lang.label} does not provide one")
    stats: dict = {}
    witness = cfl_reach(g, lang.normal_form or lang.grammar, stats=stats)
    report.stats["facts_count"] = stats["facts"]
    report.stats["worklist_pops"] = stats["pops"]
    if witness is None:
        report.decision = "unreachable"
        return EXIT_UNREACHABLE
    report.decision = "reachable"
    expanded = expand_witness(witness, step_limit=args.expand_limit)
    if isinstance(expanded, ExpansionLimitExceeded):
        report.notes.append(
            "witness expansion skipped: "
            f"{expanded.expanded_steps} steps exceed the limit of {args.expand_limit}; "
            f"shared derivation has {expanded.shared_size} facts"
        )
        return EXIT_REACHABLE
    derivation = None
    if lang.normal_form is not None:
        # A grammar file's derivation proves membership in linear time.
        derivation = witness_derivation(witness)
        proved = _derivation_proves(g, lang, expanded, derivation)
    else:
        proved = lang.member(path_yield(g, expanded))
    if not proved:
        raise CorruptWitnessError("internal check failed: witness yield is not a member")
    _attach_path(report, g, expanded)
    if args.witness_out:
        _write_witness_file(args.witness_out, expanded, derivation)
    return EXIT_REACHABLE


def _solve_enum(g: LabeledGraph, lang: LanguageSource, args: argparse.Namespace, report: SolveReport) -> int:
    stats: dict = {}
    if args.mode == "regular":
        if lang.dfa is None:
            raise _Usage(f"mode regular needs a DFA; {lang.label} does not provide one")
        found = regular_reach(g, lang.dfa, stats=stats)
        report.stats["facts_count"] = stats.get("states", 0)
        report.stats["worklist_pops"] = stats.get("pops", 0)
    elif args.mode == "dag-enum":
        found = dag_enum_reach(g, lang.member, stats=stats)
        report.stats["facts_count"] = 0
        report.stats["worklist_pops"] = stats.get("paths_examined", 0)
    elif args.mode == "bounded-enum":
        if args.max_len is None:
            raise _Usage("mode bounded-enum requires --max-len")
        found = bounded_enum_reach(g, lang.member, args.max_len, stats=stats)
        report.stats["facts_count"] = stats.get("states_examined", 0)
        report.stats["worklist_pops"] = stats.get("states_examined", 0)
    else:
        try:
            found = tree_reach(g, lang.member)
        except NoRespectingPathError:
            report.decision = "unreachable"
            report.notes.append("the unique tree path violates an edge direction")
            report.stats["facts_count"] = 0
            report.stats["worklist_pops"] = 1
            return EXIT_UNREACHABLE
        report.stats["facts_count"] = 0
        report.stats["worklist_pops"] = 1

    if found is None:
        if args.mode == "bounded-enum":
            report.decision = "unknown-bounded"
            report.notes.append(f"no accepted walk of length <= {args.max_len}")
            return EXIT_UNKNOWN
        report.decision = "unreachable"
        return EXIT_UNREACHABLE
    text = path_yield(g, found)
    checker = lang.member if args.mode != "regular" else _total_dfa_member(lang.dfa)
    if path_endpoints(g, found) != (g.source, g.target) or not checker(text):
        raise CorruptWitnessError("internal check failed: solver returned an invalid path")
    report.decision = "reachable"
    _attach_path(report, g, found)
    if args.witness_out:
        _write_witness_file(args.witness_out, found)
    return EXIT_REACHABLE


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    lang = _load_language(args)
    if args.max_len is not None and args.mode != "bounded-enum":
        raise _Usage("--max-len only applies to bounded-enum")
    report = SolveReport(decision="unreachable")
    started = time.perf_counter()
    if args.mode == "cfl":
        code = _solve_cfl(g, lang, args, report)
    else:
        code = _solve_enum(g, lang, args, report)
    if args.timings:
        report.stats["wall_time"] = round(time.perf_counter() - started, 6)
    _emit(report, args.json)
    return code


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


def _cmd_reduce(args: argparse.Namespace) -> int:
    text = _read(args.infile)
    if args.kind == "reach-to-abstar":
        out = reach_to_abstar_ureach(parse_graph(text))
    elif args.kind == "nbc-to-d2":
        out = nbc_to_d2_dagreach(text.strip("\n"))
    elif args.kind == "mcvp-to-d2":
        out = mcvp_to_d2_reach(parse_circuit(text))
    elif args.kind == "d2-to-dd2":
        out = d2reach_to_dd2_ureach(parse_graph(text))
    else:
        out = vc_to_a_dagreach(parse_vc(text))
    with open(args.outfile, "w") as fh:
        fh.write(render_graph(out))
    summary = {"kind": args.kind, "vertices": out.vertex_count, "edges": len(out.edges)}
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"reduced: {args.kind}; vertices: {out.vertex_count}; edges: {len(out.edges)}")
    return EXIT_REACHABLE


# --- gen ---------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    if args.kind == "graph":
        g = generators.random_graph(
            rng, args.n, args.m, args.alphabet, kind=args.graph_kind, self_loops=args.self_loops
        )
        text = render_graph(g)
    elif args.kind == "dag":
        text = render_graph(generators.random_dag(rng, args.n, args.m, args.alphabet))
    elif args.kind == "circuit":
        text = render_circuit(generators.random_circuit(rng, args.inputs, args.gates))
    elif args.kind == "vc":
        text = render_vc(generators.random_vc_instance(rng, args.n, args.m, args.k))
    else:
        text = generators.random_nbc_string(rng, args.blocks) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_REACHABLE


# --- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    lang = _load_language(args)
    witness, derivation = _load_witness_file(args.witness)
    report = SolveReport(decision="rejected")
    try:
        endpoints = path_endpoints(g, witness)
        text = path_yield(g, witness)
    except LcreachError as exc:
        report.notes.append(f"path does not fit the graph: {exc}")
        _emit(report, args.json)
        return EXIT_UNREACHABLE
    if endpoints != (g.source, g.target):
        report.notes.append("path endpoints are not the graph's source and target")
        _emit(report, args.json)
        return EXIT_UNREACHABLE
    if not _derivation_proves(g, lang, witness, derivation) and not lang.member(text):
        report.notes.append("path yield is not in the language")
        report.yield_ = text
        _emit(report, args.json)
        return EXIT_UNREACHABLE
    report.decision = "verified"
    _attach_path(report, g, witness)
    _emit(report, args.json)
    return EXIT_REACHABLE


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
    reduce_.add_argument(
        "kind",
        choices=("reach-to-abstar", "nbc-to-d2", "mcvp-to-d2", "d2-to-dd2", "vc-to-a"),
    )
    reduce_.add_argument("--in", dest="infile", required=True, metavar="FILE")
    reduce_.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    reduce_.add_argument("--json", action="store_true")
    reduce_.set_defaults(func=_cmd_reduce)

    gen = sub.add_parser("gen", help="seeded random instances")
    gen.add_argument("kind", choices=("graph", "dag", "circuit", "vc", "nbc"))
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


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LcreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
