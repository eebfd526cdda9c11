"""Outside-in spans around the program's layers.

The CLI and the solver module look their collaborators up as module globals
at call time, so rebinding those names to wrappers records a span for every
call without touching the program.  Spans live in memory as
``[name, start, end, parent]`` and are folded into per-name totals after
each operation.  Counters are read from what the wrapped calls return (or,
for the enumeration solvers, from the ``stats`` dict they are handed), not
from the CLI's report.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from typing import Callable

from lcreach import cli, solve


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(counts, result, args, kwargs)`` runs after it."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them.

        A span's self time is its duration minus its children's durations;
        children of one span never overlap, because nothing runs concurrently.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - inner
            self.calls[name] += 1
        self.spans.clear()


def _count_edges(key: str) -> Callable:
    def count(counts, graph, args, kwargs):
        counts[key] += len(graph.edges)

    return count


def _count_table(counts, table, args, kwargs):
    counts["solve.facts"] += len(table.facts)
    counts["solve.pops"] += table.pops


def _count_expansion(counts, result, args, kwargs):
    if isinstance(result, solve.ExpansionLimitExceeded):
        counts["solve.expansions_skipped"] += 1
    else:
        counts["solve.expanded_steps"] += len(result.steps)


def _count_cyk(counts, verdict, args, kwargs):
    counts["grammar.cyk_symbols"] += len(args[1])


def _count_member(counts, verdict, args, kwargs):
    counts["languages.member_accepted"] += bool(verdict)


def _count_stats(metric: str, key: str) -> Callable:
    def count(counts, result, args, kwargs):
        counts[metric] += kwargs["stats"].get(key, 0)

    return count


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind the traced names; returns a function that restores them."""
    wrap = tracer.wrap
    patches = {
        cli: {
            "parse_graph": ("graph.parse_graph", _count_edges("graph.parse_graph_edges")),
            "parse_cfg": ("grammar.parse_cfg", None),
            "normalize": ("grammar.normalize", None),
            "cyk_member": ("grammar.cyk", _count_cyk),
            "cfl_reach": ("solve.cfl_reach", None),
            "expand_witness": ("solve.expand", _count_expansion),
            "regular_reach": ("solve.product_bfs", _count_stats("solve.product_states", "states")),
            "dag_enum_reach": ("solve.dag_enum", _count_stats("solve.paths_examined", "paths_examined")),
            "bounded_enum_reach": (
                "solve.bounded_enum", _count_stats("solve.states_examined", "states_examined")
            ),
            "tree_reach": ("solve.tree", None),
            "path_yield": ("graph.path_check", None),
            "path_endpoints": ("graph.path_check", None),
            **{
                fn: ("reductions.reduce", _count_edges("reductions.output_edges"))
                for fn in (
                    "reach_to_abstar_ureach",
                    "nbc_to_d2_dagreach",
                    "mcvp_to_d2_reach",
                    "d2reach_to_dd2_ureach",
                    "vc_to_a_dagreach",
                )
            },
        },
        solve: {
            "normalize": ("grammar.normalize", None),
            "cfl_reach_table": ("solve.fixpoint", _count_table),
            "path_yield": ("graph.path_check", None),
        },
    }
    saved = []
    for module, names in patches.items():
        for attr, (span, count) in names.items():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(span, original, count))
    original_builtin = cli.builtin_language
    saved.append((cli, "builtin_language", original_builtin))

    def builtin_language(name):
        lang = original_builtin(name)
        return dataclasses.replace(lang, member=wrap("languages.member", lang.member, _count_member))

    cli.builtin_language = builtin_language

    def restore() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore
