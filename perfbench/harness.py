"""Set-up, timed rounds, verdict checks and metrics for one workload.

Imported only after ``run.py`` has put this checkout's ``src`` on the path.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from lcreach import cli

import oracles
import tracing
from workloads import BUILDERS

SETUP_REPEATS = 3
# Timings are reported in reference units: a reference machine runs
# calibration_loop() in exactly this long.  Shared hosts change speed by a
# third within seconds, so each operation's time, and each set-up, is scaled
# by how long the loop took right after it.
REFERENCE_LOOP_S = 1e-3
LAYER_SPANS = (
    "graph.parse_graph",
    "graph.path_check",
    "grammar.parse_cfg",
    "grammar.normalize",
    "grammar.cyk",
    "languages.member",
    "solve.cfl_reach",
    "solve.fixpoint",
    "solve.expand",
    "solve.dag_enum",
    "solve.bounded_enum",
    "solve.product_bfs",
    "solve.tree",
    "reductions.reduce",
)
LAYER_COUNTS = (
    "graph.parse_graph_edges",
    "grammar.cyk_symbols",
    "solve.facts",
    "solve.pops",
    "solve.expanded_steps",
    "solve.expansions_skipped",
    "solve.paths_examined",
    "solve.states_examined",
    "solve.product_states",
    "reductions.output_edges",
)


@contextmanager
def inside(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def write_files(ops, path: Path) -> None:
    path.mkdir(parents=True)
    for op in ops:
        for name, text in op.files.items():
            (path / name).write_text(text)


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work like the solvers'
    own: tuple keys, dict and set updates, big-integer bit masks.

    The collector is off, so the program's leftover objects cannot slow it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        rows: dict = {}
        seen = set()
        for i in range(2000):
            key = (i % 97, "()[]"[i & 3])
            rows[key] = rows.get(key, 0) | (1 << (i % 89))
            seen.add((key, i >> 2))
        return time.perf_counter() - started
    finally:
        gc.enable()


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Runner:
    """Runs operations through ``dispatch`` and checks their verdicts."""

    def __init__(self, ops, dispatch) -> None:
        self.ops = ops
        self.dispatch = dispatch
        self.first: dict[int, str] = {}  # op index -> digest of its first run
        self.walk: dict[int, int] = {}  # op index -> witness length of its first run
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.attempted = self.failed = self.verdict_errors = self.decided = 0
        self.problems: list[str] = []

    def _call(self, argv: list[str], outputs: list) -> int:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = self.dispatch(argv)
            finally:
                self.op_s += time.perf_counter() - started
        outputs.append((argv[0], code, out.getvalue()))
        return code

    def _execute(self, op) -> tuple[int, list]:
        outputs: list = []
        if op.reduce is not None and self._call(op.reduce, outputs) != 0:
            raise RuntimeError(f"reduce exited {outputs[-1][1]}")
        code = self._call(op.solve + ["--json"], outputs)
        if code == 0 and op.verify is not None:
            self._call(op.verify + ["--json"], outputs)
        return code, outputs

    def _check(self, op, code: int, outputs: list) -> str | None:
        """Compare the verdict with the oracle; None when it agrees."""
        allowed = (0, 1) if op.expect is None else (op.expect,)
        if code not in allowed:
            return f"exit {code}, oracle says {allowed}"
        if code != 0:
            return None
        report = next(out for command, _, out in outputs if command == "solve")
        witness = json.loads(report)["witness"]
        if witness is None:
            return "reachable without a witness to replay"
        g = oracles.read_graph(Path(op.graph_file).read_text())
        text = oracles.replay(g, witness["start"], witness["steps"])
        if text is None:
            return "witness does not replay from source to target"
        if not op.accepts(text):
            return f"witness yield {text[:40]!r} is rejected"
        if op.walk_len is not None and len(witness["steps"]) != op.walk_len:
            return f"witness has {len(witness['steps'])} steps, oracle says {op.walk_len}"
        self.walk_steps = len(witness["steps"])
        if op.verify is not None:
            if outputs[-1][1] != 0:
                return "verify rejected the witness file"
            saved = json.loads(Path(op.verify[op.verify.index("--witness") + 1]).read_text())
            if saved["steps"] != witness["steps"]:
                return "witness file differs from the reported witness"
        return None

    def _digest(self, op, code: int, outputs: list) -> str:
        h = hashlib.sha256(repr((code, outputs)).encode())
        written = [op.reduce[-1]] if op.reduce else []
        if "--witness-out" in op.solve and code == 0:
            written.append(op.solve[op.solve.index("--witness-out") + 1])
        for name in written:
            h.update(Path(name).read_bytes())
        return h.hexdigest()

    def run(self, index: int) -> None:
        op = self.ops[index]
        self.op_s = 0.0
        self.walk_steps = 0
        self.attempted += 1
        try:
            code, outputs = self._execute(op)
            if code not in (0, 1, 3):
                raise RuntimeError(f"solve exited {code}: {outputs[-1][2][:80]!r}")
        except Exception as exc:  # any crash is one failed operation, not a dead run
            self._record(op, self.op_s, failed=f"{type(exc).__name__}: {exc}"[:160])
            return
        elapsed = self.op_s
        digest = self._digest(op, code, outputs)
        if index not in self.first:
            self.first[index] = digest
            problem = self._check(op, code, outputs)
            if problem is not None:
                self.verdict_errors += 1
                self.problems.append(f"{op.kind}: {problem}")
            self.walk[index] = self.walk_steps
        elif digest != self.first[index]:
            self._record(op, elapsed, failed="report bytes differ from the first run")
            return
        self.decided += code in (0, 1)
        self.latencies.append(elapsed)
        self.busy_s += elapsed

    def _record(self, op, elapsed: float, failed: str) -> None:
        self.failed += 1
        self.busy_s += elapsed
        self.latencies.append(math.inf)  # a failure misses every latency limit
        if f"{op.kind}: {failed}" not in self.problems:
            self.problems.append(f"{op.kind}: {failed}")


def measure(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
            workroot: Path, small: bool = False) -> dict:
    """Set up ``workload`` for ``seed`` under ``workroot``, run it, and return the result."""
    workdir = workroot / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            rng = random.Random(f"{workload}:{seed}")
            ops = BUILDERS[workload](rng, small)
            rng.shuffle(ops)
            warm = BUILDERS[workload](random.Random(f"{workload}:{seed}:warm-up"), True)
            write_files(ops, workdir / "run")
            write_files(warm, workdir / "warm-up")
            with inside(workdir / "warm-up"):
                warm_runner = Runner(warm, cli.dispatch)
                for i in range(len(warm)):
                    warm_runner.run(i)
            elapsed = time.perf_counter() - started
            speed = REFERENCE_LOOP_S / statistics.median(calibration_loop() for _ in range(5))
            setups.append(elapsed * speed)
            if len(setups) == 1:
                import_ref_s = import_s * speed
        with inside(workdir / "run"):
            result = _timed_rounds(ops, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:  # another run still uses it
            pass
    if not trace:
        result["metrics"]["setup_s"] = {"value": import_ref_s + statistics.median(setups), "unit": "s"}
    return result


def _timed_rounds(ops, seconds: float, trace: bool) -> dict:
    plain = Runner(ops, cli.dispatch)
    tracer = tracing.Tracer()
    traced = Runner(ops, tracer.wrap("cli.dispatch", cli.dispatch))
    traced.first, traced.walk = plain.first, plain.walk
    rounds = {False: 0, True: 0}
    plain_rates = []  # completed operations per reference second, per plain round
    ref_latencies = []  # plain latencies in reference seconds
    started = time.perf_counter()
    while sum(rounds.values()) < 2 or time.perf_counter() - started < seconds:
        with_trace = trace and rounds[False] > rounds[True]
        runner = traced if with_trace else plain
        completed, ref_busy_s = runner.attempted - runner.failed, 0.0
        restore = tracing.install(tracer) if with_trace else None
        try:
            for i in range(len(ops)):
                gc.collect()
                busy_s = runner.busy_s
                runner.run(i)
                tracer.fold()
                speed = REFERENCE_LOOP_S / calibration_loop()
                ref_busy_s += (runner.busy_s - busy_s) * speed
                if not with_trace:
                    ref_latencies.append(runner.latencies[-1] * speed)
        finally:
            if restore is not None:
                restore()
        rounds[with_trace] += 1
        if not with_trace:
            plain_rates.append((runner.attempted - runner.failed - completed) / ref_busy_s)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    errors = plain.verdict_errors + traced.verdict_errors
    for problem in dict.fromkeys(plain.problems + traced.problems):
        print(f"problem: {problem}", file=sys.stderr)
    if trace:
        values = _layer_metrics(tracer, traced.attempted)
        values["trace.overhead_ratio"] = (
            (traced.busy_s / rounds[True]) / (plain.busy_s / rounds[False]), "ratio")
        values["check.verdict_errors"] = (errors, "count")
        values["check.failed_ratio"] = (failed / attempted, "ratio")
    else:
        values = _end_to_end_metrics(plain, plain_rates, ref_latencies)
        print(f"{plain.attempted} operations in {rounds[False]} rounds", file=sys.stderr)
    return {
        "correct": errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }


def _layer_metrics(tracer, ops: int) -> dict:
    """Per-operation self times and counters of the traced rounds."""
    values = {"cli.dispatch_s": (tracer.total_s["cli.dispatch"] / ops, "s/op"),
              "cli.self_s": (tracer.self_s["cli.dispatch"] / ops, "s/op")}
    for span in LAYER_SPANS:
        values[f"{span}_s"] = (tracer.self_s[span] / ops, "s/op")
    for span in ("grammar.normalize", "grammar.cyk", "languages.member"):
        values[f"{span}_calls"] = (tracer.calls[span] / ops, "count/op")
    for key in LAYER_COUNTS:
        values[key] = (tracer.counts[key] / ops, "count/op")
    fixpoint_s = tracer.self_s["solve.fixpoint"]
    member_calls = tracer.calls["languages.member"]
    values["solve.facts_per_s"] = (tracer.counts["solve.facts"] / fixpoint_s if fixpoint_s else 0.0, "facts/s")
    values["languages.member_accept_ratio"] = (
        tracer.counts["languages.member_accepted"] / member_calls if member_calls else 0.0, "ratio")
    for spent, span in sorted(((t, s) for s, t in tracer.self_s.items()), reverse=True):
        print(f"self {span:24} {spent / ops * 1e3:10.3f} ms/op", file=sys.stderr)
    return values


def _end_to_end_metrics(plain: Runner, rates: list[float], ref_latencies: list[float]) -> dict:
    lat = sorted(ref_latencies)
    p90 = percentile(lat, 0.9)
    raw = sorted(plain.latencies)
    print(f"{sum(x > p90 for x in lat)} samples beyond p90; unscaled p50 "
          f"{percentile(raw, 0.5) * 1e3:.3f} ms, p90 {percentile(raw, 0.9) * 1e3:.3f} ms, "
          f"{(plain.attempted - plain.failed) / plain.busy_s:.4f} ops/s", file=sys.stderr)
    return {
        "throughput_ops_s": (statistics.median(rates), "ops/ref-s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ref-ms"),
        "latency_p90_ms": (p90 * 1e3, "ref-ms"),
        "completed_ratio": (1 - plain.failed / plain.attempted, "ratio"),
        "decided_ratio": (plain.decided / plain.attempted, "ratio"),
        "witness_steps_total": (sum(plain.walk.values()), "steps"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
