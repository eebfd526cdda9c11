"""Seeded random instance generators.

Every generator takes a ``random.Random`` as its first argument and touches
no other source of randomness, so a fixed seed pins the full output stream.
"""

from __future__ import annotations

import math
import random

from .graph import DIRECTED, LabeledGraph
from .languages import D2_ALPHABET
from .reductions import Circuit, VcInstance

_D2_SYMBOLS = "".join(sorted(D2_ALPHABET))


def random_graph(
    rng: random.Random,
    n: int,
    m: int,
    alphabet: str,
    kind: str = DIRECTED,
    self_loops: bool = False,
) -> LabeledGraph:
    """Uniform random multigraph with a random source/target pair."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    symbols = sorted(set(alphabet))
    if not symbols:
        raise ValueError("need a nonempty alphabet")
    us, vs, labels = [], [], []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while not self_loops and v == u:
            if n == 1:
                raise ValueError("cannot avoid self-loops on a single vertex")
            v = rng.randrange(n)
        us.append(u)
        vs.append(v)
        labels.append(rng.choice(symbols))
    source = rng.randrange(n)
    target = rng.randrange(n)
    return LabeledGraph.from_columns(kind, n, us, vs, "".join(labels), source, target, symbols)


def random_dag(
    rng: random.Random,
    n: int,
    m: int,
    alphabet: str,
) -> LabeledGraph:
    """Random DAG: every edge goes from a lower to a higher vertex index.

    Source is vertex 0 and target is vertex n-1, so generated instances have
    a chance of carrying source-to-target paths.
    """
    if n < 2:
        raise ValueError("need at least two vertices for a forward edge")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    symbols = sorted(set(alphabet))
    if not symbols:
        raise ValueError("need a nonempty alphabet")
    us, vs, labels = [], [], []
    for _ in range(m):
        u = rng.randrange(n - 1)
        us.append(u)
        vs.append(rng.randrange(u + 1, n))
        labels.append(rng.choice(symbols))
    return LabeledGraph.from_columns(DIRECTED, n, us, vs, "".join(labels), 0, n - 1, symbols)


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int) -> Circuit:
    """Random monotone circuit respecting the fan-out-two port discipline.

    Draws operands from the pool of still-free (gate, port) pairs, so the
    construction never needs to retry.  The output is the last gate.
    """
    if n_inputs < 1 or n_gates < 0:
        raise ValueError("need at least one input and a nonnegative gate count")
    gates: list[tuple] = [("input", rng.randrange(2)) for _ in range(n_inputs)]
    free: list[tuple[int, int]] = [(i, p) for i in range(n_inputs) for p in (1, 2)]
    for _ in range(n_gates):
        if len(free) < 2:
            break
        first = rng.randrange(len(free))
        left, left_port = free.pop(first)
        second = rng.randrange(len(free))
        right, right_port = free.pop(second)
        word = "and" if rng.random() < 0.5 else "or"
        gates.append((word, left, left_port, right, right_port))
        i = len(gates) - 1
        free.append((i, 1))
        free.append((i, 2))
    return Circuit(tuple(gates), len(gates) - 1)


def _pair(n: int, index: int) -> tuple[int, int]:
    """The pair ``(i, j)``, ``1 <= i < j <= n``, at ``index`` in row-major order."""
    back = math.comb(n, 2) - 1 - index  # counted from the last pair, (n - 1, n)
    d = (math.isqrt(8 * back + 1) + 1) // 2  # the pair lies in row n - d, which holds d pairs
    return n - d, n - back + d * (d - 1) // 2


def random_vc_instance(rng: random.Random, n: int, m: int, k: int) -> VcInstance:
    """Random simple-graph vertex cover instance (m capped at C(n,2)).

    The edges are drawn as indices into the row-major list of all pairs,
    which is never built; ``sample`` reads a population only by its length
    and by index, so the draws are those of sampling the list itself.
    """
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    total = math.comb(max(n, 0), 2)
    edges = frozenset(_pair(n, index) for index in rng.sample(range(total), min(m, total)))
    return VcInstance(n, edges, k)


def random_balanced_string(rng: random.Random, max_len: int) -> str:
    """Random nonempty two-bracket balanced string of even length <= max_len.

    Built top-down from the shape grammar (wrap round, wrap square, or
    concatenate), splitting the length budget uniformly.
    """
    if max_len < 2:
        raise ValueError("balanced strings need length at least 2")
    length = 2 * rng.randint(1, max_len // 2)

    def build(half: int) -> str:
        # half = number of bracket pairs to emit
        if half == 1:
            return rng.choice(["()", "[]"])
        if half > 1 and rng.random() < 0.5:
            cut = rng.randint(1, half - 1)
            return build(cut) + build(half - cut)
        left, right = rng.choice([("(", ")"), ("[", "]")])
        return left + build(half - 1) + right

    return build(length // 2)


def random_nbc_string(rng: random.Random, n_blocks: int) -> str:
    """Random block-choice string with nonempty choice pieces.

    With probability one half the string is built to be a member:
    a random balanced string is cut into the prefix plus one nonempty chunk
    per block, and each block gets decoy choices alongside the true chunk.
    Otherwise the prefix and all choices are independent random bracket
    strings, which are usually non-members.
    """
    if n_blocks < 0:
        raise ValueError("block count must be nonnegative")

    def random_piece() -> str:
        return "".join(rng.choice(_D2_SYMBOLS) for _ in range(rng.randint(1, 4)))

    def decoys(block: list[str]) -> None:
        for _ in range(rng.randint(1, 2)):
            block.append(random_piece())
        rng.shuffle(block)

    if rng.random() < 0.5 and n_blocks > 0:
        base = random_balanced_string(rng, max_len=2 * max(1, n_blocks + 2))
        # cut into n_blocks nonempty tail chunks plus a (possibly empty) prefix
        while len(base) < n_blocks:
            base = base + random_balanced_string(rng, 4)
        cuts = sorted(rng.sample(range(len(base)), n_blocks))
        pieces = []
        for start, end in zip(cuts, cuts[1:] + [len(base)]):
            pieces.append(base[start:end])
        prefix = base[: cuts[0]] if cuts else base
        blocks = []
        for true_piece in pieces:
            block = [true_piece]
            decoys(block)
            blocks.append(block)
    else:
        prefix = "".join(rng.choice(_D2_SYMBOLS) for _ in range(rng.randint(0, 4)))
        blocks = []
        for _ in range(n_blocks):
            block = [random_piece()]
            decoys(block)
            blocks.append(block)

    out = [prefix]
    for block in blocks:
        seen: list[str] = []
        for choice in block:
            if choice not in seen:
                seen.append(choice)
        while len(seen) < 2:
            extra = random_piece()
            if extra not in seen:
                seen.append(extra)
        out.append("{" + "#".join(seen) + "}")
    return "".join(out)

