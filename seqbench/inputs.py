"""Seeded benchmark inputs, written as AIGER and BENCH text.

The benchmark draws its own circuits and stimuli so that a change to the
toolkit's generator or to ``Workload.random`` cannot change what is
measured.  Circuits are plain node lists (kind, fanins) that this module
writes out as text; the toolkit only ever sees the text.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np

PI, FF, AND, NOT = "PI", "FF", "AND", "NOT"

# Paper-size corpus distribution (mean and sd of node counts) and the kind
# fractions of small optimized AIG netlists.
MEAN_NODES = 214.35
STD_NODES = 92.63
FRAC_PI, FRAC_FF, FRAC_NOT = 0.09, 0.08, 0.22

# The wide circuit: about 2k nodes and about 13 levels.
WIDE_COUNTS = dict(n_pi=40, n_and=1400, n_not=420, n_ff=150)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """One independent stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), sum(map(ord, tag)), len(tag)])


def kind_counts(total: int) -> dict[str, int]:
    n_pi = max(2, round(total * FRAC_PI))
    n_ff = max(1, round(total * FRAC_FF))
    n_not = max(1, round(total * FRAC_NOT))
    return dict(n_pi=n_pi, n_ff=n_ff, n_not=n_not,
                n_and=max(1, total - n_pi - n_ff - n_not))


def corpus_sizes(count: int) -> list[int]:
    """Stratified node counts: one per equal-probability slice of the
    paper-size normal distribution, so every seed labels the same total
    amount of circuit while the structures differ."""
    dist = NormalDist(MEAN_NODES, STD_NODES)
    return [max(16, round(dist.inv_cdf((i + 0.5) / count)))
            for i in range(count)]


def random_netlist(rng, n_pi: int, n_and: int, n_not: int, n_ff: int):
    """Random sequential AIG as (kinds, fanins).

    Gates draw fanins uniformly from every earlier node; each non-NOT node is
    inverted at most once, so no inverter is lost or merged when the text is
    read back.  FF D inputs come from random gates, which closes feedback
    loops through the FFs that those gates depend on.
    """
    kinds = [PI] * n_pi + [FF] * n_ff
    fanins: list[tuple[int, ...]] = [()] * (n_pi + n_ff)
    inverted: set[int] = set()
    plan = [AND] * n_and + [NOT] * n_not
    rng.shuffle(plan)
    for op in plan:
        if op == AND:
            a, b = rng.choice(len(kinds), size=2, replace=False)
            fanins.append((int(a), int(b)))
        else:
            cand = [v for v in range(len(kinds))
                    if kinds[v] != NOT and v not in inverted]
            if not cand:
                continue
            src = cand[int(rng.integers(len(cand)))]
            inverted.add(src)
            fanins.append((src,))
        kinds.append(op)
    gates = list(range(n_pi + n_ff, len(kinds)))
    for ff in range(n_pi, n_pi + n_ff):
        fanins[ff] = (gates[int(rng.integers(len(gates)))] if gates else ff,)
    return kinds, fanins


def to_aiger(kinds, fanins) -> str:
    """ASCII AIGER text; NOT nodes become negated literals.

    Nodes without fanout are outputs, so a dangling inverter survives as a
    negated output literal.
    """
    var: dict[int, int] = {}
    for want in (PI, FF, AND):
        for v, k in enumerate(kinds):
            if k == want:
                var[v] = len(var) + 1

    def lit(v: int) -> int:
        if kinds[v] == NOT:
            return 2 * var[fanins[v][0]] + 1
        return 2 * var[v]

    used = {u for fi in fanins for u in fi}
    outs = [v for v in range(len(kinds)) if v not in used]
    pis = [v for v, k in enumerate(kinds) if k == PI]
    ffs = [v for v, k in enumerate(kinds) if k == FF]
    ands = [v for v, k in enumerate(kinds) if k == AND]
    rows = [f"aag {len(var)} {len(pis)} {len(ffs)} {len(outs)} {len(ands)}"]
    rows += [str(lit(v)) for v in pis]
    rows += [f"{lit(v)} {lit(fanins[v][0])}" for v in ffs]
    rows += [str(lit(v)) for v in outs]
    rows += [f"{lit(v)} {lit(fanins[v][0])} {lit(fanins[v][1])}" for v in ands]
    return "\n".join(rows) + "\n"


def accumulator_bench(width: int) -> str:
    """BENCH text of a ``width``-bit ripple-carry accumulator q <= q + in + cin.

    Each bit uses OR, NAND, NOR and AND gates, so reading it exercises the
    lowering of every non-AIG gate.  Each bit's FF feeds back through its own
    sum, which gives one cyclic region per bit; the carry chain makes the
    circuit deep.
    """
    rows = ["# ripple-carry accumulator", "INPUT(cin)"]
    rows += [f"INPUT(in{i})" for i in range(width)]
    rows += [f"OUTPUT(q{i})" for i in range(width)] + [f"OUTPUT(c{width})"]
    for i in range(width):
        q, x, c = f"q{i}", f"in{i}", f"c{i}" if i else "cin"
        rows += [
            f"o{i} = OR({q}, {x})",
            f"n{i} = NAND({q}, {x})",
            f"h{i} = AND(o{i}, n{i})",              # h = q ^ in
            f"r{i} = NOR(h{i}, {c})",
            f"a{i} = AND(h{i}, {c})",
            f"s{i} = NOR(r{i}, a{i})",              # s = h ^ c
            f"g{i} = AND({q}, {x})",
            f"c{i + 1} = OR(g{i}, a{i})",           # carry out
            f"{q} = DFF(s{i})",
        ]
    return "\n".join(rows) + "\n"


def stimulus(rng, n_inputs: int) -> list[tuple[float, float]]:
    """(p1, ptr) per input, in input order; ptr is a fraction of its
    feasibility bound 2 * min(p1, 1 - p1)."""
    out = []
    for _ in range(n_inputs):
        p1 = float(rng.uniform(0.15, 0.85))
        frac = float(rng.uniform(0.1, 0.9))
        out.append((p1, frac * 2.0 * min(p1, 1.0 - p1)))
    return out
