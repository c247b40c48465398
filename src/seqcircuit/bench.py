"""BENCH netlist reader (ISCAS'89 distribution subset).

Supported lines: ``INPUT(x)``, ``OUTPUT(x)``, ``x = GATE(a, b, ...)`` with
GATE in {DFF, AND, NAND, OR, NOR, NOT}.  Non-AIG gates are lowered to
AND/NOT compositions; intermediate nodes receive synthesized ``$``-prefixed
names so that original net names remain distinguishable.
"""
from __future__ import annotations

import re

from .circuit import CircuitBuilder, CircuitGraph, CircuitError, SYNTH_PREFIX

_GATES = {"DFF", "AND", "NAND", "OR", "NOR", "NOT"}
_DEF_RE = re.compile(r"^([^=\s]+)\s*=\s*([A-Za-z]+)\s*\(([^)]*)\)$")
_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)\s]+)\s*\)$")


class BenchError(CircuitError):
    pass


def parse_bench(text) -> CircuitGraph:
    if hasattr(text, "read"):
        text = text.read()

    inputs: list[str] = []
    outputs: list[str] = []
    defs: dict[str, tuple[str, list[str]]] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io = _IO_RE.match(line)
        if io:
            (inputs if io.group(1) == "INPUT" else outputs).append(io.group(2))
            continue
        m = _DEF_RE.match(line)
        if not m:
            raise BenchError(f"line {ln}: unrecognized statement {line!r}")
        name, gate, args = m.group(1), m.group(2).upper(), m.group(3)
        if gate not in _GATES:
            raise BenchError(f"line {ln}: unknown gate type {gate!r}")
        ops = [a.strip() for a in args.split(",") if a.strip()]
        if not ops or (gate in ("NOT", "DFF") and len(ops) != 1):
            raise BenchError(f"line {ln}: {gate} wants 1 operand, got {len(ops)}")
        if gate not in ("NOT", "DFF") and len(ops) < 2:
            raise BenchError(f"line {ln}: {gate} wants >=2 operands")
        if name in defs or name in inputs:
            raise BenchError(f"line {ln}: net {name!r} redefined")
        defs[name] = (gate, ops)
    if not inputs and not defs:
        raise BenchError("no nets defined: the file has no INPUT or gate "
                         "statements")

    b = CircuitBuilder()
    node: dict[str, int] = {}
    for name in inputs:
        node[name] = b.add_pi(name)
    # FF outputs act as sources, so create them before resolving gate cones.
    for name, (gate, _) in defs.items():
        if gate == "DFF":
            node[name] = b.add_ff(name)

    synth = iter(range(10 ** 9))

    def tmp_name():
        return f"{SYNTH_PREFIX}{next(synth)}"

    in_progress: set[str] = set()

    def resolve(name: str) -> int:
        if name in node:
            return node[name]
        if name not in defs:
            raise BenchError(f"dangling net name {name!r}")
        if name in in_progress:
            raise BenchError(f"combinational loop through net {name!r}")
        in_progress.add(name)
        gate, ops = defs[name]
        srcs = [resolve(o) for o in ops]
        in_progress.discard(name)

        def and_fold(ids, final_name=None):
            acc = ids[0]
            for nxt in ids[1:-1] if final_name else ids[1:]:
                acc = b.add_and(acc, nxt, tmp_name())
            if final_name:
                acc = b.add_and(acc, ids[-1], final_name) if len(ids) > 1 else acc
            return acc

        if gate == "AND":
            nid = and_fold(srcs, name)
        elif gate == "NAND":
            nid = b.make_not(and_fold(srcs, tmp_name()), name)
        elif gate == "NOR":
            nid = and_fold([b.make_not(s, None) for s in srcs], name)
        elif gate == "OR":
            nid = b.make_not(and_fold([b.make_not(s, None) for s in srcs],
                                      tmp_name()), name)
        else:  # NOT
            nid = b.make_not(srcs[0], name)
        node[name] = nid
        return nid

    for name, (gate, ops) in defs.items():
        if gate == "DFF":
            b.set_ff_input(node[name], resolve(ops[0]))
        else:
            resolve(name)
    b.set_outputs(resolve(o) for o in outputs)
    return b.build()
