"""Sequential netlist data model.

A circuit is a directed graph over four node kinds: primary inputs (PI),
2-input AND gates, inverters (NOT), and D flip-flops (FF).  The graph may be
cyclic, but every cycle must pass through at least one FF; cutting each FF
into a pseudo primary input (its output) and a sink (its D input) leaves an
acyclic combinational graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np


class NodeKind(IntEnum):
    PI = 0
    AND = 1
    NOT = 2
    FF = 3


ARITY = {NodeKind.PI: 0, NodeKind.AND: 2, NodeKind.NOT: 1, NodeKind.FF: 1}

SYNTH_PREFIX = "$"


class CircuitError(ValueError):
    """Malformed circuit, parse failure, or infeasible generation request."""


@dataclass(frozen=True)
class Violation:
    node: int
    rule: str
    detail: str = ""

    def __str__(self):
        msg = f"node {self.node}: {self.rule}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass(frozen=True)
class CircuitGraph:
    """Immutable netlist with dense node ids 0..N-1.

    ``fanins[i]`` is the ordered tuple of driver ids of node i (the order is
    semantic and preserved by all transformations).  ``pos`` lists designated
    output nodes.  ``name_map`` maps external net names to node ids; names
    starting with ``$`` were synthesized during gate lowering.  ``ff_reset``
    holds per-FF power-on values (missing entries default to 0).
    ``const_id`` is the always-0 input node, if one exists.
    """

    kinds: tuple[NodeKind, ...]
    fanins: tuple[tuple[int, ...], ...]
    pos: tuple[int, ...] = ()
    name_map: dict[str, int] = field(default_factory=dict)
    ff_reset: dict[int, int] = field(default_factory=dict)
    const_id: int | None = None

    @property
    def n(self) -> int:
        return len(self.kinds)

    @cached_property
    def fanouts(self) -> tuple[tuple[int, ...], ...]:
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for v, fi in enumerate(self.fanins):
            for u in fi:
                outs[u].append(v)
        return tuple(tuple(o) for o in outs)

    @cached_property
    def gate_order(self) -> tuple[int, ...]:
        """Gates (AND/NOT) in a topological order of the combinational graph.

        Edges into FFs are cut, so PIs and FF outputs act as sources.  A gate
        on or behind a combinational loop never becomes ready and is left
        out; ``validate`` reports those.  Fanins must be in range.
        """
        gate = [k in (NodeKind.AND, NodeKind.NOT) for k in self.kinds]
        indeg = [sum(gate[u] for u in fi) for fi in self.fanins]
        order = [v for v in range(self.n) if gate[v] and indeg[v] == 0]
        for v in order:  # the list grows while it is walked: a FIFO queue
            for w in self.fanouts[v]:
                if gate[w]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        order.append(w)
        return tuple(order)

    @cached_property
    def levels(self) -> np.ndarray:
        """Read-only combinational level of every node: 0 at PIs and FF
        outputs, one above the deepest fanin at a gate.  Raises
        ``CircuitError`` on a combinational loop or a gate without fanins."""
        stuck = len(self.gates) - len(self.gate_order)
        if stuck:
            raise CircuitError(f"combinational loop through {stuck} nodes")
        level = [0] * self.n
        for v in self.gate_order:
            if not self.fanins[v]:
                raise CircuitError(str(Violation(
                    v, "arity", f"{self.kinds[v].name} has no fanins")))
            level[v] = 1 + max(level[u] for u in self.fanins[v])
        out = np.array(level, dtype=np.intp)
        out.flags.writeable = False
        return out

    @cached_property
    def sccs(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components of the fanin graph, FF edges
        included, each after the components of its fanins.  Fanins must be
        in range.

        Two passes (Kosaraju): a depth-first walk over fanouts lists the
        nodes in the order they finish; then, from the last to finish
        backwards, each node not yet placed starts a component of the
        unplaced nodes it reaches over fanins.
        """
        fanouts, fanins = self.fanouts, self.fanins
        seen = [False] * self.n
        finished = []
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            stack = [(root, iter(fanouts[root]))]
            while stack:
                v, rest = stack[-1]
                for w in rest:
                    if not seen[w]:
                        seen[w] = True
                        stack.append((w, iter(fanouts[w])))
                        break
                else:
                    stack.pop()
                    finished.append(v)
        placed = [False] * self.n
        sccs = []
        for root in reversed(finished):
            if placed[root]:
                continue
            placed[root] = True
            comp = [root]
            for v in comp:  # the list grows while it is walked
                for u in fanins[v]:
                    if not placed[u]:
                        placed[u] = True
                        comp.append(u)
            sccs.append(tuple(comp))
        return tuple(sccs)

    @cached_property
    def id_to_name(self) -> dict[int, str]:
        return {i: name for name, i in self.name_map.items()}

    def nodes_of_kind(self, kind: NodeKind) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == kind]

    @cached_property  # this and the next two lists are shared: never mutate
    def pis(self) -> list[int]:
        return self.nodes_of_kind(NodeKind.PI)

    @cached_property
    def ffs(self) -> list[int]:
        return self.nodes_of_kind(NodeKind.FF)

    @cached_property
    def gates(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds)
                if k in (NodeKind.AND, NodeKind.NOT)]

    def workload_pis(self) -> list[int]:
        """PIs that take stimulus (the pinned constant input is excluded)."""
        return [i for i in self.pis if i != self.const_id]

    def reset_value(self, ff: int) -> int:
        return self.ff_reset.get(ff, 0)

    def counts(self) -> dict[str, int]:
        return {k.name: len(self.nodes_of_kind(k)) for k in NodeKind}


def validate(g: CircuitGraph) -> list[Violation]:
    """Check structural invariants; returns an empty list iff the graph is clean."""
    out: list[Violation] = []
    n = g.n
    for v, kind in enumerate(g.kinds):
        fi = g.fanins[v]
        if len(fi) != ARITY[kind]:
            out.append(Violation(v, "arity",
                                 f"{kind.name} has {len(fi)} fanins, wants {ARITY[kind]}"))
        for u in fi:
            if not (0 <= u < n):
                out.append(Violation(v, "fanin-range", f"fanin {u} out of 0..{n - 1}"))
    for p in g.pos:
        if not (0 <= p < n):
            out.append(Violation(p, "po-range"))
    if g.const_id is not None and g.kinds[g.const_id] != NodeKind.PI:
        out.append(Violation(g.const_id, "const-kind", "constant node must be a PI"))
    for ff, r in g.ff_reset.items():
        if g.kinds[ff] != NodeKind.FF or r not in (0, 1):
            out.append(Violation(ff, "reset", f"reset={r}"))
    if any(v.rule in ("arity", "fanin-range") for v in out):
        return out

    # Combinational acyclicity: with the edges into FFs cut, every gate has
    # a place in the topological order.
    gates = g.gates
    if len(g.gate_order) < len(gates):
        placed = set(g.gate_order)
        stuck = [v for v in gates if v not in placed]
        out.append(Violation(min(stuck), "acyclicity",
                             f"combinational loop through {len(stuck)} nodes"))
    return out


def require_valid(g: CircuitGraph):
    """Raise ``CircuitError`` naming every violation if ``g`` fails ``validate``."""
    bad = validate(g)
    if bad:
        raise CircuitError("graph fails validation: " + "; ".join(map(str, bad)))


class CircuitBuilder:
    """Incremental constructor; dedups inverters and collapses double negation."""

    def __init__(self):
        self.kinds: list[NodeKind] = []
        self.fanins: list[tuple[int, ...]] = []
        self.pos: list[int] = []
        self.name_map: dict[str, int] = {}
        self.ff_reset: dict[int, int] = {}
        self.const_id: int | None = None
        self._not_of: dict[int, int] = {}

    def _new(self, kind: NodeKind, fanins: tuple[int, ...], name: str | None) -> int:
        nid = len(self.kinds)
        self.kinds.append(kind)
        self.fanins.append(fanins)
        if name is not None:
            if name in self.name_map:
                raise CircuitError(f"net name redefined: {name!r}")
            self.name_map[name] = nid
        return nid

    def add_pi(self, name: str | None = None) -> int:
        return self._new(NodeKind.PI, (), name)

    def add_ff(self, name: str | None = None, reset: int = 0) -> int:
        nid = self._new(NodeKind.FF, (), name)
        if reset:
            self.ff_reset[nid] = 1
        return nid

    def set_ff_input(self, ff: int, src: int):
        if self.kinds[ff] != NodeKind.FF:
            raise CircuitError(f"node {ff} is not an FF")
        self.fanins[ff] = (src,)

    def add_and(self, a: int, b: int, name: str | None = None) -> int:
        return self._new(NodeKind.AND, (a, b), name)

    def add_not(self, src: int, name: str | None = None) -> int:
        nid = self._new(NodeKind.NOT, (src,), name)
        self._not_of.setdefault(src, nid)
        return nid

    def make_not(self, src: int, name: str | None = None) -> int:
        """Inverter over ``src``, reusing an existing one and cancelling NOT(NOT(x))."""
        if self.kinds[src] == NodeKind.NOT:
            nid = self.fanins[src][0]
        elif src in self._not_of:
            nid = self._not_of[src]
        else:
            return self.add_not(src, name)
        if name is not None:
            if name in self.name_map:
                raise CircuitError(f"net name redefined: {name!r}")
            self.name_map[name] = nid
        return nid

    def const_false(self) -> int:
        if self.const_id is None:
            self.const_id = self.add_pi()
        return self.const_id

    def set_outputs(self, ids):
        self.pos = list(ids)

    def build(self, check: bool = True) -> CircuitGraph:
        g = CircuitGraph(kinds=tuple(self.kinds),
                         fanins=tuple(self.fanins),
                         pos=tuple(self.pos),
                         name_map=dict(self.name_map),
                         ff_reset=dict(self.ff_reset),
                         const_id=self.const_id)
        if check:
            bad = validate(g)
            if bad:
                raise CircuitError("; ".join(str(v) for v in bad))
        return g


@dataclass(frozen=True)
class GenSpec:
    """Request for one random sequential circuit."""

    n_pi: int
    n_and: int
    n_not: int
    n_ff: int
    seed: int = 0
    feedback_prob: float = 0.5

    def check(self):
        if min(self.n_pi, self.n_and, self.n_not, self.n_ff) < 0:
            raise CircuitError("negative node count")
        if self.n_pi < 1:
            raise CircuitError("need at least one PI")
        if not 0.0 <= self.feedback_prob <= 1.0:
            raise CircuitError("feedback_prob outside [0, 1]")
        if self.n_and > 0 and self.n_pi + self.n_ff < 2:
            raise CircuitError("AND gates need at least two source nodes")


def random_spec(seed: int, mean_nodes: float = 214.35, std_nodes: float = 92.63,
                feedback_prob: float = 0.5) -> GenSpec:
    """Draw a GenSpec whose total node count follows the given distribution.

    Kind fractions (9% PI, 8% FF, 22% NOT, rest AND) approximate optimized
    AIG netlists at small scale.
    """
    rng = np.random.default_rng([int(seed), 0x67656E])
    total = max(16, int(round(rng.normal(mean_nodes, std_nodes))))
    n_pi = max(2, int(round(total * 0.09)))
    n_ff = max(1, int(round(total * 0.08)))
    n_not = max(1, int(round(total * 0.22)))
    n_and = max(1, total - n_pi - n_ff - n_not)
    return GenSpec(n_pi=n_pi, n_and=n_and, n_not=n_not, n_ff=n_ff,
                   seed=int(rng.integers(2 ** 62)), feedback_prob=feedback_prob)


def _ff_supports(kinds, fanins, n_pi, n_ff):
    """Per-node bitmask of FF indices appearing in the source cone.

    One pass in id order is exact: in ``generate`` every gate reads lower
    ids, since a rewired fanin is an FF output and FFs precede every gate.
    """
    sup = [0] * len(kinds)
    for v in range(n_pi, n_pi + n_ff):
        sup[v] = 1 << (v - n_pi)
    for v, kind in enumerate(kinds):
        if kind in (NodeKind.AND, NodeKind.NOT):
            for u in fanins[v]:
                sup[v] |= sup[u]
    return sup


def generate(spec: GenSpec, return_summary: bool = False):
    """Build a random valid sequential circuit, deterministic under the seed.

    FF feedback is controlled per FF: with probability ``feedback_prob`` an
    FF is allowed (and encouraged) to have its own output in its D cone.
    With ``feedback_prob == 0`` the result is guaranteed to be fully acyclic.
    """
    spec.check()
    rng = np.random.default_rng(spec.seed)

    b = CircuitBuilder()
    pis = [b.add_pi() for _ in range(spec.n_pi)]
    ffs = [b.add_ff() for _ in range(spec.n_ff)]

    plan = ["AND"] * spec.n_and + ["NOT"] * spec.n_not
    rng.shuffle(plan)
    # Nodes a NOT may still invert, in id order: every non-NOT node that no
    # NOT reads yet.
    invertible = pis + ffs
    skipped_not = 0
    for op in plan:
        if op == "AND":
            a, c = rng.choice(len(b.kinds), size=2, replace=False)
            invertible.append(b.add_and(int(a), int(c)))
        elif invertible:
            b.add_not(invertible.pop(rng.integers(len(invertible))))
        else:
            skipped_not += 1

    flags = list(rng.random(spec.n_ff) < spec.feedback_prob)
    if spec.feedback_prob > 0 and spec.n_ff > 0 and not any(flags):
        flags[rng.integers(spec.n_ff)] = True

    sup = _ff_supports(b.kinds, b.fanins, spec.n_pi, spec.n_ff)
    achieved = [False] * spec.n_ff
    for i, ff in enumerate(ffs):
        allowed = (1 << i) - 1
        if flags[i]:
            allowed |= 1 << i
        cand = [v for v in range(len(b.kinds))
                if v != ff and sup[v] | allowed == allowed]
        if flags[i]:
            pref = [v for v in cand if sup[v] & (1 << i)]
            if not pref:
                gates = [v for v in cand
                         if b.kinds[v] in (NodeKind.AND, NodeKind.NOT)]
                if gates:
                    # Rewire one fanin of a random gate to this FF's output so
                    # the requested feedback cycle actually exists.
                    gsel = gates[rng.integers(len(gates))]
                    fi = list(b.fanins[gsel])
                    fi[rng.integers(len(fi))] = ff
                    b.fanins[gsel] = tuple(fi)
                    sup = _ff_supports(b.kinds, b.fanins, spec.n_pi, spec.n_ff)
                    pref = [v for v in range(len(b.kinds))
                            if v != ff and sup[v] | allowed == allowed
                            and sup[v] & (1 << i)]
                else:
                    pref = [ff]  # degenerate: D wired straight to own output
            pick = pref[rng.integers(len(pref))]
            achieved[i] = bool(pick == ff or sup[pick] & (1 << i))
        else:
            pick = cand[rng.integers(len(cand))]
        b.set_ff_input(ff, pick)

    has_fanout = [False] * len(b.kinds)
    for fi in b.fanins:
        for u in fi:
            has_fanout[u] = True
    b.set_outputs(v for v in range(len(b.kinds)) if not has_fanout[v])
    g = b.build()

    if not return_summary:
        return g
    summary = {
        "counts": g.counts(),
        "seed": spec.seed,
        "skipped_not": skipped_not,
        "feedback_requested": [bool(f) for f in flags],
        "feedback_achieved": achieved,
        "outputs": len(g.pos),
    }
    return g, summary


def isomorphic(g1: CircuitGraph, g2: CircuitGraph) -> bool:
    """Kind-preserving structural bijection test.

    The candidate map pairs PIs, FFs and ANDs in ascending-id order (the
    order the AIGER writer/reader preserve) and derives NOT matches from
    their fanins.
    """
    if g1.n != g2.n or g1.counts() != g2.counts():
        return False
    m: dict[int, int] = {}
    for kind in (NodeKind.PI, NodeKind.FF, NodeKind.AND):
        a = g1.nodes_of_kind(kind)
        c = g2.nodes_of_kind(kind)
        m.update(zip(a, c))

    not2 = {}
    for v in g2.nodes_of_kind(NodeKind.NOT):
        not2[g2.fanins[v][0]] = v
    pending = g1.nodes_of_kind(NodeKind.NOT)
    while pending:
        rest = []
        for v in pending:
            src = g1.fanins[v][0]
            if src in m:
                tgt = not2.get(m[src])
                if tgt is None:
                    return False
                m[v] = tgt
            else:
                rest.append(v)
        if len(rest) == len(pending):
            return False
        pending = rest

    if len(set(m.values())) != g1.n:
        return False
    for v in range(g1.n):
        if g1.kinds[v] != g2.kinds[m[v]]:
            return False
        if tuple(m[u] for u in g1.fanins[v]) != g2.fanins[m[v]]:
            return False
    if tuple(m[p] for p in g1.pos) != g2.pos:
        return False
    if (g1.const_id is None) != (g2.const_id is None):
        return False
    if g1.const_id is not None and m[g1.const_id] != g2.const_id:
        return False
    for ff in g1.ffs:
        if g1.reset_value(ff) != g2.reset_value(m[ff]):
            return False
    return True
