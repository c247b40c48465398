"""Level-by-level propagation planning for cyclic sequential netlists.

FF outputs are treated as level-0 sources, which makes the remaining graph
acyclic and yields a topological level order.  Feedback shows up as strongly
connected components of the full graph; each becomes a cyclic region with
its own internal level order so that consumers can re-sweep it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitGraph, NodeKind, require_valid


@dataclass(frozen=True)
class CyclicRegion:
    """A feedback-affected sub-circuit: its FFs, node set, and inner schedule."""

    ffs: tuple[int, ...]
    nodes: frozenset[int]
    internal_levels: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PropagationPlan:
    levels: tuple[tuple[int, ...], ...]
    ff_update_points: tuple[int, ...]
    cyclic_regions: tuple[CyclicRegion, ...]

    def node_level(self) -> dict[int, int]:
        return {v: i for i, lvl in enumerate(self.levels) for v in lvl}

    def to_json(self) -> str:
        doc = {
            "levels": [list(l) for l in self.levels],
            "ff_update_points": list(self.ff_update_points),
            "cyclic_regions": [
                {"ffs": list(r.ffs), "nodes": sorted(r.nodes),
                 "internal_levels": [list(l) for l in r.internal_levels]}
                for r in self.cyclic_regions
            ],
        }
        return json.dumps(doc, indent=2)


def levelize(g: CircuitGraph) -> PropagationPlan:
    """Build the full propagation plan (levels, FF order, cyclic regions).

    Gates sit on their ``g.levels`` and PIs on level 0; an FF updates one
    level after its D input settles, at ``1 + g.levels[D]``.
    """
    regions = detect_cycles(g)  # validates g, once per plan
    level = g.levels.copy()
    level[g.ffs] = 1 + g.levels[[g.fanins[f][0] for f in g.ffs]]
    order = np.argsort(level, kind="stable")
    cuts = np.cumsum(np.bincount(level, minlength=1))[:-1]
    levels = tuple(tuple(b.tolist()) for b in np.split(order, cuts))

    level = level.tolist()
    ffs_sorted = tuple(sorted(g.ffs, key=lambda f: (level[f], f)))
    regions = tuple(sorted(regions,
                           key=lambda r: (min(level[v] for v in r.nodes),
                                          min(r.nodes))))
    return PropagationPlan(levels=levels, ff_update_points=ffs_sorted,
                           cyclic_regions=regions)


def _tarjan_sccs(n, succ):
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def detect_cycles(g: CircuitGraph) -> list[CyclicRegion]:
    """One region per multi-node strongly connected component of the full graph.

    Raises ``CircuitError`` if the graph fails validation.
    """
    require_valid(g)
    sccs = _tarjan_sccs(g.n, g.fanouts)
    regions = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        ffs = tuple(sorted(v for v in comp if g.kinds[v] == NodeKind.FF))
        if not ffs:
            continue  # unreachable for validate-clean graphs
        nodes = frozenset(comp)
        regions.append(CyclicRegion(ffs=ffs, nodes=nodes,
                                    internal_levels=_region_levels(g, nodes)))
    regions.sort(key=lambda r: min(r.nodes))
    return regions


def _region_levels(g: CircuitGraph, nodes: frozenset[int]):
    """Levelize a region: member FF outputs and external fanins count as level 0."""
    level: dict[int, int] = {}

    def src_level(u):
        if u not in nodes or g.kinds[u] in (NodeKind.PI, NodeKind.FF):
            return 0
        return level[u]

    for v in g.gate_order:
        if v in nodes:
            level[v] = 1 + max(src_level(u) for u in g.fanins[v])
    for v in sorted(nodes):
        if g.kinds[v] == NodeKind.FF:
            level[v] = 1 + max(src_level(u) for u in g.fanins[v])
    top = max(level.values(), default=0)
    buckets: list[list[int]] = [[] for _ in range(top)]
    for v, l in level.items():
        buckets[l - 1].append(v)
    return tuple(tuple(sorted(b)) for b in buckets)
