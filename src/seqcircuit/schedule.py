"""Level-by-level propagation planning for cyclic sequential netlists.

FF outputs are treated as level-0 sources, which makes the remaining graph
acyclic and yields a topological level order.  Feedback shows up as strongly
connected components of the full graph; each becomes a cyclic region with
its own internal level order so that consumers can re-sweep it.
``node_plan`` computes the plan as per-node arrays, which the model cuts
its node groups from; ``levelize`` and ``detect_cycles`` view the same
arrays as tuples.
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


def node_plan(g: CircuitGraph) -> dict[str, np.ndarray]:
    """Where every node runs in the sweep, as per-node arrays.

    ``level`` is the sweep level: ``g.levels`` at PIs and gates, and
    ``1 + g.levels[D]`` at an FF, which updates one level after its D input
    settles.  ``region`` numbers the feedback regions, the multi-node
    strongly connected components of the full graph, by (lowest level,
    lowest node id); it is -1 outside every region.  ``region_level`` is a
    region node's level inside its region, from 1, where member FF outputs
    and nodes outside the region count as level 0; it is 0 outside every
    region.  ``wave`` holds each region's wave (``_region_waves``).

    Raises ``CircuitError`` if the graph fails validation.
    """
    require_valid(g)
    level = g.levels.astype(np.int64)
    level[g.ffs] = 1 + g.levels[[g.fanins[f][0] for f in g.ffs]]
    lv = level.tolist()
    sccs = sorted((c for c in g.sccs if len(c) > 1),
                  key=lambda c: (min(lv[v] for v in c), min(c)))
    region = np.full(g.n, -1, dtype=np.int64)
    for k, comp in enumerate(sccs):
        region[list(comp)] = k

    # One pass: gates in topological order, then the FFs, which read no
    # FF's inner level.
    kinds, reg = g.kinds, region.tolist()
    inner = [0] * g.n
    for v in (*g.gate_order, *g.ffs):
        k = reg[v]
        if k >= 0:
            inner[v] = 1 + max((inner[u] for u in g.fanins[v]
                                if reg[u] == k and kinds[u] != NodeKind.FF),
                               default=0)
    return {"level": level, "region": region,
            "region_level": np.array(inner, dtype=np.int64),
            "wave": _region_waves(g, reg, len(sccs))}


def _region_waves(g: CircuitGraph, reg: list[int], count: int) -> np.ndarray:
    """Each region's wave: its depth in the region contact graph, from 0.

    Region k is one deeper than the deepest earlier region j < k that it
    reads or feeds (a node of k has a fanin or fanout in j).  A wave pass
    rewrites only region rows, and a region reads only its own rows, rows
    outside every region and rows of the regions it touches.  So regions of
    one depth share no edge and cannot see each other's updates, while
    regions that touch keep their index order: the waves give the values of
    running the regions one by one in index order.
    """
    # Every contact is a fanin edge of some region node; (later, earlier).
    contacts = {(max(k, j), min(k, j)) for v, k in enumerate(reg) if k >= 0
                for j in (reg[u] for u in g.fanins[v]) if j >= 0 and j != k}
    wave = [0] * count
    for k, j in sorted(contacts):  # j's wave is final before k's first pair
        wave[k] = max(wave[k], wave[j] + 1)
    return np.array(wave, dtype=np.int64)


def levelize(g: CircuitGraph) -> PropagationPlan:
    """The plan of ``node_plan`` as tuples: each level's nodes, the FFs in
    update order and the cyclic regions in id order."""
    plan = node_plan(g)
    level = plan["level"]
    order = np.argsort(level, kind="stable")
    cuts = np.cumsum(np.bincount(level, minlength=1))[:-1]
    levels = tuple(tuple(b.tolist()) for b in np.split(order, cuts))
    level = level.tolist()
    ffs_sorted = tuple(sorted(g.ffs, key=lambda f: (level[f], f)))

    inner = plan["region_level"].tolist()
    members: list[list[int]] = [[] for _ in plan["wave"]]
    for v, k in enumerate(plan["region"].tolist()):
        if k >= 0:
            members[k].append(v)
    regions = []
    for nodes in members:
        inside: list[list[int]] = [[] for _ in range(max(inner[v] for v in nodes))]
        for v in nodes:
            inside[inner[v] - 1].append(v)
        regions.append(CyclicRegion(
            ffs=tuple(v for v in nodes if g.kinds[v] == NodeKind.FF),
            nodes=frozenset(nodes), internal_levels=tuple(map(tuple, inside))))
    return PropagationPlan(levels=levels, ff_update_points=ffs_sorted,
                           cyclic_regions=tuple(regions))


def detect_cycles(g: CircuitGraph) -> list[CyclicRegion]:
    """One region per multi-node strongly connected component of the full
    graph, by lowest node id.

    Raises ``CircuitError`` if the graph fails validation.
    """
    return sorted(levelize(g).cyclic_regions, key=lambda r: min(r.nodes))
