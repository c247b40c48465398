"""Level-by-level propagation planning for cyclic sequential netlists.

FF outputs are treated as level-0 sources, which makes the remaining graph
acyclic and yields a topological level order.  Feedback shows up as strongly
connected components of the full graph; each becomes a cyclic region with
its own internal level order so that consumers can re-sweep it.
``node_plan`` computes the plan as per-node arrays, which the model cuts
its node groups from; ``plan_document`` lists the same arrays for
``inspect --plan``.
"""
from __future__ import annotations

import numpy as np

from .circuit import CircuitGraph, NodeKind, require_valid


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


def plan_document(g: CircuitGraph) -> dict:
    """``node_plan`` as the document of ``inspect --plan``: each level's
    nodes by id, the FFs by (level, id), and each region in id order with
    its FFs, its sorted nodes and its internal levels' nodes.

    Raises ``CircuitError`` if the graph fails validation.
    """
    plan = node_plan(g)
    level, inner = plan["level"].tolist(), plan["region_level"].tolist()
    members: list[list[int]] = [[] for _ in plan["wave"]]
    for v, k in enumerate(plan["region"].tolist()):
        if k >= 0:
            members[k].append(v)
    return {
        "levels": _buckets(level, range(g.n)),
        "ff_update_points": sorted(g.ffs, key=lambda f: (level[f], f)),
        "cyclic_regions": [
            {"ffs": [v for v in nodes if g.kinds[v] == NodeKind.FF],
             "nodes": nodes,
             "internal_levels": _buckets([inner[v] - 1 for v in nodes], nodes)}
            for nodes in members],
    }


def _buckets(keys: list[int], ids) -> list[list[int]]:
    """``ids`` grouped by their keys 0 .. max(keys), each in ``ids`` order;
    key 0 is listed even when no id has it."""
    out: list[list[int]] = [[] for _ in range(max(keys, default=0) + 1)]
    for k, v in zip(keys, ids):
        out[k].append(v)
    return out
