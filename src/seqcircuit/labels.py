"""Supervision signal generation for netlist representation learning.

Five signals: per-node logic-1 and transition probabilities (from
simulation), reconvergence labels on AND fanin pairs, truth-table distances
for sampled combinational pairs, and state-transition similarity for
eligible FF pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuit import CircuitGraph, CircuitError, NodeKind
from .simulate import SimConfig, SimStats, Workload, simulate

MAX_PAIR_SUPPORT = 16

# Desk-scale defaults mirroring the per-circuit pair budgets of the training
# recipe (pairs per circuit, scaled by node count relative to the reference
# average circuit size).
F_PAIRS_PER_CIRCUIT = 543.17
FF_PAIRS_PER_CIRCUIT = 495.26
REFERENCE_NODES = 214.35


class LabelError(CircuitError):
    pass


@dataclass
class LabelSet:
    """All supervision targets for one circuit."""

    p1: np.ndarray
    ptr: np.ndarray
    rc_pairs: list[tuple[int, int, int, int]]          # (fanin_a, fanin_b, gate, label)
    f_pairs: list[tuple[int, int, float]]              # (node_i, node_j, tt distance)
    ffsim_pairs: list[tuple[int, int, float]]          # (ff_i, ff_j, similarity)
    skipped_ff_pairs: int = 0
    flip: np.ndarray | None = None                     # (n, 2) fault flip rates p01, p10

    @classmethod
    def empty(cls, n: int) -> "LabelSet":
        """Zero targets and no pairs, for inference and flip-rate tuning."""
        return cls(p1=np.zeros(n), ptr=np.zeros(n), rc_pairs=[], f_pairs=[],
                   ffsim_pairs=[])

    def to_json_record(self, circuit_path: str, workload: Workload,
                       cfg: SimConfig) -> str:
        doc = {
            "circuit_path": circuit_path,
            "workload": workload.to_json_dict(),
            "sim": {"n_patterns": cfg.n_patterns, "n_cycles": cfg.n_cycles,
                    "seed": cfg.seed},
            "p1": [float(x) for x in self.p1],
            "ptr": [float(x) for x in self.ptr],
            "rc": [[a, b, g, l] for a, b, g, l in self.rc_pairs],
            "f": [[i, j, d] for i, j, d in self.f_pairs],
            "ffsim": [[i, j, s] for i, j, s in self.ffsim_pairs],
        }
        return json.dumps(doc)

    @classmethod
    def from_json_record(cls, line: str):
        doc = json.loads(line)
        ls = cls(p1=np.array(doc["p1"]), ptr=np.array(doc["ptr"]),
                 rc_pairs=[tuple(r) for r in doc["rc"]],
                 f_pairs=[(r[0], r[1], float(r[2])) for r in doc["f"]],
                 ffsim_pairs=[(r[0], r[1], float(r[2])) for r in doc["ffsim"]])
        wl = Workload.from_json_dict(doc["workload"])
        cfg = SimConfig(**doc["sim"])
        return doc["circuit_path"], wl, cfg, ls


# --- structural helpers -----------------------------------------------------

def combinational_cones(g: CircuitGraph) -> list[int]:
    """Per-node bitmask of the backward cone through AND/NOT nodes.

    The cone includes the node itself and its boundary sources (PIs and FF
    outputs), where the backward trace stops.
    """
    cone = [0] * g.n
    for v in g.pis + g.ffs:
        cone[v] = 1 << v
    for v in g.gate_order:
        m = 1 << v
        for u in g.fanins[v]:
            m |= cone[u]
        cone[v] = m
    return cone


def support_masks(g: CircuitGraph) -> list[int]:
    """Per-node bitmask of free combinational sources (PIs and FF outputs).

    The pinned constant input is not free, so it contributes no support bit.
    """
    sup = [0] * g.n
    for v in g.pis + g.ffs:
        if v != g.const_id:
            sup[v] = 1 << v
    for v in g.gate_order:
        m = 0
        for u in g.fanins[v]:
            m |= sup[u]
        sup[v] = m
    return sup


def reconvergence_pairs(g: CircuitGraph) -> list[tuple[int, int, int, int]]:
    """Label every AND fanin pair: 1 iff the two backward cones intersect."""
    cone = combinational_cones(g)
    out = []
    for v in g.nodes_of_kind(NodeKind.AND):
        a, b = g.fanins[v]
        label = 1 if cone[a] & cone[b] else 0
        out.append((a, b, v, label))
    return out


def truth_table_distance(g: CircuitGraph, i: int, j: int, sup=None) -> float:
    """Normalized Hamming distance of two combinational functions.

    Both cones are evaluated over an exhaustive assignment of their joint
    source support (FF outputs treated as free inputs); the support size is
    capped at MAX_PAIR_SUPPORT.  ``sup`` takes precomputed support masks.
    """
    for v in (i, j):
        if g.kinds[v] not in (NodeKind.AND, NodeKind.NOT):
            raise LabelError(f"node {v} is not combinational")
    if sup is None:
        sup = support_masks(g)
    joint = sup[i] | sup[j]
    sources = [v for v in range(g.n) if joint >> v & 1]
    if len(sources) > MAX_PAIR_SUPPORT:
        raise LabelError(f"joint support {len(sources)} exceeds {MAX_PAIR_SUPPORT}")
    ti = _eval_over_support(g, i, sources)
    tj = _eval_over_support(g, j, sources)
    return float(np.mean(ti != tj))


def _eval_over_support(g: CircuitGraph, target: int, sources: list[int]):
    size = 1 << len(sources)
    idx = np.arange(size)
    memo: dict[int, np.ndarray] = {}
    for b, s in enumerate(sources):
        memo[s] = ((idx >> b) & 1).astype(bool)

    order = []
    seen = set(memo)
    stack = [target]
    while stack:  # iterative post-order over the cone
        v = stack.pop()
        if v >= 0:
            if v in seen:
                continue
            seen.add(v)
            stack.append(~v)
            stack.extend(g.fanins[v])
        else:
            order.append(~v)
    for v in order:
        if g.kinds[v] == NodeKind.AND:
            memo[v] = memo[g.fanins[v][0]] & memo[g.fanins[v][1]]
        elif g.kinds[v] == NodeKind.NOT:
            memo[v] = ~memo[g.fanins[v][0]]
        elif v == g.const_id:
            memo[v] = np.zeros(size, dtype=bool)
        else:
            raise LabelError(f"cone of {target} reaches non-source node {v}")
    return memo[target]


def eligible_f_pairs(g: CircuitGraph, sup=None) -> list[tuple[int, int]]:
    if sup is None:
        sup = support_masks(g)
    gates = g.gates
    out = []
    for ii, i in enumerate(gates):
        for j in gates[ii + 1:]:
            if bin(sup[i] | sup[j]).count("1") <= MAX_PAIR_SUPPORT:
                out.append((i, j))
    return out


def sample_f_pairs(g: CircuitGraph, target_count: int | None, seed: int
                   ) -> list[tuple[int, int, float]]:
    """Uniformly sample eligible combinational pairs and label their distance."""
    if target_count is None:
        target_count = max(1, round(F_PAIRS_PER_CIRCUIT * g.n / REFERENCE_NODES))
    sup = support_masks(g)
    elig = eligible_f_pairs(g, sup)
    if not elig or target_count <= 0:
        return []
    rng = np.random.default_rng([int(seed), 0xF0])
    take = min(target_count, len(elig))
    chosen = rng.choice(len(elig), size=take, replace=False)
    out = []
    for c in sorted(chosen):
        i, j = elig[c]
        out.append((i, j, truth_table_distance(g, i, j, sup)))
    return out


# --- FF pair machinery ------------------------------------------------------

def transitive_pi_support(g: CircuitGraph) -> list[int]:
    """Per-node bitmask of PIs reachable backward through gates and FFs."""
    sup = [0] * g.n
    for pi in g.pis:
        if pi != g.const_id:
            sup[pi] = 1 << pi
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if g.kinds[v] == NodeKind.PI:
                continue
            m = sup[v]
            for u in g.fanins[v]:
                m |= sup[u]
            if m != sup[v]:
                sup[v] = m
                changed = True
    return sup


def sequential_depths(g: CircuitGraph) -> list[float]:
    """Minimum number of FFs on any PI-to-node path (0/1 shortest path)."""
    from collections import deque

    INF = float("inf")
    dist = [INF] * g.n
    dq = deque()
    for pi in g.pis:
        dist[pi] = 0
        dq.append(pi)
    while dq:
        u = dq.popleft()
        for w in g.fanouts[u]:
            cost = 1 if g.kinds[w] == NodeKind.FF else 0
            if dist[u] + cost < dist[w]:
                dist[w] = dist[u] + cost
                if cost:
                    dq.append(w)
                else:
                    dq.appendleft(w)
    return dist


def ff_pair_eligible(g: CircuitGraph, i: int, j: int,
                     sup=None, depth=None) -> bool:
    """Eligibility: identical transitive PI support and equal sequential depth."""
    if g.kinds[i] != NodeKind.FF or g.kinds[j] != NodeKind.FF:
        raise LabelError("ff_pair_eligible wants two FFs")
    if sup is None:
        sup = transitive_pi_support(g)
    if depth is None:
        depth = sequential_depths(g)
    if sup[i] == 0 or sup[i] != sup[j]:
        return False
    return depth[i] == depth[j] != float("inf")


def ff_similarity(trace_i: np.ndarray, trace_j: np.ndarray) -> float | None:
    """Ratio of matching state transitions to matching states.

    Per pattern and per cycle t >= 1: a cycle counts toward the denominator
    when both FFs held the same state at t-1, and toward the numerator when
    they additionally agree at t.  Returns None when the FFs never share a
    state (the pair carries no signal).
    """
    if trace_i.shape != trace_j.shape:
        raise LabelError("traces not aligned")
    same = trace_i == trace_j
    state = same[:, :-1]
    trans = state & same[:, 1:]
    denom = int(state.sum())
    if denom == 0:
        return None
    return float(trans.sum() / denom)


def sample_ffsim_pairs(g: CircuitGraph, stats: SimStats,
                       target_count: int | None, seed: int):
    """Sample eligible FF pairs and label their transition similarity."""
    if target_count is None:
        target_count = max(1, round(FF_PAIRS_PER_CIRCUIT * g.n / REFERENCE_NODES))
    ffs = g.ffs
    sup = transitive_pi_support(g)
    depth = sequential_depths(g)
    elig = [(i, j) for ii, i in enumerate(ffs) for j in ffs[ii + 1:]
            if ff_pair_eligible(g, i, j, sup, depth)]
    if not elig or target_count <= 0:
        return [], 0
    rng = np.random.default_rng([int(seed), 0xFF])
    take = min(target_count, len(elig))
    chosen = rng.choice(len(elig), size=take, replace=False)
    out = []
    skipped = 0
    for c in sorted(chosen):
        i, j = elig[c]
        sim = ff_similarity(stats.traces[i], stats.traces[j])
        if sim is None:
            skipped += 1
        else:
            out.append((i, j, sim))
    return out, skipped


def build_labelset(g: CircuitGraph, w: Workload, cfg: SimConfig,
                   f_target: int | None = None, ffsim_target: int | None = None,
                   seed: int = 0, stats: SimStats | None = None) -> LabelSet:
    """Assemble all five supervision signals for one circuit."""
    if stats is None:
        stats = simulate(g, w, cfg)
    f_pairs = sample_f_pairs(g, f_target, seed) if f_target != 0 else []
    ffsim_pairs, skipped = (sample_ffsim_pairs(g, stats, ffsim_target, seed)
                            if ffsim_target != 0 else ([], 0))
    return LabelSet(p1=stats.p1.copy(), ptr=stats.ptr.copy(),
                    rc_pairs=reconvergence_pairs(g),
                    f_pairs=f_pairs, ffsim_pairs=ffsim_pairs,
                    skipped_ff_pairs=skipped)
