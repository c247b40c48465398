"""Supervision signal generation for netlist representation learning.

Five signals: per-node logic-1 and transition probabilities (from
simulation), reconvergence labels on AND fanin pairs, truth-table distances
for sampled combinational pairs, and state-transition similarity for
eligible FF pairs.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitGraph, CircuitError, NodeKind
from .simulate import (CHUNK_WORDS, WORD, WORD_BITS, FFTraces, SimConfig,
                       SimStats, Workload, eval_levels, gate_sweeps,
                       gate_table, pack_patterns, pattern_mask, simulate)

MAX_PAIR_SUPPORT = 16
_GATES = (NodeKind.AND, NodeKind.NOT)

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

def source_masks(g: CircuitGraph, sources) -> list[int]:
    """Per-node bitmask of the ``sources`` (PIs and FF outputs, bit v for
    node v) that its backward trace through AND/NOT nodes reaches."""
    mask = [0] * g.n
    for v in sources:
        mask[v] = 1 << v
    for v in g.gate_order:
        m = 0
        for u in g.fanins[v]:
            m |= mask[u]
        mask[v] = m
    return mask


def support_masks(g: CircuitGraph) -> list[int]:
    """Per-node bitmask of free combinational sources (PIs and FF outputs).

    The pinned constant input is not free, so it contributes no support bit.
    """
    return source_masks(g, [v for v in g.pis + g.ffs if v != g.const_id])


def reconvergence_pairs(g: CircuitGraph) -> list[tuple[int, int, int, int]]:
    """Label every AND fanin pair: 1 iff the two backward cones intersect.

    Every gate's cone ends at PIs and FF outputs, so two cones meet iff
    they reach a common PI (the constant included) or FF output."""
    g.levels  # CircuitError where that fails: a loop, a gate without fanins
    src = source_masks(g, g.pis + g.ffs)
    out = []
    for v in g.nodes_of_kind(NodeKind.AND):
        a, b = g.fanins[v]
        out.append((a, b, v, 1 if src[a] & src[b] else 0))
    return out


def _cone_walk(g: CircuitGraph, ends, seen: set) -> list[int]:
    """Nodes of the backward cones of ``ends`` (the ends, the gates behind
    them and the PIs and FF outputs where the trace stops) not in ``seen``,
    a union of whole cones, which the walk skips; it adds them to ``seen``."""
    kinds, fanins = g.kinds, g.fanins
    found = [v for v in set(ends) if v not in seen]
    seen.update(found)
    for v in found:  # the list grows while it is walked
        if kinds[v] in _GATES:
            for u in fanins[v]:
                if u not in seen:
                    seen.add(u)
                    found.append(u)
    return found


def truth_table_distance(g: CircuitGraph, i: int, j: int, sup=None) -> float:
    """Normalized Hamming distance of two combinational functions.

    Both cones are evaluated over an exhaustive assignment of their joint
    source support (FF outputs treated as free inputs); the support size is
    capped at MAX_PAIR_SUPPORT.  ``sup`` takes precomputed support masks;
    without them each call builds the masks of the whole graph.  Only the
    rows of the two cones are encoded and swept, as one chunk of
    ``pair_distances`` would sweep them.
    """
    for v in (i, j):
        if g.kinds[v] not in _GATES:
            raise LabelError(f"node {v} is not combinational")
    if sup is None:
        sup = support_masks(g)
    level = g.levels  # raises CircuitError on a combinational loop
    rows = np.array(sorted(_cone_walk(g, (i, j), set())), dtype=np.intp)
    return _chunk_distances([(i, j)], sup, rows,
                            gate_table(g, rows, level[rows]))[0]


def _bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of a non-negative int."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.cache
def _standard_table() -> np.ndarray:
    """(16, 1024) words: row b is variable b over the 2^16 assignments, set
    where bit b of the assignment index is (the layout of
    ``_enumerate_truth``).  The first 2^k bits of rows 0..k-1 enumerate
    every assignment of k variables."""
    idx = np.arange(1 << MAX_PAIR_SUPPORT)
    table = np.stack([pack_patterns((idx >> b & 1).astype(bool))
                      for b in range(MAX_PAIR_SUPPORT)])
    table.flags.writeable = False  # one cached copy serves every caller
    return table


def _table_words(k: int) -> int:
    return max(1, (1 << k) // WORD_BITS)


def pair_distances(g: CircuitGraph, pairs, sup) -> list[float]:
    """Truth-table distances of gate pairs, one ``eval_levels`` per chunk.

    Pair p owns a block of ``_table_words(k)`` words; its k joint sources,
    in ascending id order, hold the first 2^k bits of the standard table,
    so the block of every node in its cones is that node's truth table.
    The distance is the popcount of the XOR over the first 2^k bits, an
    integer over 2^k.  A chunk's rows are the union of its pairs' cones,
    which a walk from each pair's two ends grows, and rows x words stays
    within CHUNK_WORDS (one pair may exceed it alone).  ``sup`` holds
    ``support_masks(g)``; a pair whose joint support exceeds
    MAX_PAIR_SUPPORT sources raises ``LabelError``.
    """
    table = gate_table(g, range(g.n), g.levels)
    out: list[float] = []
    start = 0
    while start < len(pairs):
        chunk, words, stop = set(), 0, start
        while stop < len(pairs):
            i, j = pairs[stop]
            fresh = _cone_walk(g, (i, j), chunk)
            w = _table_words(min((sup[i] | sup[j]).bit_count(),
                                 MAX_PAIR_SUPPORT))
            if stop > start and len(chunk) * (words + w) > CHUNK_WORDS:
                chunk.difference_update(fresh)
                break
            words, stop = words + w, stop + 1
        rows = np.array(sorted(chunk), dtype=np.intp)
        out += _chunk_distances(pairs[start:stop], sup, rows,
                                [a[rows] for a in table])
        start = stop
    return out


def _chunk_distances(pairs, sup, rows, table) -> list[float]:
    """Distances of ``pairs`` over one packed sweep of ``rows``.

    ``rows`` are ascending node ids that cover every pair's cones, and
    ``table`` is their ``gate_table``: only the levels the rows sit on are
    swept.
    """
    joint = [sup[i] | sup[j] for i, j in pairs]
    ks = np.array([m.bit_count() for m in joint])
    if ks.max() > MAX_PAIR_SUPPORT:
        raise LabelError(f"joint support {ks.max()} exceeds {MAX_PAIR_SUPPORT}")
    at = np.searchsorted(rows, [v for m in joint for v in _bits(m)])
    widths = np.array([_table_words(k) for k in ks])
    standard = _standard_table()
    vals = np.zeros((len(rows), int(widths.sum())), dtype=WORD)
    col = 0
    for k, w in zip(ks, widths):
        vals[at[:k], col:col + w] = standard[:k, :w]
        at, col = at[k:], col + w
    level, fa, fb, inv = table
    eval_levels(gate_sweeps((level, np.searchsorted(rows, fa),
                             np.searchsorted(rows, fb), inv)), vals)

    owner = np.repeat(np.arange(len(pairs)), widths)
    cols = np.arange(len(owner))
    li = np.searchsorted(rows, [i for i, _ in pairs])[owner]
    lj = np.searchsorted(rows, [j for _, j in pairs])[owner]
    mask = np.array([(1 << (1 << k)) - 1 if k < 6 else (1 << WORD_BITS) - 1
                     for k in ks], dtype=WORD)[owner]
    diff = np.bitwise_count((vals[li, cols] ^ vals[lj, cols]) & mask)
    counts = np.add.reduceat(diff, np.cumsum(widths) - widths, dtype=np.int64)
    return [int(c) / (1 << int(k)) for c, k in zip(counts, ks)]


def _packed_supports(g: CircuitGraph, sup, gates) -> np.ndarray:
    """(len(gates), W) words of each gate's support, one bit per free source."""
    sources = [v for v in g.pis + g.ffs if v != g.const_id]
    col = np.full(g.n, -1, dtype=np.intp)
    col[sources] = np.arange(len(sources))
    bits = [col[_bits(sup[v])] for v in gates]
    rows = np.repeat(np.arange(len(gates)), [len(b) for b in bits])
    cols = np.concatenate(bits) if bits else np.zeros(0, dtype=np.intp)
    words = np.zeros((len(gates), -(-len(sources) // WORD_BITS)), dtype=WORD)
    np.bitwise_or.at(words, (rows, cols // WORD_BITS),
                     np.left_shift(WORD.type(1), (cols % WORD_BITS).astype(WORD)))
    return words


def _triangle_pairs(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with a < b of each index of the enumeration (0, 1), (0, 2),
    (1, 2), (0, 3), ...: b is the largest with b(b-1)/2 <= idx."""
    b = ((1 + np.sqrt(8 * idx.astype(np.float64) + 1)) / 2).astype(np.int64)
    b -= b * (b - 1) // 2 > idx  # the float root may be one off either way
    b += b * (b + 1) // 2 <= idx
    return idx - b * (b - 1) // 2, b


def _eligible(words: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows (a, b) of ``words`` whose joint support has at most
    MAX_PAIR_SUPPORT sources, gathered in slices within CHUNK_WORDS."""
    step = max(1, CHUNK_WORDS // max(1, words.shape[1]))
    return np.concatenate([
        np.bitwise_count(words[a[s:s + step]] | words[b[s:s + step]]
                         ).sum(axis=1) <= MAX_PAIR_SUPPORT
        for s in range(0, len(a), step)])


def _draw_pairs(counts: np.ndarray, target_count: int, seed: int, tag: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draw min(target_count, total) of the ``counts.sum()`` pairs uniformly
    without replacement from the stream (seed, tag), where row r owns
    ``counts[r]`` consecutive pair indices.  Returns each drawn pair's row
    and its rank within the row, in index order."""
    total = int(counts.sum())
    rng = np.random.default_rng([int(seed), tag])
    chosen = np.sort(rng.choice(total, size=min(target_count, total),
                                replace=False))
    ends = np.cumsum(counts)
    row = np.searchsorted(ends, chosen, side="right")
    return row, chosen - (ends[row] - counts[row])


def sample_f_pairs(g: CircuitGraph, target_count: int | None, seed: int
                   ) -> list[tuple[int, int, float]]:
    """Uniformly sample eligible combinational pairs and label their distance.

    A pair i < j of gates is eligible when its joint support has at most
    MAX_PAIR_SUPPORT sources.  The draw is by rejection, and no pair list
    is built: a uniformly ordered sample of 2 x target gate-pair indices
    (doubled until it holds the target or covers every pair) keeps its
    first ``target_count`` eligible pairs, returned in ascending (i, j).
    """
    if target_count is None:
        target_count = max(1, round(F_PAIRS_PER_CIRCUIT * g.n / REFERENCE_NODES))
    sup = support_masks(g)
    gates = np.array([v for v in g.gates
                      if sup[v].bit_count() <= MAX_PAIR_SUPPORT], dtype=np.intp)
    total = len(gates) * (len(gates) - 1) // 2
    if target_count <= 0 or total == 0:
        return []
    words = _packed_supports(g, sup, gates)
    rng = np.random.default_rng([int(seed), 0xF0])
    size = 2 * target_count
    while True:
        size = min(size, total)
        a, b = _triangle_pairs(rng.choice(total, size=size, replace=False))
        keep = np.flatnonzero(_eligible(words, a, b))[:target_count]
        if len(keep) == target_count or size == total:
            break
        size *= 2
    a, b = a[keep], b[keep]
    order = np.lexsort((b, a))
    pairs = [(int(gates[i]), int(gates[j]))
             for i, j in zip(a[order], b[order])]
    dists = pair_distances(g, pairs, sup)
    return [(i, j, d) for (i, j), d in zip(pairs, dists)]


# --- FF pair machinery ------------------------------------------------------

def transitive_pi_support(g: CircuitGraph) -> list[int]:
    """Per-node bitmask of PIs reachable backward through gates and FFs.

    One pass over ``g.sccs``, each component after those of its fanins;
    the nodes of a component share one mask.
    """
    sup = [0] * g.n
    for comp in g.sccs:
        m = 0
        for v in comp:
            if g.kinds[v] == NodeKind.PI:
                if v != g.const_id:
                    m |= 1 << v
            else:
                for u in g.fanins[v]:
                    m |= sup[u]
        for v in comp:
            sup[v] = m
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


def ff_similarity(states_i: np.ndarray, states_j: np.ndarray,
                  n_patterns: int) -> float | None:
    """Ratio of matching state transitions to matching states.

    ``states_i`` and ``states_j`` are two FFs' (T, W) packed state words
    over ``n_patterns`` patterns (``FFTraces.states``).  Per pattern and per
    cycle t >= 1: a cycle counts toward the denominator when both FFs held
    the same state at t-1, and toward the numerator when they additionally
    agree at t.  The padding lanes of a last partial word are masked.
    Returns None when the FFs never share a state (the pair carries no
    signal).
    """
    if states_i.shape != states_j.shape:
        raise LabelError("traces not aligned")
    same = ~(states_i ^ states_j)
    state = same[:-1] & pattern_mask(n_patterns)
    denom = int(np.bitwise_count(state).sum())
    if denom == 0:
        return None
    return int(np.bitwise_count(state & same[1:]).sum()) / denom


def sample_ffsim_pairs(g: CircuitGraph, stats: SimStats,
                       target_count: int | None, seed: int):
    """Sample eligible FF pairs and label their transition similarity.

    FFs are grouped on their (transitive PI support, sequential depth) key,
    so no pair list is built: the draw depends only on the number of
    eligible pairs, and each drawn index maps back to its pair in the order
    of an enumeration over (i, later j) with ``ff_pair_eligible``.
    """
    if target_count is None:
        target_count = max(1, round(FF_PAIRS_PER_CIRCUIT * g.n / REFERENCE_NODES))
    sup = transitive_pi_support(g)
    depth = sequential_depths(g)
    groups: dict[tuple, list[int]] = {}
    for f in g.ffs:
        if sup[f] and depth[f] != float("inf"):
            groups.setdefault((sup[f], depth[f]), []).append(f)
    place = sorted((f, members, p) for members in groups.values()
                   for p, f in enumerate(members))
    counts = np.array([len(members) - p - 1 for _, members, p in place],
                      dtype=np.int64)
    if not counts.any() or target_count <= 0:
        return [], 0
    if not isinstance(stats.traces, FFTraces):
        raise LabelError("FF-similarity labels need simulated traces; "
                         "exact statistics carry none")
    out = []
    skipped = 0
    for r, rank in zip(*_draw_pairs(counts, target_count, seed, 0xFF)):
        i, members, p = place[r]
        j = members[p + 1 + int(rank)]
        sim = ff_similarity(stats.traces.states(i), stats.traces.states(j),
                            stats.n_patterns)
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
