import numpy as np
import pytest

from seqcircuit import CircuitBuilder, NodeKind, Workload, parse_bench
from seqcircuit.simulate import FAULT_STREAM, PI_STREAM, markov_params


def toggle_ff():
    """PI (unused load) plus an FF whose D input is the inverse of its output."""
    b = CircuitBuilder()
    pi = b.add_pi()
    ff = b.add_ff()
    inv = b.add_not(ff)
    b.set_ff_input(ff, inv)
    gate = b.add_and(pi, inv)
    b.set_outputs([gate, ff])
    return b.build(), {"pi": pi, "ff": ff, "inv": inv, "gate": gate}


def and2():
    """Two PIs feeding a single AND gate."""
    b = CircuitBuilder()
    a = b.add_pi()
    c = b.add_pi()
    g = b.add_and(a, c)
    b.set_outputs([g])
    return b.build(), {"a": a, "b": c, "and": g}


def mixed_circuit():
    """Constant input, NOT chains, FFs that reset to 1 and an FF fed by an FF."""
    b = CircuitBuilder()
    x, y = b.add_pi(), b.add_pi()
    c = b.const_false()
    f1, f2, f3 = b.add_ff(reset=1), b.add_ff(reset=1), b.add_ff()
    chain = b.add_not(b.add_not(b.add_not(x)))
    a1 = b.add_and(chain, f1)
    a2 = b.add_and(b.add_not(a1), b.add_not(f2))
    stuck0 = b.add_and(a2, c)
    a4 = b.add_and(b.add_not(stuck0), y)
    a5 = b.add_and(b.add_not(b.add_not(a4)), b.add_not(f3))
    b.set_ff_input(f1, b.add_not(a2))
    b.set_ff_input(f2, a5)
    b.set_ff_input(f3, f1)
    b.set_outputs([a5, stuck0])
    return b.build()


def reference_run(g, w, n_patterns, n_cycles, seed, flip_prob=0.0):
    """Plain per-gate boolean simulation, one numpy call per gate (test oracle).

    Draws the simulator's per-word PI and fault streams and returns node
    values (T, n_nodes, P) and latched FF states (T, n_ffs, P); with
    ``flip_prob`` > 0 these are the faulty run's, every node value flipped
    as it is evaluated.
    """
    P, T, n = n_patterns, n_cycles, g.n
    wl = g.workload_pis()
    p1 = np.array([w.pi_probs[pi][0] for pi in wl])
    rates = np.array([markov_params(*w.pi_probs[pi]) for pi in wl]).reshape(-1, 2)
    # (T, k, P) input uniforms: word w draws lanes 64w .. 64w + 63.
    U = np.concatenate([np.random.default_rng([seed, word, PI_STREAM]).random(
        (T, len(wl), 64)) for word in range(-(-P // 64))], axis=-1)[..., :P]
    flips = np.zeros((P, T, n), dtype=bool)
    for word in range(-(-P // 64) if flip_prob > 0.0 else 0):
        # One fault per Geometric(flip_prob) step along the word's flat
        # (cycle, node, pattern-in-word) index, drawn one at a time.
        rng = np.random.default_rng([seed, word, FAULT_STREAM])
        block = np.zeros(T * n * 64, dtype=bool)
        pos = int(rng.geometric(flip_prob)) - 1
        while pos < block.size:
            block[pos] = True
            pos += int(rng.geometric(flip_prob))
        lo, hi = 64 * word, min(P, 64 * word + 64)
        flips[lo:hi] = block.reshape(T, n, 64)[..., :hi - lo].transpose(2, 0, 1)
    sources = [v for v in range(n) if g.kinds[v] in (NodeKind.PI, NodeKind.FF)]
    state = np.array([[bool(g.reset_value(ff))] * P for ff in g.ffs],
                     dtype=bool).reshape(len(g.ffs), P)
    pi = np.zeros((len(wl), P), dtype=bool)
    values, states = [], []
    for t in range(T):
        u = U[t]
        if t == 0:
            pi = u < p1[:, None]
        else:
            pi = np.where(pi, u >= rates[:, 1:], u < rates[:, :1])
        vals = np.zeros((n, P), dtype=bool)
        vals[wl] = pi
        vals[g.ffs] = state
        for v in sources:
            vals[v] ^= flips[:, t, v]
        for v in g.gate_order:
            fi = g.fanins[v]
            if g.kinds[v] == NodeKind.AND:
                vals[v] = vals[fi[0]] & vals[fi[1]]
            else:
                vals[v] = ~vals[fi[0]]
            vals[v] ^= flips[:, t, v]
        values.append(vals)
        states.append(state)
        state = vals[[g.fanins[ff][0] for ff in g.ffs]]
    return np.array(values), np.array(states).reshape(T, len(g.ffs), P)


def accumulator_bench(width):
    """BENCH text of a ripple-carry accumulator q <= q + in + cin: each bit's
    FF closes its own feedback region, and no edge joins two regions."""
    rows = ["INPUT(cin)"] + [f"INPUT(in{i})" for i in range(width)]
    rows += [f"OUTPUT(q{i})" for i in range(width)]
    for i in range(width):
        q, x, c = f"q{i}", f"in{i}", f"c{i}" if i else "cin"
        rows += [f"o{i} = OR({q}, {x})", f"n{i} = NAND({q}, {x})",
                 f"h{i} = AND(o{i}, n{i})", f"r{i} = NOR(h{i}, {c})",
                 f"a{i} = AND(h{i}, {c})", f"s{i} = NOR(r{i}, a{i})",
                 f"g{i} = AND({q}, {x})", f"c{i + 1} = OR(g{i}, a{i})",
                 f"{q} = DFF(s{i})"]
    return "\n".join(rows) + "\n"


# (circuit, cycles, patterns) of ``window_circuit`` runs: windows of several
# cycles, a last window shorter than the others, and pattern counts off a
# multiple of 64.
WINDOW_RUNS = [("accumulator", 37, 70), ("accumulator", 100, 130),
               ("mixed", 23, 65), ("mixed", 100, 64), ("no_ffs", 13, 1)]


def window_circuit(name):
    """A circuit and random workload whose longer runs the simulator sweeps
    in windows of several cycles: an 8-bit accumulator, ``mixed_circuit``
    (constant node, an FF fed by an FF) or ``and2`` (no FFs)."""
    g = {"accumulator": lambda: parse_bench(accumulator_bench(8)),
         "mixed": mixed_circuit, "no_ffs": lambda: and2()[0]}[name]()
    return g, Workload.random(g, 3)


def eval_graph(g, source_vals, ff_vals=None):
    """Independent recursive evaluator used as a test oracle.

    ``source_vals`` maps PI ids to bools; FF outputs come from ``ff_vals``.
    """
    memo = dict(source_vals)
    if ff_vals:
        memo.update(ff_vals)
    if g.const_id is not None:
        memo[g.const_id] = False

    def ev(v):
        if v in memo:
            return memo[v]
        kind = g.kinds[v]
        if kind == NodeKind.AND:
            out = ev(g.fanins[v][0]) and ev(g.fanins[v][1])
        elif kind == NodeKind.NOT:
            out = not ev(g.fanins[v][0])
        else:
            raise AssertionError(f"unexpected source {v}")
        memo[v] = out
        return out

    return ev


def forward_arrays(g, params, emb0, cfg):
    """The (n, 3d) embedding table and diagnostics of one circuit's
    forward pass."""
    from seqcircuit import model as mdl

    schedule = mdl.compile_schedule(g, cfg.reverse_layer)
    table, report = mdl.forward_tensors(params, emb0, cfg, schedule=schedule)
    return table.data, report


def region_levels_reference(g, nodes):
    """A region's internal levels by walking every gate in topological
    order, one region at a time: member FF outputs and nodes outside the
    region count as level 0 (test oracle)."""
    level = {}

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
    buckets = [[] for _ in range(max(level.values(), default=0))]
    for v, l in level.items():
        buckets[l - 1].append(v)
    return tuple(tuple(sorted(b)) for b in buckets)


def region_waves_reference(g, regions):
    """Each region's depth in the region contact graph: one more than the
    deepest earlier region it has a fanin or fanout in (test oracle).
    ``regions`` holds each region's node set, in region id order."""
    owner = {v: k for k, nodes in enumerate(regions) for v in nodes}
    depth = []
    for k, nodes in enumerate(regions):
        touched = {owner[u] for v in nodes
                   for u in (*g.fanins[v], *g.fanouts[v]) if u in owner}
        depth.append(1 + max((depth[j] for j in touched if j < k), default=-1))
    return depth


def group_update_reference(spaces, params, side, kind, vids, nbrs, starts):
    """One level group's update of three separate arrays, node by node, in
    plain numpy (test oracle).

    ``spaces`` are the (n, d) structure, function and sequential arrays,
    updated in place.  For node ``vids[i]`` with neighbours
    ``nbrs[starts[i]:starts[i + 1]]``, space s attends over its neighbours'
    first s + 1 spaces, laid side by side, with weights softmax(w2'pred),
    and a GRU with gates z = sigmoid(x wx_z + h wh_z + b_z), r likewise,
    n = tanh(x wx_n + b_n + r * (h wh_n)) makes its new row
    (1 - z) * n + z * h.  FFs keep their structure rows.  Every row is read
    before the group writes any.
    """
    names = ("struct", "func", "seq")
    bounds = list(starts) + [len(nbrs)]
    new = []
    for s, name in enumerate(names):
        if s == 0 and kind == NodeKind.FF:
            continue
        base = f"{side}.{name}.{kind.name.lower()}"
        w2 = params[f"{base}.attn.w2"].data
        wx, wh, b = (params[f"{base}.gru.{k}"].data for k in ("wx", "wh", "b"))
        d = spaces[s].shape[1]
        for i, v in enumerate(vids):
            rows = nbrs[bounds[i]:bounds[i + 1]]
            preds = np.concatenate([a[rows] for a in spaces[:s + 1]], axis=1)
            x = attn_reference(np.zeros(1), preds, np.zeros((1, 1)), w2)
            h = spaces[s][v]
            gx, gh = x @ wx + b[0], h @ wh
            z = 1.0 / (1.0 + np.exp(-(gx[:d] + gh[:d])))
            r = 1.0 / (1.0 + np.exp(-(gx[d:2 * d] + gh[d:2 * d])))
            n = np.tanh(gx[2 * d:] + r * gh[2 * d:])
            new.append((s, v, (1.0 - z) * n + z * h))
    for s, v, row in new:
        spaces[s][v] = row


def forward_reference(params, emb, cfg, schedule):
    """The forward sweep of ``schedule`` over the structure, function and
    sequential columns of a copy of the (n, 3d) table ``emb``, one
    ``group_update_reference`` per group, and each region's residual per
    pass: the largest relative change of a region row in any one space
    (test oracle)."""
    spaces = np.split(emb.copy(), 3, axis=1)
    residuals = [[] for _ in schedule["region_rows"]]

    def sweep(levels, side):
        for groups in levels:
            for kind, vids, (nbrs, starts, _) in groups:
                group_update_reference(spaces, params, side, kind, vids,
                                       nbrs, starts)
    sweep(schedule["fwd"], "fwd")
    for ids, levels in schedule["waves"]:
        for _ in range(cfg.cycle_max_iters):
            before = {r: [a[schedule["region_rows"][r]].copy() for a in spaces]
                      for r in ids}
            sweep(levels, "fwd")
            for r in ids:
                rows = schedule["region_rows"][r]
                residuals[r].append(max(
                    float(np.max(np.linalg.norm(a[rows] - old, axis=1)
                                 / (np.linalg.norm(old, axis=1) + 1e-12)))
                    for a, old in zip(spaces, before[r])))
    sweep(schedule["rev"], "rev")
    return spaces, residuals


def numeric_gradients(build_loss, store, h=1e-5, names=None):
    """Central finite differences over every scalar parameter (test oracle)."""
    from seqcircuit import tensor as tz

    out = {}
    for name in (names or store.names()):
        p = store[name]
        grad = np.zeros_like(p.data)
        for ix in np.ndindex(p.data.shape):
            orig = p.data[ix]
            with tz.no_grad():
                p.data[ix] = orig + h
                lp = build_loss().item()
                p.data[ix] = orig - h
                lm = build_loss().item()
            p.data[ix] = orig
            grad[ix] = (lp - lm) / (2.0 * h)
        out[name] = grad
    return out


def tensor_sum(t):
    """Sum of every entry of ``t`` as a (1, 1) tensor, through ``mean_all``."""
    from seqcircuit import tensor as tz

    return tz.scale(tz.mean_all(t), float(t.data.size))


def relative_errors(ad, fd):
    return np.abs(ad - fd) / np.maximum.reduce(
        [np.abs(ad), np.abs(fd), np.ones_like(fd)])


def attn_reference(query, preds, w1, w2):
    """Attention over one predecessor set, in plain numpy (test oracle).

    ``query`` is (d_q,), ``preds`` is (k, d_p); the scores w1'query +
    w2'pred are normalized by a softmax over the k predecessors, and the
    result is the weighted sum of the predecessor rows.
    """
    scores = preds @ np.ravel(w2) + float(np.ravel(query) @ np.ravel(w1))
    e = np.exp(scores - scores.max())
    return (e / e.sum()) @ preds


def truth_table_reference(g, i, j, sup):
    """Distance of two gates by walking each cone gate by gate (test oracle).

    Source b of the pair's joint support (ascending ids) takes bit b of the
    row index over 2^k rows; the pinned constant input reads 0.
    """
    sources = [v for v in range(g.n) if (sup[i] | sup[j]) >> v & 1]
    size = 1 << len(sources)
    idx = np.arange(size)

    def table(target):
        memo = {s: ((idx >> b) & 1).astype(bool) for b, s in enumerate(sources)}
        order, seen, stack = [], set(memo), [target]
        while stack:  # iterative post-order over the cone
            v = stack.pop()
            if v >= 0:
                if v not in seen:
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
            else:
                assert v == g.const_id, f"cone of {target} reaches source {v}"
                memo[v] = np.zeros(size, dtype=bool)
        return memo[target]

    return float(np.mean(table(i) != table(j)))


def f_pair_list(g, sup):
    """Every gate pair i < j with at most 16 joint sources, in row-major
    order (test oracle for the eligible set)."""
    gates = g.gates
    return [(i, j) for ii, i in enumerate(gates) for j in gates[ii + 1:]
            if bin(sup[i] | sup[j]).count("1") <= 16]


def sample_f_pairs_reference(g, target_count, seed):
    """``sample_f_pairs`` over listed pairs and cone walks (test oracle).

    Replays the rejection draw: the gates of at most 16 sources, every
    pair of them listed as (0, 1), (0, 2), (1, 2), (0, 3), ... by gate
    index, a uniformly ordered sample of 2 x target indices doubled until
    it holds the target in ``f_pair_list`` or covers every pair, and its
    first eligible pairs in ascending order.
    """
    from seqcircuit.labels import support_masks

    sup = support_masks(g)
    gates = [v for v in g.gates if bin(sup[v]).count("1") <= 16]
    listed = [(gates[a], gates[b]) for b in range(len(gates))
              for a in range(b)]
    eligible = set(f_pair_list(g, sup))
    if not listed or target_count <= 0:
        return []
    rng = np.random.default_rng([int(seed), 0xF0])
    size = 2 * target_count
    while True:
        size = min(size, len(listed))
        drawn = rng.choice(len(listed), size=size, replace=False)
        kept = [listed[c] for c in drawn if listed[c] in eligible]
        kept = kept[:target_count]
        if len(kept) == target_count or size == len(listed):
            break
        size *= 2
    return [(i, j, truth_table_reference(g, i, j, sup))
            for i, j in sorted(kept)]


def transitive_pi_support_reference(g):
    """Whole-graph fixpoint of backward PI reachability (test oracle)."""
    sup = [0] * g.n
    for pi in g.pis:
        if pi != g.const_id:
            sup[pi] = 1 << pi
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if g.kinds[v] != NodeKind.PI:
                m = sup[v]
                for u in g.fanins[v]:
                    m |= sup[u]
                if m != sup[v]:
                    sup[v], changed = m, True
    return sup


def sample_ffsim_pairs_reference(g, stats, target_count, seed):
    """``sample_ffsim_pairs`` over every FF pair that ``ff_pair_eligible``
    accepts, in (i, later j) order (test oracle)."""
    from seqcircuit.labels import (ff_pair_eligible, ff_similarity,
                                   sequential_depths)

    ffs = g.ffs
    sup = transitive_pi_support_reference(g)
    depth = sequential_depths(g)
    elig = [(i, j) for ii, i in enumerate(ffs) for j in ffs[ii + 1:]
            if ff_pair_eligible(g, i, j, sup, depth)]
    if not elig or target_count <= 0:
        return [], 0
    rng = np.random.default_rng([int(seed), 0xFF])
    chosen = rng.choice(len(elig), size=min(target_count, len(elig)),
                        replace=False)
    out, skipped = [], 0
    for c in sorted(chosen):
        i, j = elig[c]
        sim = ff_similarity(stats.traces.states(i), stats.traces.states(j),
                            stats.n_patterns)
        if sim is None:
            skipped += 1
        else:
            out.append((i, j, sim))
    return out, skipped
