"""Cycle-accurate stochastic simulation of sequential netlists.

Each primary input is driven by an independent stationary two-state Markov
chain parameterized by its logic-1 probability ``p1`` and transition
probability ``ptr``.  Patterns restart FF state and draw cycle-0 input bits
from the stationary distribution, so patterns are i.i.d.; statistics are
aggregated over all (pattern, cycle) evaluations.
"""
from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .circuit import CircuitGraph, NodeKind, require_valid

TRACE_MAGIC = b"SQTR"
PI_STREAM = 0
FAULT_STREAM = 1


class SimulationError(ValueError):
    pass


def check_seed(name: str, seed: int):
    """Raise ``SimulationError`` naming ``name`` unless ``seed`` >= 0."""
    if seed < 0:
        raise SimulationError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class Workload:
    """Per-PI stimulus parameters: node id -> (p1, ptr)."""

    pi_probs: dict[int, tuple[float, float]]

    def check(self, g: CircuitGraph):
        missing = [p for p in g.workload_pis() if p not in self.pi_probs]
        if missing:
            raise SimulationError(f"workload missing PIs {missing}")
        for p1, ptr in self.pi_probs.values():
            markov_params(p1, ptr)

    @classmethod
    def random(cls, g: CircuitGraph, seed: int,
               p1_range=(0.15, 0.85), ptr_frac_range=(0.1, 0.9)) -> "Workload":
        """Feasible workload with ptr drawn as a fraction of its upper bound."""
        check_seed("workload_seed", seed)
        rng = np.random.default_rng([int(seed), 0x776C])
        probs = {}
        for pi in g.workload_pis():
            p1 = float(rng.uniform(*p1_range))
            frac = float(rng.uniform(*ptr_frac_range))
            probs[pi] = (p1, frac * 2.0 * min(p1, 1.0 - p1))
        return cls(probs)

    def to_json_dict(self):
        return {str(k): [v[0], v[1]] for k, v in sorted(self.pi_probs.items())}

    @classmethod
    def from_json_dict(cls, d):
        return cls({int(k): (float(v[0]), float(v[1])) for k, v in d.items()})


@dataclass(frozen=True)
class SimConfig:
    n_patterns: int = 1000
    n_cycles: int = 100
    seed: int = 0

    def check(self):
        if self.n_patterns < 1 or self.n_cycles < 2:
            raise SimulationError("need n_patterns >= 1 and n_cycles >= 2")
        check_seed("seed", self.seed)


@dataclass
class SimStats:
    """Aggregated per-node statistics (and per-FF traces when simulated).

    ``traces`` of a simulation is an ``FFTraces`` over the packed state
    words; exact statistics carry none.
    """

    p1: np.ndarray
    ptr: np.ndarray
    n_patterns: int
    n_cycles: int
    p1_counts: np.ndarray | None = None
    tr_counts: np.ndarray | None = None
    traces: Mapping[int, np.ndarray] = field(default_factory=dict)
    pattern_p1_counts: np.ndarray | None = None
    pattern_tr_counts: np.ndarray | None = None

    def to_json_dict(self, g: CircuitGraph | None = None):
        names = g.id_to_name if g is not None else {}
        return {
            "n_patterns": self.n_patterns,
            "n_cycles": self.n_cycles,
            "nodes": [
                {"id": i, **({"name": names[i]} if i in names else {}),
                 "p1": float(self.p1[i]), "ptr": float(self.ptr[i])}
                for i in range(len(self.p1))
            ],
        }


def markov_params(p1: float, ptr: float) -> tuple[float, float]:
    """Rates (a, b) = (P(0->1), P(1->0)) of the stationary chain for (p1, ptr).

    Stationarity forces a*(1-p1) = b*p1 and the per-cycle change probability
    2*a*(1-p1) must equal ptr, so feasibility requires
    ptr <= 2*min(p1, 1-p1).
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= ptr <= 1.0):
        raise SimulationError(f"probabilities outside [0,1]: p1={p1}, ptr={ptr}")
    if p1 in (0.0, 1.0):
        if ptr > 1e-12:
            raise SimulationError(f"constant input cannot toggle: p1={p1}, ptr={ptr}")
        return (0.0, 0.0)
    if ptr > 2.0 * min(p1, 1.0 - p1) + 1e-12:
        raise SimulationError(f"infeasible workload: ptr={ptr} > 2*min(p1, 1-p1)"
                              f" for p1={p1}")
    return (ptr / (2.0 * (1.0 - p1)), ptr / (2.0 * p1))


# --- bit-parallel level kernel ----------------------------------------------
#
# Pattern p of a run is bit p % 64 of word p // 64, so one numpy operation
# evaluates a whole level of gates for every pattern.  Bits past the last
# pattern carry garbage (a NOT sets them) and are masked only when counting.
# A run sweeps a window of C consecutive cycles as one DAG: row c * n + v
# is node v in cycle c, and an FF row at c >= 1 copies its D row at c - 1.
# A level of the window holds gates of every cycle whose longest path in the
# window is that long, so short feedback loops through a deep circuit cost
# far fewer than C x depth steps.

WORD = np.dtype("<u8")
WORD_BITS = 64
# Working-set bound, in 64-bit words (about 1 MB), of one window of cycles
# (cycles x nodes x words) and of one chunk of packed truth tables (rows x
# words).
CHUNK_WORDS = 1 << 17


def gate_table(g: CircuitGraph, rows, level):
    """(level, fanin a, fanin b, (m, 1) invert mask) arrays of ``rows``,
    whose combinational levels (0 at the sources) are ``level``.

    A NOT is an AND of its fanin with itself, inverted: its mask row is all
    ones where an AND's is zero.  A node without fanins stands in for its
    own.
    """
    fanins = [g.fanins[v] or (v,) for v in rows]
    inv = np.array([g.kinds[v] == NodeKind.NOT for v in rows], dtype=bool)
    return (np.asarray(level),
            np.array([f[0] for f in fanins], dtype=np.intp),
            np.array([f[-1] for f in fanins], dtype=np.intp),
            np.where(inv, np.iinfo(WORD).max, 0).astype(WORD)[:, None])


def gate_sweeps(table):
    """Per-level gate index arrays (outputs, fanin a, fanin b, invert mask)
    of the gates of a block of rows, shallowest level first.

    ``table`` is the block's ``gate_table`` with its fanins given as
    positions in the block, which must hold every fanin of its gates; every
    index is such a position.  Every fanin of a level's gates is a source
    or lies on an earlier level, so each level evaluates in one step.
    """
    level, fa, fb, inv = table
    out = np.flatnonzero(level)
    out = out[np.argsort(level[out], kind="stable")]
    cols = (out, fa[out], fb[out], inv[out])
    cuts = np.flatnonzero(np.diff(level[out], prepend=0)).tolist() + [len(out)]
    return [tuple(c[a:b] for c in cols) for a, b in zip(cuts, cuts[1:])]


def compiled_order(g: CircuitGraph):
    """``gate_sweeps`` of the whole graph, which must pass ``validate``."""
    require_valid(g)
    return gate_sweeps(gate_table(g, range(g.n), g.levels))


def eval_levels(levels, vals, flip=None):
    """Evaluate every gate in place, one level per step.

    ``vals`` is (n_nodes, W) packed pattern words.  ``flip`` (same shape) is
    XORed into each gate output as it is computed.
    """
    for out, fa, fb, inv in levels:
        x = vals[fa] & vals[fb]
        x ^= inv
        if flip is not None:
            x ^= flip[out]
        vals[out] = x


def cycle_window(g: CircuitGraph, levels, n_cycles: int, n_words: int):
    """{cycles c: ``gate_sweeps`` of a window of c cycles} for runs of
    ``n_cycles`` cycles over ``n_words`` words; ``levels`` is the graph's
    ``compiled_order``.

    Row c * n + v is node v in cycle c.  PIs, the constant and the FF rows
    at c = 0 are sources; an FF row at c >= 1 is its D row at c - 1, ANDed
    with itself.  A row's level is its longest path inside the window, from
    one pass over ``levels`` per cycle.  The window length C is worked out
    from the circuit: cycles are added one at a time while the estimated
    step count, C x depth level passes plus ceil(n_cycles / C) windows,
    keeps falling, and C x n x n_words stays within CHUNK_WORDS.  A last
    window of n_cycles % C cycles sweeps the table's first rows.  A
    1-cycle window is ``levels`` itself.
    """
    n, T, depth = g.n, n_cycles, len(levels)
    ffs = np.array(g.ffs, dtype=np.intp)
    nxt = np.array([g.fanins[ff][0] for ff in ffs], dtype=np.intp)
    cap = min(T, max(1, CHUNK_WORDS // max(1, n * n_words)))
    cycles = [np.asarray(g.levels)]
    steps, cost = depth, depth * (1 + T)
    while len(cycles) < cap:
        level = np.zeros(n, dtype=np.intp)
        level[ffs] = cycles[-1][nxt] + 1
        for out, fa, fb, _ in levels:
            level[out] = np.maximum(level[fa], level[fb]) + 1
        grown = max(steps, int(level.max()))
        c = len(cycles) + 1
        trial = c * depth + -(-T // c) * grown
        if trial >= cost:
            break
        cycles.append(level)
        steps, cost = grown, trial
    C = len(cycles)
    if C == 1:
        return {1: levels}
    fa, fb = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    inv = np.zeros(n, dtype=WORD)
    fa[ffs] = fb[ffs] = nxt - n  # the D row one cycle earlier
    for out, a, b, m in levels:
        fa[out], fb[out], inv[out] = a, b, m[:, 0]
    shift = n * np.arange(C)[:, None]
    table = (np.concatenate(cycles), (fa + shift).ravel(),
             (fb + shift).ravel(), np.tile(inv, C)[:, None])
    return {c: gate_sweeps([col[:c * n] for col in table])
            for c in {C, T % C or C}}


def run_cycles(g: CircuitGraph, window, inputs, flips=None):
    """Yield the (c, n_ffs, W) FF states and (c, n_nodes, W) node values of
    each window of c cycles, FFs from reset.

    ``window`` is the graph's ``cycle_window`` and ``inputs`` the (T, k, W)
    packed workload-PI values; each window is one ``eval_levels`` call over
    a (c * n_nodes, W) view.  ``flips`` holds the optional (T, n_nodes, W)
    XOR masks of a faulty run: every node value is flipped as it is
    evaluated, and the yielded state is the latched value before its flip.
    The value array is reused from window to window.
    """
    n, C = g.n, max(window)
    pis = np.array(g.workload_pis(), dtype=np.intp)
    ffs = np.array(g.ffs, dtype=np.intp)
    nxt = np.array([g.fanins[ff][0] for ff in ffs], dtype=np.intp)
    sources = np.flatnonzero(g.levels == 0)  # PIs and FF outputs
    later = np.setdiff1d(sources, ffs)  # FF rows after cycle 0 are gates
    T, _, W = inputs.shape
    vals = np.zeros((C, n, W), dtype=WORD)
    state = np.zeros((len(ffs), W), dtype=WORD)
    state[[bool(g.reset_value(ff)) for ff in ffs]] = np.iinfo(WORD).max
    for t in range(0, T, C):
        c = min(C, T - t)
        block = vals[:c]
        block[:, pis] = inputs[t:t + c]
        block[0, ffs] = state
        if g.const_id is not None:
            block[:, g.const_id] = 0
        flip = None if flips is None else flips[t:t + c]
        if flip is not None:
            block[0, sources] ^= flip[0, sources]
            block[1:, later] ^= flip[1:, later]
            flip = flip.reshape(c * n, W)
        eval_levels(window[c], block.reshape(c * n, W), flip)
        states = np.empty((c, len(ffs), W), dtype=WORD)
        states[0] = state
        states[1:] = block[:-1, nxt]
        yield states, block
        state = block[-1, nxt]


def pack_patterns(bits):
    """bool (..., P) -> words (..., ceil(P / 64)); pattern p is bit p % 64 of
    word p // 64, and padding bits are 0."""
    n_bytes = 8 * -(-bits.shape[-1] // WORD_BITS)
    packed = np.zeros(bits.shape[:-1] + (n_bytes,), dtype=np.uint8)
    packed[..., :(bits.shape[-1] + 7) // 8] = np.packbits(bits, axis=-1,
                                                          bitorder="little")
    return packed.view(WORD)


def unpack_patterns(words, n_patterns: int):
    """Words (..., W) -> bool (..., n_patterns)."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n_patterns,
                         bitorder="little").view(bool)


def pattern_mask(n_patterns: int):
    """Words with the bit of every real pattern set."""
    return pack_patterns(np.ones(n_patterns, dtype=bool))


def count_ones(words, mask):
    """Per-row number of set pattern bits of (..., W) words."""
    return np.bitwise_count(words & mask).sum(axis=-1, dtype=np.int64)


def pi_words(g: CircuitGraph, w: Workload, cfg: SimConfig):
    """(T, k, W) packed values of the workload PIs in every pattern and cycle.

    Word ``word`` draws the (T, k, 64) uniforms u of its patterns from its
    own stream, ``default_rng([seed, word, PI_STREAM])``, with pattern p in
    lane p % 64 of word p // 64.  A last partial word draws all 64 lanes, so
    the inputs of P patterns are the first P patterns of any longer run.
    A word's uniforms become two packed masks for every cycle at once,
    rise = u < a (u < p1 at cycle 0) and stay = u >= b, and each chain then
    steps a whole word per operation: s = (s & stay) | (rise & ~s), from
    s = 0.
    """
    wl_pis = g.workload_pis()
    a, b = np.array([markov_params(*w.pi_probs[pi]) for pi in wl_pis]
                    ).reshape(-1, 2).T
    p1 = np.array([w.pi_probs[pi][0] for pi in wl_pis])
    P, T, k = cfg.n_patterns, cfg.n_cycles, len(wl_pis)
    rise_below = np.vstack([p1, np.broadcast_to(a, (T - 1, k))])[..., None]
    stay_from = b[:, None]
    n_words = -(-P // WORD_BITS)
    s = np.empty((T, k, n_words), dtype=WORD)  # rise masks, then the states
    stay = np.empty_like(s)
    u = np.empty((T, k, WORD_BITS))
    for word in range(n_words):
        np.random.default_rng([cfg.seed, word, PI_STREAM]).random(out=u)
        s[..., word] = pack_patterns(u < rise_below)[..., 0]
        stay[..., word] = pack_patterns(u >= stay_from)[..., 0]
    for t in range(1, T):
        s[t] = (s[t - 1] & stay[t]) | (s[t] & ~s[t - 1])
    return s


class FFTraces(Mapping):
    """Read-only {FF id: (P, T) bool trace} over (T, n_ff, W) packed FF
    state words; a trace is unpacked only when it is read."""

    def __init__(self, ffs, words, n_patterns: int):
        self.words = words
        self.n_patterns = n_patterns
        self._col = {ff: k for k, ff in enumerate(ffs)}

    def states(self, ff):
        """(T, W) state words of one FF."""
        return self.words[:, self._col[ff]]

    def __getitem__(self, ff):
        return unpack_patterns(self.states(ff), self.n_patterns).T

    def __iter__(self):
        return iter(self._col)

    def __len__(self):
        return len(self._col)


def simulate(g: CircuitGraph, w: Workload, cfg: SimConfig = SimConfig(),
             keep_pattern_counts: bool = False) -> SimStats:
    """Monte Carlo statistics under the workload; bit-deterministic in the seed:
    counters are integers and every 64-pattern word of inputs has its own
    RNG stream (see ``pi_words``).
    """
    cfg.check()
    w.check(g)
    n, P, T = g.n, cfg.n_patterns, cfg.n_cycles
    words = pi_words(g, w, cfg)
    W = words.shape[-1]
    mask = pattern_mask(P)
    window = cycle_window(g, compiled_order(g), T, W)
    C = max(window)
    # Counts per cycle of the window, summed over the windows; a transition
    # row holds a cycle's values XOR those of the cycle before, and the
    # first cycle of a run has none.
    p1c = np.zeros((C, n), dtype=np.int64)
    trc = np.zeros((C, n), dtype=np.int64)
    pp1 = np.zeros((n, P), dtype=np.int32) if keep_pattern_counts else None
    ptr_pp = np.zeros((n, P), dtype=np.int32) if keep_pattern_counts else None
    ff_words = np.empty((T, len(g.ffs), W), dtype=WORD)
    changed = np.empty((C, n, W), dtype=WORD)
    last = np.zeros((n, W), dtype=WORD)
    t = 0
    for states, vals in run_cycles(g, window, words):
        c = len(states)
        ff_words[t:t + c] = states
        np.bitwise_xor(vals[0], last, out=changed[0])
        np.bitwise_xor(vals[1:], vals[:-1], out=changed[1:c])
        last[...] = vals[-1]
        first = int(t == 0)
        p1c[:c] += count_ones(vals, mask)
        trc[first:c] += count_ones(changed[first:c], mask)
        if keep_pattern_counts:
            pp1 += unpack_patterns(vals, P).sum(axis=0, dtype=np.int32)
            ptr_pp += unpack_patterns(changed[first:c], P).sum(axis=0,
                                                              dtype=np.int32)
        t += c
    p1c, trc = p1c.sum(axis=0), trc.sum(axis=0)

    total = P * T
    total_tr = P * (T - 1)
    return SimStats(p1=p1c / total, ptr=trc / total_tr,
                    n_patterns=P, n_cycles=T,
                    p1_counts=p1c, tr_counts=trc,
                    traces=FFTraces(g.ffs, ff_words, P),
                    pattern_p1_counts=pp1, pattern_tr_counts=ptr_pp)


# --- exhaustive oracle ------------------------------------------------------

MAX_ORACLE_PIS = 12
MAX_ORACLE_FFS = 8


def _enumerate_truth(g: CircuitGraph, wl_pis, ffs):
    """Boolean value of every node over all joint (PI bits, FF bits) assignments.

    Assignment index layout: PI i contributes bit i, FF j contributes bit
    (n_pis + j); so flat index = x + X * s with X = 2**n_pis.
    """
    src = list(wl_pis) + list(ffs)
    size = 1 << len(src)
    words = np.zeros((g.n, -(-size // WORD_BITS)), dtype=WORD)
    bits = (np.arange(size) >> np.arange(len(src))[:, None]) & 1
    words[src] = pack_patterns(bits.astype(bool))
    eval_levels(compiled_order(g), words)
    return unpack_patterns(words, size)


def _apply_pi_kernels(arr_sx: np.ndarray, kernels) -> np.ndarray:
    """Contract per-PI 2x2 matrices (axis 1 = current bit) along the x axis.

    ``arr_sx`` has shape (S, X); bit i of x is the fastest-varying for i=0.
    """
    S, X = arr_sx.shape
    kx = len(kernels)
    arr = arr_sx.reshape((S,) + (2,) * kx)
    for i, K in enumerate(kernels):
        ax = 1 + (kx - 1 - i)  # C-order: PI 0 occupies the last axis
        arr = np.moveaxis(np.tensordot(K, arr, axes=([1], [ax])), 0, ax)
    return arr.reshape(S, X)


def exhaustive_stats(g: CircuitGraph, w: Workload, cfg: SimConfig) -> SimStats:
    """Exact per-node p1/ptr from the joint (PI, FF-state) Markov chain.

    Returns the exact expectation of the statistics that ``simulate``
    estimates at the horizon of ``cfg`` (FFs start from reset, inputs from
    the stationary distribution), so the two agree up to sampling noise.
    """
    w.check(g)
    cfg.check()
    wl_pis = g.workload_pis()
    ffs = g.ffs
    kx, ks = len(wl_pis), len(ffs)
    if kx > MAX_ORACLE_PIS or ks > MAX_ORACLE_FFS:
        raise SimulationError(f"oracle limits exceeded: {kx} PIs / {ks} FFs")

    vals = _enumerate_truth(g, wl_pis, ffs)
    X, S = 1 << kx, 1 << ks
    size = X * S

    next_state = np.zeros(size, dtype=np.int64)
    for j, ff in enumerate(ffs):
        next_state |= vals[g.fanins[ff][0]].astype(np.int64) << j
    x_of = np.arange(size) % X
    to_flat = x_of + X * next_state

    kernels = []
    stat_x = np.ones(X)
    for i, pi in enumerate(wl_pis):
        p1, ptr = w.pi_probs[pi]
        a, b = markov_params(p1, ptr)
        kernels.append(np.array([[1 - a, b], [a, 1 - b]]))  # [next, current]
        bit = (np.arange(X) >> i) & 1
        stat_x *= np.where(bit, p1, 1 - p1)

    valsf = vals.astype(float)
    # change[v][x, s] = P(value of v differs next cycle | current joint state)
    change = np.zeros((g.n, size))
    for v in range(g.n):
        v_sx = valsf[v].reshape(S, X)
        b_sx = _apply_pi_kernels(v_sx, [K.T for K in kernels])
        bnext = b_sx.reshape(-1)[to_flat]
        change[v] = valsf[v] * (1.0 - bnext) + (1.0 - valsf[v]) * bnext

    reset_idx = 0
    for j, ff in enumerate(ffs):
        reset_idx |= g.reset_value(ff) << j
    dist = np.zeros(size)
    dist[reset_idx * X:(reset_idx + 1) * X] = stat_x
    p1_sum = np.zeros(g.n)
    tr_sum = np.zeros(g.n)
    for t in range(cfg.n_cycles):
        p1_sum += valsf @ dist
        if t < cfg.n_cycles - 1:
            tr_sum += change @ dist
            rho = np.bincount(to_flat, weights=dist, minlength=size)
            dist = _apply_pi_kernels(rho.reshape(S, X), kernels).reshape(-1)
    return SimStats(p1=p1_sum / cfg.n_cycles, ptr=tr_sum / (cfg.n_cycles - 1),
                    n_patterns=0, n_cycles=cfg.n_cycles)


# --- binary trace file ------------------------------------------------------

def write_trace_file(path, stats: SimStats):
    """Pack FF traces as little-endian 64-bit words, bits filled LSB first.

    The traces of the FFs in id order, each flattened (pattern, cycle), form
    one bit stream; one FF is unpacked at a time.
    """
    ffs = sorted(stats.traces)
    P, T = stats.n_patterns, stats.n_cycles
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(struct.pack("<III", len(ffs), P, T))
        f.write(struct.pack(f"<{len(ffs)}I", *ffs))
        carry = np.zeros(0, dtype=bool)  # bits past the last whole word
        for ff in ffs:
            bits = np.concatenate([carry, stats.traces[ff].reshape(-1)])
            cut = len(bits) - len(bits) % WORD_BITS
            f.write(pack_patterns(bits[:cut]).tobytes())
            carry = bits[cut:]
        f.write(pack_patterns(carry).tobytes())


def read_trace_file(path):
    """({FF id: (P, T) bool trace}, P, T) of a ``write_trace_file`` file;
    the traces are views of one unpacked bit stream.

    Raises ``SimulationError`` unless the file holds exactly the bytes its
    header calls for.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != TRACE_MAGIC:
        raise SimulationError(f"bad trace magic {data[:4]!r}")
    if len(data) < 16:
        raise SimulationError(f"trace file has {len(data)} bytes, "
                              "expected at least 16 for its header")
    n_ff, P, T = struct.unpack_from("<III", data, 4)
    per_ff = P * T
    want = 16 + 4 * n_ff + 8 * -(-n_ff * per_ff // WORD_BITS)
    if len(data) != want:
        raise SimulationError(f"trace file of {n_ff} FFs x {P} patterns x "
                              f"{T} cycles has {len(data)} bytes, "
                              f"expected {want}")
    ffs = struct.unpack_from(f"<{n_ff}I", data, 16)
    words = np.frombuffer(data, dtype=WORD, offset=16 + 4 * n_ff)
    stream = unpack_patterns(words, n_ff * per_ff)
    traces = {ff: stream[j * per_ff:(j + 1) * per_ff].reshape(P, T)
              for j, ff in enumerate(ffs)}
    return traces, P, T
