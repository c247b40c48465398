"""Independent checkers for the toolkit's outputs.

None of these compares a value with a stored copy of earlier output: each
recomputes the answer from first principles (brute-force truth tables,
ancestor sets, trace indicator counts, the closed-form power law, the laws
of a binary signal, the exact Markov oracle's standard errors).  Every
checker returns a list of problems; an empty list means the output passed.

Circuits are read through ``netlist``: kinds as plain names, fanins as
tuples, so the checkers share no code with the toolkit's label machinery.
"""
from __future__ import annotations

from statistics import NormalDist

import numpy as np

MAX_SUPPORT = 16
# Chance that a statistical check rejects a correct program, per check.
FALSE_ALARM = 1e-6


def netlist(g):
    """(kind names, fanins, constant node id) of a CircuitGraph."""
    return [k.name for k in g.kinds], list(g.fanins), g.const_id


def _cone_order(kinds, fanins, target):
    """Gates of the combinational cone of ``target`` in post-order, and the
    boundary nodes (PI or FF) that the cone reads."""
    order, boundary, seen = [], set(), set()
    stack = [(target, False)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
            continue
        if v in seen:
            continue
        seen.add(v)
        if kinds[v] in ("PI", "FF"):
            boundary.add(v)
            continue
        stack.append((v, True))
        stack.extend((u, False) for u in fanins[v])
    return order, boundary


def brute_force_distance(kinds, fanins, const_id, i, j):
    """(normalized Hamming distance, joint support size) of nodes i and j,
    from truth tables over every assignment of their joint free sources.

    Truth tables are Python integers with one bit per assignment.
    """
    cones = [_cone_order(kinds, fanins, v) for v in (i, j)]
    sources = sorted((cones[0][1] | cones[1][1]) - {const_id})
    k = len(sources)
    size = 1 << k
    full = (1 << size) - 1
    table = {const_id: 0} if const_id is not None else {}
    for b, s in enumerate(sources):
        half = 1 << b
        block = ((1 << half) - 1) << half      # 0...0 1...1, 2**(b+1) bits
        table[s] = block * (full // ((1 << (2 * half)) - 1))
    for order, _ in cones:
        for v in order:
            if v in table:
                continue
            fi = fanins[v]
            if kinds[v] == "AND":
                table[v] = table[fi[0]] & table[fi[1]]
            else:
                table[v] = full ^ table[fi[0]]
    diff = (table[i] ^ table[j]).bit_count()
    return diff / size, k


def check_f_pairs(kinds, fanins, const_id, f_pairs) -> list[str]:
    bad = []
    for i, j, dist in f_pairs:
        want, k = brute_force_distance(kinds, fanins, const_id, i, j)
        if k > MAX_SUPPORT:
            bad.append(f"f pair ({i}, {j}): joint support {k} > {MAX_SUPPORT}")
        elif dist != want:
            bad.append(f"f pair ({i}, {j}): distance {dist} != brute force {want}")
    return bad


def ancestors(kinds, fanins, v) -> set[int]:
    """``v`` and every node its value is computed from within one cycle:
    the walk goes back through AND and NOT nodes and stops at PIs and FFs."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        if kinds[u] in ("PI", "FF"):
            continue
        for w in fanins[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_rc_pairs(kinds, fanins, rc_pairs) -> list[str]:
    bad = []
    ands = {v for v, k in enumerate(kinds) if k == "AND"}
    gates = [gate for _, _, gate, _ in rc_pairs]
    if sorted(gates) != sorted(ands):
        bad.append("reconvergence labels do not cover every AND gate once")
    for a, b, gate, label in rc_pairs:
        if gate not in ands or tuple(fanins[gate]) != (a, b):
            bad.append(f"rc pair ({a}, {b}) is not the fanin pair of {gate}")
            continue
        want = int(bool(ancestors(kinds, fanins, a) & ancestors(kinds, fanins, b)))
        if label != want:
            bad.append(f"rc pair at gate {gate}: label {label} != {want}")
    return bad


def transition_similarity(trace_i: np.ndarray, trace_j: np.ndarray):
    """Share of cycles, among those where both FFs held the same state in
    the cycle before, in which they also hold the same state now."""
    agree = ~np.logical_xor(trace_i, trace_j)
    before = agree[:, :-1].astype(np.int64)
    now = agree[:, 1:].astype(np.int64)
    shared = int(before.sum())
    if shared == 0:
        return None
    return int((before * now).sum()) / shared


def check_ffsim_pairs(traces, ffsim_pairs, tol=1e-12) -> list[str]:
    bad = []
    for i, j, sim in ffsim_pairs:
        want = transition_similarity(traces[i], traces[j])
        if want is None or abs(sim - want) > tol:
            bad.append(f"ffsim pair ({i}, {j}): {sim} != recomputed {want}")
    return bad


def check_signal_laws(kinds, fanins, ones, toggles, evals, steps) -> list[str]:
    """Laws that any set of binary signals obeys.

    ``ones`` counts cycles at 1 out of ``evals``; ``toggles`` counts value
    changes out of ``steps``.  A NOT node mirrors its fanin; an AND node is
    1 no more often than either fanin; a sequence with k ones among n values
    changes at most 2 * min(k, n - k) times, per pattern and so in total.
    """
    bad = []
    ones = np.asarray(ones, dtype=np.int64)
    toggles = np.asarray(toggles, dtype=np.int64)
    if ones.min() < 0 or ones.max() > evals:
        bad.append("ones count outside [0, evals]")
    if toggles.min() < 0 or toggles.max() > steps:
        bad.append("toggle count outside [0, steps]")
    over = toggles > 2 * np.minimum(ones, evals - ones)
    if over.any():
        bad.append(f"toggles exceed 2*min(ones, zeros) at nodes {np.flatnonzero(over)[:5]}")
    for v, kind in enumerate(kinds):
        fi = fanins[v]
        if kind == "NOT":
            if ones[v] != evals - ones[fi[0]] or toggles[v] != toggles[fi[0]]:
                bad.append(f"NOT node {v} does not mirror its fanin {fi[0]}")
        elif kind == "AND":
            if ones[v] > min(ones[fi[0]], ones[fi[1]]):
                bad.append(f"AND node {v} is 1 more often than a fanin")
    return bad


def counts_from_rates(p1, ptr, n_patterns, n_cycles):
    """Integer counts behind per-node rates (rates are counts / totals)."""
    evals = n_patterns * n_cycles
    steps = n_patterns * (n_cycles - 1)
    ones = np.rint(np.asarray(p1) * evals).astype(np.int64)
    toggles = np.rint(np.asarray(ptr) * steps).astype(np.int64)
    return ones, toggles, evals, steps


def z_limit(n_tests: int, false_alarm: float = FALSE_ALARM) -> float:
    """Two-sided normal threshold that ``n_tests`` unbiased estimates all
    stay within, except with probability ``false_alarm`` (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - false_alarm / (2 * n_tests))


def check_oracle_agreement(stats, exact, false_alarm=FALSE_ALARM) -> list[str]:
    """Simulated p1/ptr within ``z_limit`` standard errors of the exact
    values, the limit corrected for testing every node twice; patterns are
    the i.i.d. units, and each error is floored at the resolution of one
    count."""
    M, T = stats.n_patterns, stats.n_cycles
    se_p1 = np.maximum((stats.pattern_p1_counts / T).std(axis=1, ddof=1)
                       / np.sqrt(M), 1.0 / (M * T))
    se_tr = np.maximum((stats.pattern_tr_counts / (T - 1)).std(axis=1, ddof=1)
                       / np.sqrt(M), 1.0 / (M * (T - 1)))
    n_sigma = z_limit(2 * len(stats.p1), false_alarm)
    bad = []
    for what, est, ref, se in (("p1", stats.p1, exact.p1, se_p1),
                               ("ptr", stats.ptr, exact.ptr, se_tr)):
        z = np.abs(est - ref) / se
        if (z > n_sigma).any():
            bad.append(f"{what} off the exact value by {z.max():.1f} standard errors"
                       f" (limit {n_sigma:.1f})")
    return bad


def closed_form_power(ptr, mask, capacitance=1.0, vdd=1.0, freq_scale=1.0):
    """0.5 * C * V^2 * f * mean switching activity over the masked nodes."""
    active = [float(t) for t, m in zip(ptr, mask) if m]
    return 0.5 * capacitance * vdd * vdd * freq_scale * sum(active) / len(active)


def check_power(estimate, ptr, mask, rel_tol=1e-12) -> list[str]:
    want = closed_form_power(ptr, mask)
    if abs(estimate - want) > rel_tol * max(abs(want), 1e-300):
        return [f"power {estimate} != closed form {want}"]
    return []


def check_saif_round_trip(names, p1, ptr, duration, nets) -> list[str]:
    """Every net read back within one count (1/duration) of what was written."""
    bad = []
    for v, name in enumerate(names):
        if name not in nets:
            bad.append(f"net {name} missing from the SAIF read back")
            continue
        q1, qtr = nets[name]
        if abs(q1 - p1[v]) > 1.0 / duration or abs(qtr - ptr[v]) > 1.0 / duration:
            bad.append(f"net {name}: ({q1}, {qtr}) != ({p1[v]}, {ptr[v]})")
    return bad


def max_relative_error(a, b) -> float:
    """max |a - b| / max(|a|, |b|, 1), the gradient-check error measure."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float((np.abs(a - b) / scale).max())
