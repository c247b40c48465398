"""Tests of the benchmark's own checkers on hand-built circuits.

Each checker is shown to pass a known answer and to reject a wrong one.
Run with ``python3 -m pytest seqbench/test_checks.py`` from the checkout root.
"""
import os
import sys
from types import SimpleNamespace

import numpy as np

import checks
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

# a, b inputs; g = a AND b; n = NOT a; ff holds g; h = ff AND a
KINDS = ["PI", "PI", "AND", "NOT", "FF", "AND"]
FANINS = [(), (), (0, 1), (0,), (2,), (4, 0)]


def test_brute_force_distance_known_answers():
    # AND(a, b) differs from NOT a on (a=0, b=*) and on (a=1, b=1)
    assert checks.brute_force_distance(KINDS, FANINS, None, 2, 3) == (0.75, 2)
    kinds = KINDS + ["AND"]
    fanins = FANINS + [(1, 0)]
    assert checks.brute_force_distance(kinds, fanins, None, 2, 6) == (0.0, 2)
    # the FF output is a free source: ff AND a differs from a AND b when
    # a = 1 and ff != b, on 2 of the 8 assignments
    assert checks.brute_force_distance(KINDS, FANINS, None, 5, 2) == (0.25, 3)


def test_brute_force_distance_constant_input():
    kinds = ["PI", "PI", "AND", "NOT"]
    fanins = [(), (), (0, 1), (1,)]            # node 0 is the constant 0
    assert checks.brute_force_distance(kinds, fanins, 0, 2, 3) == (0.5, 1)


def test_check_f_pairs_rejects_wrong_distance_and_wide_support():
    assert checks.check_f_pairs(KINDS, FANINS, None, [(2, 3, 0.75)]) == []
    assert checks.check_f_pairs(KINDS, FANINS, None, [(2, 3, 0.5)])
    n = checks.MAX_SUPPORT + 1
    kinds = ["PI"] * n
    fanins = [()] * n
    acc = 0
    for v in range(1, n):
        kinds.append("AND")
        fanins.append((acc, v))
        acc = len(kinds) - 1
    kinds.append("NOT")
    fanins.append((acc,))
    assert checks.check_f_pairs(kinds, fanins, None, [(acc, acc + 1, 1.0)])


def test_reconvergence_from_ancestor_sets():
    # g2 = AND(g, n): both cones hold a, so they reconverge
    kinds = KINDS + ["AND"]
    fanins = FANINS + [(2, 3)]
    good = [(0, 1, 2, 0), (4, 0, 5, 0), (2, 3, 6, 1)]
    assert checks.check_rc_pairs(kinds, fanins, good) == []
    assert checks.check_rc_pairs(kinds, fanins, [(0, 1, 2, 0), (4, 0, 5, 1), (2, 3, 6, 1)])
    assert checks.check_rc_pairs(kinds, fanins, good[:2])


def test_ancestors_stop_at_flip_flops():
    assert checks.ancestors(KINDS, FANINS, 5) == {5, 4, 0}


def test_transition_similarity_of_toggling_flip_flops():
    toggle = np.array([[0, 1, 0, 1, 0, 1]], dtype=bool)
    assert checks.transition_similarity(toggle, toggle) == 1.0
    assert checks.transition_similarity(toggle, ~toggle) is None
    assert checks.transition_similarity(toggle, np.zeros_like(toggle)) == 0.0
    traces = {7: toggle, 8: np.zeros_like(toggle)}
    assert checks.check_ffsim_pairs(traces, [(7, 8, 0.0)]) == []
    assert checks.check_ffsim_pairs(traces, [(7, 8, 0.5)])


def test_signal_laws():
    # one pattern, four cycles: a = 0101, b = 0011, NOT a = 1010, a AND b = 0001
    kinds = ["PI", "PI", "NOT", "AND"]
    fanins = [(), (), (0,), (0, 1)]
    ones, toggles = [2, 2, 2, 1], [3, 1, 3, 1]
    assert checks.check_signal_laws(kinds, fanins, ones, toggles, 4, 3) == []
    assert checks.check_signal_laws(kinds, fanins, [2, 2, 1, 1], toggles, 4, 3)
    assert checks.check_signal_laws(kinds, fanins, ones, [3, 1, 3, 3], 4, 3)
    assert checks.check_signal_laws(kinds, fanins, [2, 2, 2, 3], toggles, 4, 3)


def test_counts_from_rates():
    ones, toggles, evals, steps = checks.counts_from_rates([0.5, 0.25], [1.0, 1 / 3], 1, 4)
    assert (evals, steps) == (4, 3)
    assert ones.tolist() == [2, 1] and toggles.tolist() == [3, 1]


def _stats(p1_counts, tr_counts, T):
    p1_counts = np.asarray(p1_counts, dtype=float)
    tr_counts = np.asarray(tr_counts, dtype=float)
    return SimpleNamespace(n_patterns=p1_counts.shape[1], n_cycles=T,
                           pattern_p1_counts=p1_counts, pattern_tr_counts=tr_counts,
                           p1=p1_counts.mean(axis=1) / T,
                           ptr=tr_counts.mean(axis=1) / (T - 1))


def test_oracle_agreement_floors_at_one_count():
    # a toggling FF: every pattern reads 0101..., so the spread is zero
    stats = _stats([[2] * 10], [[3] * 10], 4)
    assert checks.check_oracle_agreement(stats, SimpleNamespace(p1=[0.5], ptr=[1.0])) == []
    assert checks.check_oracle_agreement(stats, SimpleNamespace(p1=[0.7], ptr=[1.0]))
    assert checks.check_oracle_agreement(stats, SimpleNamespace(p1=[0.5], ptr=[0.8]))


def test_oracle_limit_is_corrected_for_many_nodes():
    # 3.5 standard errors is common among 1000 correct estimates
    assert checks.z_limit(1) < checks.z_limit(2000)
    assert checks.z_limit(2000) > 3.5 > checks.z_limit(1, false_alarm=0.5)
    n = 1000
    stats = _stats(np.tile([[1, 3]], (n, 1)), np.tile([[1, 1]], (n, 1)), 5)
    se = np.std([1 / 5, 3 / 5], ddof=1) / np.sqrt(2)
    exact = SimpleNamespace(p1=stats.p1 + 3.5 * se, ptr=stats.ptr)
    assert checks.check_oracle_agreement(stats, exact) == []
    one = _stats([[1, 3]], [[1, 1]], 5)
    off = SimpleNamespace(p1=one.p1 + 3.5 * se, ptr=one.ptr)
    assert checks.check_oracle_agreement(one, off, false_alarm=0.01)


def test_oracle_agreement_on_simulated_toggling_flip_flop():
    import seqcircuit as sq

    b = sq.CircuitBuilder()
    ff = b.add_ff()
    b.set_ff_input(ff, b.add_not(ff))
    b.add_pi()
    g = b.build()
    w = sq.Workload({g.pis[0]: (0.5, 0.5)})
    cfg = sq.SimConfig(50, 10, 3)
    stats = sq.simulate(g, w, cfg, keep_pattern_counts=True)
    exact = sq.exhaustive_stats(g, w, cfg)
    assert stats.p1[ff] == 0.5 and stats.ptr[ff] == 1.0
    assert checks.check_oracle_agreement(stats, exact) == []
    wrong = SimpleNamespace(p1=exact.p1 + 0.1, ptr=exact.ptr)
    assert checks.check_oracle_agreement(stats, wrong)


def test_closed_form_power():
    ptr = [0.25, 0.5, 0.75, 0.9]
    mask = [True, True, True, False]
    assert checks.closed_form_power(ptr, mask) == 0.25
    assert checks.closed_form_power(ptr, mask, capacitance=3.0, vdd=2.0,
                                    freq_scale=0.25) == 0.5 * 3 * 4 * 0.25 * 0.5
    assert checks.check_power(0.25, ptr, mask) == []
    assert checks.check_power(0.5 * np.mean(ptr), ptr, mask)


def test_saif_round_trip_check():
    names = ["a", "b"]
    p1, ptr = [0.5, 0.25], [0.5, 0.125]
    assert checks.check_saif_round_trip(names, p1, ptr, 8, {"a": (0.5, 0.5), "b": (0.25, 0.125)}) == []
    assert checks.check_saif_round_trip(names, p1, ptr, 8, {"a": (0.5, 0.5)})
    assert checks.check_saif_round_trip(names, p1, ptr, 8, {"a": (0.5, 0.75), "b": (0.25, 0.125)})


def test_max_relative_error():
    assert checks.max_relative_error([1.0, 100.0], [1.0, 100.0]) == 0.0
    assert checks.max_relative_error([0.0, 200.0], [1e-7, 100.0]) == 0.5


def test_generated_aiger_keeps_its_node_counts():
    from seqcircuit.aiger import parse_aiger

    rng = inputs.rng_for(5, "test")
    counts = inputs.kind_counts(120)
    g = parse_aiger(inputs.to_aiger(*inputs.random_netlist(rng, **counts)))
    assert g.counts() == {"PI": counts["n_pi"], "AND": counts["n_and"],
                          "NOT": counts["n_not"], "FF": counts["n_ff"]}


def test_accumulator_adds():
    from seqcircuit.bench import parse_bench

    g = parse_bench(inputs.accumulator_bench(3))
    kinds, fanins, const = checks.netlist(g)
    ids = g.name_map
    # q' = q + in + cin, bit by bit, as a truth table over every (q, in, cin)
    sources = sorted({ids["cin"]} | {ids[f"{p}{i}"] for p in ("q", "in") for i in range(3)})
    for i in range(3):
        dist, k = checks.brute_force_distance(kinds, fanins, const, ids[f"s{i}"], ids[f"s{i}"])
        assert dist == 0.0 and k == 2 * (i + 1) + 1
    total = {}
    for a in range(1 << len(sources)):
        bits = {s: (a >> j) & 1 for j, s in enumerate(sources)}
        q = sum(bits[ids[f"q{i}"]] << i for i in range(3))
        x = sum(bits[ids[f"in{i}"]] << i for i in range(3))
        total[a] = (q + x + bits[ids["cin"]]) % 8
    values = _evaluate(kinds, fanins, sources)
    for i in range(3):
        got = values[ids[f"s{i}"]]
        assert all(got[a] == (total[a] >> i) & 1 for a in total)


def _evaluate(kinds, fanins, sources):
    """Value of every combinational node for every assignment of ``sources``."""
    size = 1 << len(sources)
    vals = {s: [(a >> j) & 1 for a in range(size)] for j, s in enumerate(sources)}
    pending = [v for v, k in enumerate(kinds) if k in ("AND", "NOT")]
    while pending:
        rest = []
        for v in pending:
            if any(u not in vals for u in fanins[v]):
                rest.append(v)
            elif kinds[v] == "AND":
                vals[v] = [x & y for x, y in zip(vals[fanins[v][0]], vals[fanins[v][1]])]
            else:
                vals[v] = [1 - x for x in vals[fanins[v][0]]]
        assert len(rest) < len(pending)
        pending = rest
    return vals
