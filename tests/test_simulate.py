import importlib
import os
import struct
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, GenSpec, SimConfig, Workload,
                        exhaustive_stats, generate, markov_params, parse_bench,
                        simulate)
from seqcircuit.reliability import fault_words
from seqcircuit.simulate import (SimulationError, _enumerate_truth,
                                 compiled_order, cycle_window, pi_words,
                                 read_trace_file, run_cycles, unpack_patterns,
                                 write_trace_file)
from tests.conftest import (accumulator_bench, and2, eval_graph, mixed_circuit,
                            WINDOW_RUNS, reference_run, toggle_ff,
                            window_circuit)

# The package exports the function ``simulate`` under the module's name.
sim = importlib.import_module("seqcircuit.simulate")


class TestMarkovParams:
    def test_iid_fair_bits(self):
        # Solving a(1-p1) = b*p1 and 2a(1-p1) = ptr for (0.5, 0.5) by hand
        # gives a = b = 0.5: an i.i.d. fair coin.
        assert markov_params(0.5, 0.5) == (0.5, 0.5)

    def test_strict_alternation(self):
        assert markov_params(0.5, 1.0) == (1.0, 1.0)

    def test_constant_one(self):
        assert markov_params(1.0, 0.0) == (0.0, 0.0)

    def test_infeasible(self):
        with pytest.raises(SimulationError):
            markov_params(0.1, 0.5)
        with pytest.raises(SimulationError):
            markov_params(1.0, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(p1=st.floats(0.01, 0.99), frac=st.floats(0.0, 1.0))
    def test_stationarity_and_change_rate(self, p1, frac):
        ptr = frac * 2.0 * min(p1, 1.0 - p1)
        a, b = markov_params(p1, ptr)
        assert 0.0 <= a <= 1.0 + 1e-9 and 0.0 <= b <= 1.0 + 1e-9
        assert a * (1 - p1) == pytest.approx(b * p1, abs=1e-12)
        assert 2 * a * (1 - p1) == pytest.approx(ptr, abs=1e-12)


class TestSimulate:
    def test_not_complement_exact(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        inv = b.add_not(pi)
        b.set_outputs([inv])
        g = b.build()
        stats = simulate(g, Workload({pi: (0.3, 0.2)}), SimConfig(500, 50, 7))
        total = 500 * 50
        assert stats.p1_counts[inv] == total - stats.p1_counts[pi]
        assert stats.tr_counts[inv] == stats.tr_counts[pi]
        assert Fraction(int(stats.p1_counts[inv]), total) \
            == 1 - Fraction(int(stats.p1_counts[pi]), total)
        assert abs(stats.p1[inv] - 0.7) < 3 * np.sqrt(0.3 * 0.7 / total)

    def test_and_of_iid_fair_inputs(self):
        # Output is Bernoulli(1/4) i.i.d. across cycles, so the change
        # probability is 2 * 1/4 * 3/4 = 3/8.
        g, ids = and2()
        w = Workload({ids["a"]: (0.5, 0.5), ids["b"]: (0.5, 0.5)})
        stats = simulate(g, w, SimConfig(1000, 100, 3))
        n = 1000 * 100
        se_p = np.sqrt(0.25 * 0.75 / n)
        se_t = np.sqrt(0.375 * 0.625 / (1000 * 99))
        assert abs(stats.p1[ids["and"]] - 0.25) < 3 * se_p
        assert abs(stats.ptr[ids["and"]] - 0.375) < 3 * se_t

    def test_toggle_ff_alternates(self):
        g, ids = toggle_ff()
        stats = simulate(g, Workload({ids["pi"]: (0.5, 0.5)}),
                         SimConfig(50, 20, 1))
        tr = stats.traces[ids["ff"]]
        assert np.array_equal(tr[:, 0], np.zeros(50, dtype=bool))
        assert np.array_equal(tr[:, 1:], ~tr[:, :-1])
        assert stats.ptr[ids["ff"]] == 1.0

    def test_determinism_bitwise(self):
        g = generate(GenSpec(n_pi=4, n_and=15, n_not=6, n_ff=3, seed=5))
        w = Workload.random(g, 9)
        cfg = SimConfig(300, 40, 11)
        s1 = simulate(g, w, cfg)
        s2 = simulate(g, w, cfg)
        assert np.array_equal(s1.p1_counts, s2.p1_counts)
        assert np.array_equal(s1.tr_counts, s2.tr_counts)
        for ff in g.ffs:
            assert np.array_equal(s1.traces[ff], s2.traces[ff])

    def test_negative_seed_rejected(self):
        g, ids = and2()
        w = Workload({ids["a"]: (0.5, 0.5), ids["b"]: (0.5, 0.5)})
        with pytest.raises(SimulationError, match=r"^seed must be >= 0, got -1$"):
            simulate(g, w, SimConfig(10, 5, -1))

    def test_missing_pi_rejected(self):
        g, ids = and2()
        with pytest.raises(SimulationError):
            simulate(g, Workload({ids["a"]: (0.5, 0.5)}), SimConfig(10, 5, 0))

    def test_complement_law_all_nodes(self):
        from seqcircuit.circuit import NodeKind

        for seed in range(5):
            g = generate(GenSpec(n_pi=3, n_and=10, n_not=6, n_ff=2, seed=seed,
                                 feedback_prob=0.5))
            stats = simulate(g, Workload.random(g, seed), SimConfig(200, 30, 2))
            for v in range(g.n):
                if g.kinds[v] == NodeKind.NOT:
                    u = g.fanins[v][0]
                    assert stats.p1_counts[v] == 200 * 30 - stats.p1_counts[u]
                    assert stats.tr_counts[v] == stats.tr_counts[u]

    def test_stationary_transition_bound(self):
        for seed in range(5):
            g = generate(GenSpec(n_pi=4, n_and=12, n_not=5, n_ff=3, seed=seed,
                                 feedback_prob=0.5))
            stats = simulate(g, Workload.random(g, seed + 50),
                             SimConfig(1000, 100, 3))
            bound = 2 * np.minimum(stats.p1, 1 - stats.p1) + 0.02
            assert (stats.ptr <= bound).all()

    def test_pattern_counts_sum(self):
        g, ids = and2()
        w = Workload({ids["a"]: (0.5, 0.5), ids["b"]: (0.4, 0.3)})
        stats = simulate(g, w, SimConfig(100, 25, 5), keep_pattern_counts=True)
        assert np.array_equal(stats.pattern_p1_counts.sum(axis=1),
                              stats.p1_counts)
        assert np.array_equal(stats.pattern_tr_counts.sum(axis=1),
                              stats.tr_counts)


def kernel_circuits():
    g = mixed_circuit()
    yield g, Workload({pi: (0.4, 0.3) for pi in g.workload_pis()})
    g = generate(GenSpec(n_pi=4, n_and=18, n_not=9, n_ff=4, seed=8,
                         feedback_prob=0.6))
    yield g, Workload.random(g, 2)


class TestKernel:
    """The packed level kernel against a per-gate boolean reference."""

    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 250, 1000])
    def test_matches_per_gate_reference(self, n_patterns):
        for g, w in kernel_circuits():
            stats = simulate(g, w, SimConfig(n_patterns, 6, 3),
                             keep_pattern_counts=True)
            vals, states = reference_run(g, w, n_patterns, 6, 3)
            changed = vals[1:] != vals[:-1]
            assert np.array_equal(stats.p1_counts, vals.sum(axis=(0, 2)))
            assert np.array_equal(stats.tr_counts, changed.sum(axis=(0, 2)))
            assert np.array_equal(stats.pattern_p1_counts, vals.sum(axis=0))
            assert np.array_equal(stats.pattern_tr_counts, changed.sum(axis=0))
            assert list(stats.traces) == g.ffs
            for j, ff in enumerate(g.ffs):
                assert np.array_equal(stats.traces[ff], states[:, j, :].T)

    def test_traces_are_read_only_views(self):
        g = mixed_circuit()
        stats = simulate(g, Workload({pi: (0.4, 0.3) for pi in g.workload_pis()}),
                         SimConfig(65, 4, 1))
        assert stats.traces.words.shape == (4, len(g.ffs), 2)
        ff = g.ffs[0]
        assert stats.traces[ff].shape == (65, 4)
        with pytest.raises(TypeError):
            stats.traces[ff] = np.zeros((65, 4), dtype=bool)

    def test_traces_stay_packed(self):
        # 200 FFs at 1000 x 100: their bool traces alone take 20 MB.
        g = generate(GenSpec(n_pi=16, n_and=500, n_not=150, n_ff=200, seed=3,
                             feedback_prob=0.5))
        w = Workload.random(g, 1)
        P, T = 1000, 100
        simulate(g, w, SimConfig(1, 2, 3))  # first-call allocations
        tracemalloc.start()
        try:
            stats = simulate(g, w, SimConfig(P, T, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(g.ffs) * P * T / 2
        assert stats.traces.words.nbytes == T * len(g.ffs) * 16 * 8

    def test_constant_and_reset_values(self):
        g = mixed_circuit()
        stats = simulate(g, Workload({pi: (0.5, 0.5) for pi in g.workload_pis()}),
                         SimConfig(65, 4, 1))
        assert stats.p1_counts[g.const_id] == 0
        assert stats.p1_counts[g.pos[1]] == 0
        f1, f2, f3 = g.ffs
        assert stats.traces[f1][:, 0].all() and stats.traces[f2][:, 0].all()
        assert not stats.traces[f3][:, 0].any()

    def test_truth_table_matches_recursive_evaluator(self):
        # 32 assignments fill part of one word; 128 span two.
        small = mixed_circuit()
        big = generate(GenSpec(n_pi=4, n_and=14, n_not=6, n_ff=3, seed=4,
                               feedback_prob=0.5))
        for g in (small, big):
            src = g.workload_pis() + g.ffs
            vals = _enumerate_truth(g, g.workload_pis(), g.ffs)
            assert vals.shape == (g.n, 1 << len(src))
            for idx in range(1 << len(src)):
                bits = {v: bool(idx >> i & 1) for i, v in enumerate(src)}
                ev = eval_graph(g, bits)
                assert all(vals[v, idx] == ev(v) for v in g.gates)


def windowed_run(g, w, P, T, seed, flip_prob=0.0):
    """(T, n, P) values and (T, n_ffs, P) states unpacked from ``run_cycles``,
    and the window length."""
    words = pi_words(g, w, SimConfig(P, T, seed))
    flips = None
    if flip_prob > 0.0:
        flips = fault_words(seed, flip_prob, (T, g.n), words.shape[-1])
    window = cycle_window(g, compiled_order(g), T, words.shape[-1])
    # The value block is reused from window to window: unpack it at once.
    blocks = [(unpack_patterns(v, P), unpack_patterns(s, P))
              for s, v in run_cycles(g, window, words, flips)]
    vals, states = (np.concatenate(b) for b in zip(*blocks))
    return vals, states, max(window)


class TestCycleWindow:
    """Windows of cycles swept as one DAG against the per-gate reference."""

    @pytest.mark.parametrize("circuit, T, P", WINDOW_RUNS + [("mixed", 2, 70)])
    def test_simulate_matches_per_gate_reference(self, circuit, T, P):
        g, w = window_circuit(circuit)
        C = max(cycle_window(g, compiled_order(g), T, -(-P // 64)))
        assert (C > 1) == (T > 2)
        stats = simulate(g, w, SimConfig(P, T, 5), keep_pattern_counts=True)
        vals, states = reference_run(g, w, P, T, 5)
        changed = vals[1:] != vals[:-1]
        assert np.array_equal(stats.p1_counts, vals.sum(axis=(0, 2)))
        assert np.array_equal(stats.tr_counts, changed.sum(axis=(0, 2)))
        assert np.array_equal(stats.pattern_p1_counts, vals.sum(axis=0))
        assert np.array_equal(stats.pattern_tr_counts, changed.sum(axis=0))
        for j, ff in enumerate(g.ffs):
            assert np.array_equal(stats.traces[ff], states[:, j, :].T)

    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    @pytest.mark.parametrize("circuit, T, P", WINDOW_RUNS + [
        ("mixed", 1, 70), ("mixed", 2, 70), ("accumulator", 2, 3)])
    def test_run_cycles_matches_per_gate_reference(self, circuit, T, P,
                                                   flip_prob):
        g, w = window_circuit(circuit)
        vals, states, C = windowed_run(g, w, P, T, 4, flip_prob)
        assert (C > 1) == (T > 2)
        ref_vals, ref_states = reference_run(g, w, P, T, 4, flip_prob)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(states, ref_states)

    def test_last_window_is_shorter(self):
        g, _ = window_circuit("accumulator")
        window = cycle_window(g, compiled_order(g), 37, 2)
        assert sorted(window) == [2, 5]  # seven windows of 5, then one of 2
        assert window[2] and len(window[2]) < len(window[5])

    @pytest.mark.parametrize("circuit", ["mixed", "toggle"])
    def test_one_cycle_window_is_the_compiled_order(self, circuit):
        g = mixed_circuit() if circuit == "mixed" else toggle_ff()[0]
        levels = compiled_order(g)
        window = cycle_window(g, levels, 13 if circuit == "mixed" else 100, 16)
        assert list(window) == [1] and window[1] is levels

    def test_window_stays_within_chunk_words(self):
        g = parse_bench(accumulator_bench(64))
        levels = compiled_order(g)
        for words in (1, 16, 160):
            C = max(cycle_window(g, levels, 100, words))
            assert C * g.n * words <= sim.CHUNK_WORDS or C == 1

    def test_deep_accumulator_takes_a_quarter_of_the_steps(self, monkeypatch):
        # 64 one-FF loops a few levels long through 260 levels: one sweep
        # per cycle would take 100 x 260 steps.
        g = parse_bench(accumulator_bench(64))
        w = Workload.random(g, 1)
        depth = len(compiled_order(g))
        steps = []
        sweep = sim.eval_levels
        monkeypatch.setattr(sim, "eval_levels", lambda levels, *args:
                            steps.append(len(levels)) or sweep(levels, *args))
        simulate(g, w, SimConfig(1000, 100, 2))
        assert sum(steps) <= 100 * depth / 4


def inputs_only(probs):
    """A circuit of one output per input, and the workload ``probs``."""
    b = CircuitBuilder()
    pis = [b.add_pi() for _ in probs]
    b.set_outputs(pis)
    return b.build(), Workload(dict(zip(pis, probs)))


class TestInputStream:
    """``pi_words``: one RNG stream per 64-pattern word."""

    def test_same_seed_same_words(self):
        g = generate(GenSpec(n_pi=5, n_and=10, n_not=4, n_ff=2, seed=3))
        w = Workload.random(g, 4)
        cfg = SimConfig(200, 30, 9)
        assert np.array_equal(sim.pi_words(g, w, cfg), sim.pi_words(g, w, cfg))

    def test_words_differ(self):
        g, w = inputs_only([(0.5, 0.5)] * 4)
        words = sim.pi_words(g, w, SimConfig(128, 20, 1))
        assert not np.array_equal(words[..., 0], words[..., 1])

    @pytest.mark.parametrize("word", [0, 1, 2])
    def test_word_draw_is_its_lanes(self, word):
        # 150 patterns: the last word holds 22 patterns and 42 padding lanes,
        # which carry the rest of that word's draw.
        probs = [(0.4, 0.3), (0.8, 0.1), (0.5, 1.0), (0.0, 0.0)]
        g, w = inputs_only(probs)
        cfg = SimConfig(150, 12, 5)
        words = sim.pi_words(g, w, cfg)
        lanes = sim.unpack_patterns(words, 64 * words.shape[-1])
        u = np.random.default_rng([cfg.seed, word, sim.PI_STREAM]).random(
            (cfg.n_cycles, len(probs), 64))
        p1 = np.array([p for p, _ in probs])[:, None]
        a, b = np.array([markov_params(*p) for p in probs]).T[..., None]
        x = u[0] < p1
        expect = [x]
        for t in range(1, cfg.n_cycles):
            x = np.where(x, u[t] >= b, u[t] < a)
            expect.append(x)
        assert np.array_equal(lanes[..., 64 * word:64 * word + 64],
                              np.array(expect))

    def test_pooled_rates_within_bonferroni_limit(self):
        # Constant inputs, an ordinary one, and ptr at its bound
        # 2 * min(p1, 1 - p1), where every 1 (or 0) flips the next cycle.
        probs = [(0.0, 0.0), (1.0, 0.0), (0.4, 0.3), (0.3, 0.6), (0.7, 0.6),
                 (0.5, 1.0), (0.15, 0.05)]
        g, w = inputs_only(probs)
        P, T = 1000, 100
        bits = sim.unpack_patterns(sim.pi_words(g, w, SimConfig(P, T, 17)), P)
        changed = bits[1:] != bits[:-1]
        # Bonferroni over two rates per input, at a 1e-6 false alarm.
        limit = NormalDist().inv_cdf(1 - 1e-6 / (2 * 2 * len(probs)))
        for est, n, target in ((bits, T, [p for p, _ in probs]),
                               (changed, T - 1, [r for _, r in probs])):
            per_pattern = est.mean(axis=0)  # (k, P)
            se = np.maximum(per_pattern.std(axis=1, ddof=1) / np.sqrt(P),
                            1.0 / (P * n))
            z = np.abs(per_pattern.mean(axis=1) - target) / se
            assert (z <= limit).all(), z
        assert not bits[:, 0].any() and bits[:, 1].all()
        assert not (bits[1:, 3] & bits[:-1, 3]).any()
        assert (bits[1:, 4] | bits[:-1, 4]).all()
        assert changed[:, 5].all()

    def test_draw_memory_is_per_word(self):
        g, w = inputs_only([(0.4, 0.3)] * 8)
        P, T, k = 1000, 100, 8
        # The first draw in a process allocates about 0.8 MB once.
        sim.pi_words(g, w, SimConfig(1, 2, 3))
        tracemalloc.start()
        try:
            words = sim.pi_words(g, w, SimConfig(P, T, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = T * k * 64 * 8  # one word's float64 draw
        dense = P * T * k * 8   # a float64 draw of every pattern at once
        assert peak < 2 * words.nbytes + 2 * block < dense / 4


class TestExhaustive:
    def test_and_exact(self):
        # Inputs start stationary, so every cycle of the horizon has the
        # same AND statistics.
        g, ids = and2()
        w = Workload({ids["a"]: (0.5, 0.5), ids["b"]: (0.5, 0.5)})
        ex = exhaustive_stats(g, w, SimConfig(n_cycles=7))
        assert ex.p1[ids["and"]] == pytest.approx(0.25, abs=1e-9)
        assert ex.ptr[ids["and"]] == pytest.approx(0.375, abs=1e-9)

    def test_toggle_exact(self):
        # From reset the FF alternates 0, 1, 0, ...: half the cycles of an
        # even horizon are 1, and every step toggles.
        g, ids = toggle_ff()
        ex = exhaustive_stats(g, Workload({ids["pi"]: (0.5, 0.5)}),
                              SimConfig(n_cycles=10))
        assert ex.p1[ids["ff"]] == pytest.approx(0.5, abs=1e-9)
        assert ex.ptr[ids["ff"]] == pytest.approx(1.0, abs=1e-9)

    def test_finite_horizon_matches_simulation_mean(self):
        # The cfg-form of the oracle is the exact expectation of simulate().
        for seed in (0, 1, 2):
            g = generate(GenSpec(n_pi=4, n_and=8, n_not=4, n_ff=2, seed=seed,
                                 feedback_prob=0.6))
            w = Workload.random(g, seed + 3)
            cfg = SimConfig(2000, 50, seed)
            stats = simulate(g, w, cfg, keep_pattern_counts=True)
            exact = exhaustive_stats(g, w, cfg)
            M = cfg.n_patterns
            se_p1 = np.maximum(
                (stats.pattern_p1_counts / cfg.n_cycles).std(axis=1, ddof=1)
                / np.sqrt(M), 1.0 / (M * cfg.n_cycles))
            se_tr = np.maximum(
                (stats.pattern_tr_counts / (cfg.n_cycles - 1)).std(axis=1, ddof=1)
                / np.sqrt(M), 1.0 / (M * (cfg.n_cycles - 1)))
            assert (np.abs(stats.p1 - exact.p1) <= 4 * se_p1).all()
            assert (np.abs(stats.ptr - exact.ptr) <= 4 * se_tr).all()

    def test_constant_input_propagates(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        c = b.const_false()
        g_and = b.add_and(pi, c)
        b.set_outputs([g_and])
        g = b.build()
        ex = exhaustive_stats(g, Workload({pi: (0.7, 0.3)}), SimConfig())
        assert ex.p1[g_and] == 0.0
        assert ex.ptr[g_and] == 0.0

    def test_size_limits(self):
        b = CircuitBuilder()
        for _ in range(13):
            b.add_pi()
        g = b.build()
        w = Workload({pi: (0.5, 0.5) for pi in g.pis})
        with pytest.raises(SimulationError):
            exhaustive_stats(g, w, SimConfig())


class TestTraceFile:
    def test_roundtrip(self, tmp_path):
        g = generate(GenSpec(n_pi=3, n_and=6, n_not=3, n_ff=4, seed=2,
                             feedback_prob=0.5))
        stats = simulate(g, Workload.random(g, 1), SimConfig(37, 13, 5))
        path = os.path.join(tmp_path, "t.bin")
        write_trace_file(path, stats)
        traces, n_pat, n_cyc = read_trace_file(path)
        assert (n_pat, n_cyc) == (37, 13)
        assert sorted(traces) == sorted(stats.traces)
        for ff, mat in traces.items():
            assert np.array_equal(mat, stats.traces[ff])

    @pytest.mark.parametrize("P, T", [(37, 13), (65, 7), (64, 2)])
    def test_bytes_match_independent_packing(self, tmp_path, P, T):
        # Header, FF ids, then each FF's (pattern, cycle) bits in id order
        # as one stream of little-endian words filled LSB first.
        g = generate(GenSpec(n_pi=3, n_and=6, n_not=3, n_ff=4, seed=2,
                             feedback_prob=0.5))
        w = Workload.random(g, 1)
        path = os.path.join(tmp_path, "t.bin")
        write_trace_file(path, simulate(g, w, SimConfig(P, T, 5)))
        _, states = reference_run(g, w, P, T, 5)
        bits = [int(states[t, j, p]) for j in range(len(g.ffs))
                for p in range(P) for t in range(T)]
        bits += [0] * (-len(bits) % 64)
        want = b"SQTR" + struct.pack("<III", len(g.ffs), P, T)
        want += struct.pack(f"<{len(g.ffs)}I", *g.ffs)
        for lo in range(0, len(bits), 64):
            want += struct.pack("<Q", sum(b << k for k, b in
                                          enumerate(bits[lo:lo + 64])))
        with open(path, "rb") as f:
            assert f.read() == want

    def test_truncated_file(self, tmp_path):
        g = generate(GenSpec(n_pi=3, n_and=6, n_not=3, n_ff=4, seed=2,
                             feedback_prob=0.5))
        path = os.path.join(tmp_path, "t.bin")
        write_trace_file(path, simulate(g, Workload.random(g, 1),
                                        SimConfig(1000, 10, 5)))
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 16)
        with pytest.raises(SimulationError,
                           match=f"has {size - 16} bytes, expected {size}"):
            read_trace_file(path)

    def test_truncated_header(self, tmp_path):
        path = os.path.join(tmp_path, "t.bin")
        with open(path, "wb") as f:
            f.write(b"SQTR" + struct.pack("<I", 4) + b"\0\0")
        with pytest.raises(SimulationError,
                           match="has 10 bytes, expected at least 16"):
            read_trace_file(path)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "bad.bin")
        with open(path, "wb") as f:
            f.write(b"XXXX")
        with pytest.raises(SimulationError):
            read_trace_file(path)
