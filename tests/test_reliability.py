import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from seqcircuit import (CircuitBuilder, FaultConfig, GenSpec, SimConfig,
                        Workload, build_labelset, generate,
                        reliability_labels, simulate)
from seqcircuit import model as mdl
from seqcircuit import reliability as rel
from seqcircuit import tensor as tz
from seqcircuit.labels import LabelSet
from seqcircuit.simulate import (WORD_BITS, SimulationError, pattern_mask, pi_words,
                                unpack_patterns)
from tests.conftest import (WINDOW_RUNS, mixed_circuit, reference_run,
                            toggle_ff, window_circuit)


def test_flip_zero_is_observationally_absent():
    g = generate(GenSpec(n_pi=4, n_and=12, n_not=6, n_ff=3, seed=5,
                         feedback_prob=0.5))
    w = Workload.random(g, 3)
    fc = FaultConfig(flip_prob=0.0, n_patterns=150, n_cycles=40, seed=9)
    labels, traces, ftraces = reliability_labels(g, w, fc, return_traces=True)
    sim = simulate(g, w, SimConfig(150, 40, 9))
    # packed views of the (T, n_ff, W) state words, not bool copies
    assert traces.words.shape == ftraces.words.shape == (40, len(g.ffs), 3)
    for ff in g.ffs:
        assert np.array_equal(traces[ff], sim.traces[ff])
        assert np.array_equal(ftraces[ff], sim.traces[ff])
    assert labels.p01.max() == 0.0
    assert labels.p10.max() == 0.0


@pytest.mark.parametrize("circuit", ["mixed", "generated"])
def test_faulty_kernel_matches_per_gate_reference(circuit):
    if circuit == "mixed":
        g = mixed_circuit()
        w = Workload({pi: (0.6, 0.4) for pi in g.workload_pis()})
    else:
        g = generate(GenSpec(n_pi=3, n_and=12, n_not=6, n_ff=3, seed=2,
                             feedback_prob=0.6))
        w = Workload.random(g, 5)
    check_faulty_run(g, w, 70, 9, 4)


@pytest.mark.parametrize("circuit, T, P", WINDOW_RUNS)
def test_windowed_faulty_runs_match_per_gate_reference(circuit, T, P):
    # One pattern of a 3-node circuit needs a high rate to flip both ways.
    g, w = window_circuit(circuit)
    check_faulty_run(g, w, P, T, 6, flip_prob=0.2)


def check_faulty_run(g, w, P, T, seed, flip_prob=0.05):
    """Flip labels and both runs' FF states against the per-gate reference."""
    fc = FaultConfig(flip_prob=flip_prob, n_patterns=P, n_cycles=T, seed=seed)
    labels, traces, ftraces = reliability_labels(g, w, fc, return_traces=True)
    vals, states = reference_run(g, w, P, T, seed)
    fvals, fstates = reference_run(g, w, P, T, seed, flip_prob=flip_prob)
    n0, n1 = (~vals).sum(axis=(0, 2)), vals.sum(axis=(0, 2))
    n01 = (fvals & ~vals).sum(axis=(0, 2))
    n10 = (vals & ~fvals).sum(axis=(0, 2))
    assert n01.sum() > 0 and n10.sum() > 0
    assert np.array_equal(labels.n0, n0)
    assert np.array_equal(labels.n1, n1)
    assert np.array_equal(labels.p01, np.divide(n01, n0, out=np.zeros(g.n),
                                                where=n0 > 0))
    assert np.array_equal(labels.p10, np.divide(n10, n1, out=np.zeros(g.n),
                                                where=n1 > 0))
    for j, ff in enumerate(g.ffs):
        assert np.array_equal(traces[ff], states[:, j, :].T)
        assert np.array_equal(ftraces[ff], fstates[:, j, :].T)


def test_isolated_pi_bernoulli():
    b = CircuitBuilder()
    pi = b.add_pi()
    b.set_outputs([pi])
    g = b.build()
    eps = 0.01
    fc = FaultConfig(flip_prob=eps, n_patterns=1000, n_cycles=100, seed=4)
    labels = reliability_labels(g, Workload({pi: (0.4, 0.3)}), fc)
    se01 = np.sqrt(eps * (1 - eps) / labels.n0[pi])
    se10 = np.sqrt(eps * (1 - eps) / labels.n1[pi])
    assert abs(labels.p01[pi] - eps) < 3 * se01
    assert abs(labels.p10[pi] - eps) < 3 * se10
    # fault-free occupancy matches the workload
    assert labels.n1[pi] / (labels.n0[pi] + labels.n1[pi]) \
        == pytest.approx(0.4, abs=0.01)


def test_toggle_ff_error_accumulation():
    g, ids = toggle_ff()
    fc = FaultConfig(flip_prob=0.002, n_patterns=500, n_cycles=80, seed=7)
    labels = reliability_labels(g, Workload({ids["pi"]: (0.5, 0.5)}), fc)
    ff = ids["ff"]
    # upstream flips corrupt the latched state, so observed flip rates exceed
    # the single-net injection rate
    assert labels.p01[ff] + labels.p10[ff] >= 0.002
    assert labels.p01[ff] > 0 and labels.p10[ff] > 0


def test_constant_node_denominator_flags():
    b = CircuitBuilder()
    pi = b.add_pi()
    c = b.const_false()
    anded = b.add_and(pi, c)  # constant 0 in the fault-free run
    b.set_outputs([anded])
    g = b.build()
    fc = FaultConfig(flip_prob=0.01, n_patterns=200, n_cycles=30, seed=2)
    labels = reliability_labels(g, Workload({pi: (0.5, 0.5)}), fc)
    assert labels.n1[anded] == 0          # never 1 when fault free
    assert labels.p10[anded] == 0.0       # undefined rate reported as 0
    assert not labels.defined10[anded]
    assert labels.defined01[anded]


def test_determinism():
    g = generate(GenSpec(n_pi=3, n_and=8, n_not=4, n_ff=2, seed=1,
                         feedback_prob=0.5))
    w = Workload.random(g, 2)
    fc = FaultConfig(flip_prob=0.005, n_patterns=300, n_cycles=50, seed=11)
    l1 = reliability_labels(g, w, fc)
    l2 = reliability_labels(g, w, fc)
    assert np.array_equal(l1.p01, l2.p01)
    assert np.array_equal(l1.p10, l2.p10)


def test_flip_config_validation():
    with pytest.raises(ValueError):
        FaultConfig(flip_prob=1.0).check()
    with pytest.raises(SimulationError,
                       match=r"^need n_patterns >= 1 and n_cycles >= 2$"):
        FaultConfig(n_cycles=1).check()
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        FaultConfig(seed=-1).check()


def test_json_lines_export():
    g = generate(GenSpec(n_pi=3, n_and=6, n_not=2, n_ff=1, seed=3))
    w = Workload.random(g, 4)
    labels = reliability_labels(g, w, FaultConfig(flip_prob=0.01,
                                                  n_patterns=50, n_cycles=20,
                                                  seed=5))
    import json

    lines = labels.to_json_lines(g).strip().splitlines()
    assert len(lines) == g.n
    row = json.loads(lines[0])
    assert {"id", "p01", "p10", "n0", "n1"} <= set(row)


def test_finetune_head_shape_and_learning():
    g = generate(GenSpec(n_pi=3, n_and=6, n_not=3, n_ff=2, seed=11,
                         feedback_prob=0.5))
    w = Workload.random(g, 7)
    flip = reliability_labels(g, w, FaultConfig(flip_prob=0.0005,
                                                n_patterns=300, n_cycles=50,
                                                seed=2))
    labels = build_labelset(g, w, SimConfig(100, 25, 3), seed=1)
    rec = mdl.CircuitRecord(graph=g, workload=w, labels=labels)
    pre, _ = mdl.train([rec], mdl.TrainConfig(dim=8, epochs_phase1=3,
                                              epochs_phase2=0, lr=1e-3,
                                              seed=0, batch_size=1))
    tuned, hist = rel.finetune_reliability(
        pre, g, w, flip, mdl.TrainConfig(dim=8, lr=5e-2, seed=0), epochs=25)
    assert "head.flip.w1" in tuned
    assert "head.flip.w1" not in pre  # original params untouched
    assert hist[-1]["pe_flip"] < hist[0]["pe_flip"]
    assert all(set(row) == {"epoch", "loss_flip", "pe_flip"} for row in hist)
    rec2 = mdl.CircuitRecord(graph=g, workload=w, labels=labels).prepare(
        mdl.ModelConfig(dim=8), 0, 0)
    pred = rel.predict_flip_rates(tuned, rec2, mdl.ModelConfig(dim=8))
    assert pred.shape == (g.n, 2)
    assert not pred.requires and not pred.parents  # inference keeps no tape


def test_flip_rates_equal_flip_head_on_taped_forward():
    # The tape-free flip rates are those of the taped forward that
    # fine-tuning differentiates, on the same rows.
    g = generate(GenSpec(n_pi=4, n_and=20, n_not=8, n_ff=3, seed=31,
                         feedback_prob=0.3))
    w = Workload.random(g, 5)
    cfg = mdl.ModelConfig(dim=8)
    params = mdl.init_params(8, seed=3)
    mdl.add_reliability_head(params, 8, seed=4)
    rec = mdl.CircuitRecord(graph=g, workload=w,
                            labels=LabelSet.empty()).prepare(cfg, 2, 0)
    pred = rel.predict_flip_rates(params, rec, cfg)
    table, _ = mdl.forward_tensors(params, rec.emb0, cfg, schedule=rec.schedule)
    taped = tz.mlp3(tz.take_rows(table.current, np.arange(g.n)), params,
                    "head.flip")
    assert taped.parents and taped.requires
    assert np.unique(taped.data).size > 1
    assert pred.shape == (g.n, 2)
    assert np.array_equal(pred.data, taped.data)


def test_zero_labels_start_near_half_and_decrease():
    # sigmoid outputs start around 0.5 on a zero-initialized head and the
    # loss moves toward the all-zero labels
    g = generate(GenSpec(n_pi=2, n_and=4, n_not=2, n_ff=1, seed=21))
    w = Workload.random(g, 9)
    flip = rel.FlipLabels(p01=np.zeros(g.n), p10=np.zeros(g.n),
                          n0=np.ones(g.n), n1=np.ones(g.n))
    labels = build_labelset(g, w, SimConfig(50, 20, 1), seed=0)
    rec = mdl.CircuitRecord(graph=g, workload=w, labels=labels)
    pre, _ = mdl.train([rec], mdl.TrainConfig(dim=8, epochs_phase1=2,
                                              epochs_phase2=0, lr=1e-3,
                                              seed=1, batch_size=1))
    mdl.add_reliability_head(pre, 8, seed=1)
    for name in pre.names():
        if name.startswith("head.flip"):
            pre[name].data = np.zeros_like(pre[name].data)
    tuned, hist = rel.finetune_reliability(pre, g, w, flip,
                                           mdl.TrainConfig(dim=8, lr=1e-2,
                                                           seed=1),
                                           epochs=10)
    assert hist[0]["loss_flip"] == pytest.approx(0.5, abs=0.02)
    assert hist[-1]["loss_flip"] < hist[0]["loss_flip"]


# --- fault draw -----------------------------------------------------------------

@pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 250])
def test_fault_and_pi_words_are_prefixes_of_a_longer_run(n_patterns):
    g = generate(GenSpec(n_pi=5, n_and=20, n_not=6, n_ff=3, seed=8))
    w = Workload.random(g, 1)
    P, T, seed, full = n_patterns, 6, 3, 320
    n_words = -(-P // WORD_BITS)
    masks = rel.fault_words(seed, 0.05, (T, g.n), n_words)
    long = rel.fault_words(seed, 0.05, (T, g.n), full // WORD_BITS)
    assert np.array_equal(masks, long[..., :n_words])
    assert unpack_patterns(masks, P).any()
    assert np.array_equal(unpack_patterns(pi_words(g, w, SimConfig(P, T, seed)), P),
                          unpack_patterns(pi_words(g, w, SimConfig(full, T, seed)),
                                          full)[..., :P])


@pytest.mark.parametrize("flip_prob", [5e-4, 0.05, 0.3, 0.5, 0.9])
def test_fault_batch_bound_does_not_change_masks(monkeypatch, flip_prob):
    ref = rel.fault_words(6, flip_prob, (5, 40), 3)
    monkeypatch.setattr(rel, "FAULT_BATCH", 7)
    assert np.array_equal(rel.fault_words(6, flip_prob, (5, 40), 3), ref)


def test_fault_rate_within_bonferroni_limit():
    shape, n_words, P = (4, 2000), 2, 100  # pattern 100..127 is padding
    probs = (5e-4, 0.5, 0.99)
    # The two high rates draw several gap batches per word.
    assert math.prod(shape) * WORD_BITS * 0.5 > 3 * rel.FAULT_BATCH
    z = NormalDist().inv_cdf(1 - 1e-6 / (2 * len(probs)))
    n = math.prod(shape) * P
    for p in probs:
        masks = rel.fault_words(13, p, shape, n_words)
        hits = int(np.bitwise_count(masks & pattern_mask(P)).sum())
        assert abs(hits - n * p) < z * math.sqrt(n * p * (1 - p)), (p, hits)


def test_fault_draw_memory_is_bounded():
    shape = (16, 2000)
    tracemalloc.start()
    try:
        masks = rel.fault_words(5, 0.99, shape, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = math.prod(shape) * WORD_BITS * 8  # one float64 per potential flip
    assert peak < masks.nbytes + 8 * rel.FAULT_BATCH * 8 < dense / 3
