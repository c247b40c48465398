"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Budgets are wall-clock seconds on a laptop-class machine.
"""
import importlib
import itertools
import json
import os
import time
from statistics import NormalDist

import numpy as np
import pytest

import seqcircuit as sq
from seqcircuit import model as mdl
from seqcircuit import power as pw
from seqcircuit import reliability as rel
from seqcircuit import tensor as tz
from seqcircuit.labels import LabelSet, support_masks
from seqcircuit.circuit import NodeKind
from seqcircuit.schedule import node_plan
from tests.conftest import eval_graph, forward_arrays

# The package exports the function ``simulate`` under the module's name.
sim_module = importlib.import_module("seqcircuit.simulate")


def report(num, name):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): PASS")


# --- 1. simulation oracle ----------------------------------------------------

# Chance that a correct simulator fails criterion 1 on one seed: the limit is
# Bonferroni-corrected for every comparison the test makes.
FALSE_ALARM = 1e-6


def oracle_circuits(n_circuits, seed=13):
    """(graph, workload, config) of random circuits small enough for
    ``exhaustive_stats``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_circuits):
        spec = sq.GenSpec(n_pi=int(rng.integers(2, 7)),
                          n_and=int(rng.integers(3, 11)),
                          n_not=int(rng.integers(2, 7)),
                          n_ff=int(rng.integers(1, 4)),
                          seed=int(rng.integers(2 ** 62)), feedback_prob=0.5)
        g = sq.generate(spec)
        assert len(g.workload_pis()) <= 12 and len(g.ffs) <= 8
        w = sq.Workload.random(g, int(rng.integers(2 ** 62)),
                               p1_range=(0.2, 0.8), ptr_frac_range=(0.15, 0.9))
        cfg = sq.SimConfig(n_patterns=1000, n_cycles=100,
                           seed=int(rng.integers(2 ** 62)))
        yield g, w, cfg


def oracle_worst_z(runs):
    """Largest distance, in standard errors, of a simulated p1 or ptr from
    its exact value over ``runs`` (pairs of ``simulate`` stats with pattern
    counts and ``exhaustive_stats``), and the limit that every one of those
    comparisons stays within with probability 1 - FALSE_ALARM."""
    z = []
    for stats, exact in runs:
        M, T = stats.n_patterns, stats.n_cycles
        # Patterns are the i.i.d. sampling units, so the standard error of
        # each estimate comes from the spread of per-pattern means, floored
        # at one-count resolution.
        se_p1 = np.maximum(
            (stats.pattern_p1_counts / T).std(axis=1, ddof=1) / np.sqrt(M),
            1.0 / (M * T))
        se_tr = np.maximum(
            (stats.pattern_tr_counts / (T - 1)).std(axis=1, ddof=1) / np.sqrt(M),
            1.0 / (M * (T - 1)))
        z += [np.abs(stats.p1 - exact.p1) / se_p1,
              np.abs(stats.ptr - exact.ptr) / se_tr]
    z = np.concatenate(z)
    return float(z.max()), NormalDist().inv_cdf(1 - FALSE_ALARM / (2 * z.size))


def test_criterion_1_simulation_oracle():
    t0 = time.time()
    worst, limit = oracle_worst_z(
        (sq.simulate(g, w, cfg, keep_pattern_counts=True),
         sq.exhaustive_stats(g, w, cfg)) for g, w, cfg in oracle_circuits(50))
    assert worst <= limit, f"off the exact value by {worst:.2f} > {limit:.2f} SE"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(1, "simulation oracle")


def test_criterion_1_rejects_a_fast_fall_rate(monkeypatch):
    """A simulator whose inputs fall 1 -> 0 5% too often fails the oracle."""
    real = sim_module.markov_params

    def biased(p1, ptr):
        a, b = real(p1, ptr)
        return a, 1.05 * b

    runs = []
    for g, w, cfg in oracle_circuits(4):
        exact = sq.exhaustive_stats(g, w, cfg)
        with monkeypatch.context() as m:
            m.setattr(sim_module, "markov_params", biased)
            runs.append((sq.simulate(g, w, cfg, keep_pattern_counts=True), exact))
    worst, limit = oracle_worst_z(runs)
    assert worst > limit


# --- 2. label oracles ---------------------------------------------------------

def _ancestors(g, v):
    seen = {v}
    work = [v]
    while work:
        u = work.pop()
        if g.kinds[u] in (NodeKind.PI, NodeKind.FF):
            continue
        for p in g.fanins[u]:
            if p not in seen:
                seen.add(p)
                work.append(p)
    return seen


def test_criterion_2_label_oracles():
    rng = np.random.default_rng(2)
    # reconvergence vs brute-force ancestor intersection on 100 circuits
    for k in range(100):
        g = sq.generate(sq.GenSpec(n_pi=int(rng.integers(2, 6)),
                                   n_and=int(rng.integers(4, 20)),
                                   n_not=int(rng.integers(1, 8)),
                                   n_ff=int(rng.integers(0, 4)),
                                   seed=int(rng.integers(2 ** 62)),
                                   feedback_prob=0.5))
        for a, b, v, label in sq.reconvergence_pairs(g):
            assert label == int(bool(_ancestors(g, a) & _ancestors(g, b)))

    # truth-table distances vs explicit enumeration for every sampled pair
    for k in range(12):
        g = sq.generate(sq.GenSpec(n_pi=4, n_and=12, n_not=5, n_ff=2,
                                   seed=k, feedback_prob=0.4))
        sup = support_masks(g)
        pairs = sq.sample_f_pairs(g, 12, seed=k)
        assert pairs
        for i, j, dist in pairs:
            sources = [v for v in range(g.n) if (sup[i] | sup[j]) >> v & 1]
            diff = 0
            for bits in itertools.product([False, True], repeat=len(sources)):
                ev = eval_graph(g, dict(zip(sources, bits)),
                                dict(zip(sources, bits)))
                diff += ev(i) != ev(j)
            assert dist == diff / (2 ** len(sources))

    # FF similarity matches the indicator-ratio definition exactly
    for k in range(6):
        g = sq.generate(sq.GenSpec(n_pi=3, n_and=10, n_not=4, n_ff=4,
                                   seed=100 + k, feedback_prob=0.7))
        w = sq.Workload.random(g, k)
        stats = sq.simulate(g, w, sq.SimConfig(50, 30, k))
        ffs = g.ffs
        for i, j in itertools.combinations(ffs, 2):
            ti, tj = stats.traces[i], stats.traces[j]
            num = den = 0
            for p in range(ti.shape[0]):
                for t in range(1, ti.shape[1]):
                    state = int(ti[p, t - 1] == tj[p, t - 1])
                    den += state
                    num += state and int(ti[p, t] == tj[p, t])
            expect = (num / den) if den else None
            assert sq.ff_similarity(stats.traces.states(i),
                                    stats.traces.states(j), 50) == expect
    report(2, "label oracles")


# --- 3. gradient correctness ---------------------------------------------------

def _ten_node_cyclic_circuit():
    b = sq.CircuitBuilder()
    p0 = b.add_pi()
    p1 = b.add_pi()
    f0 = b.add_ff()
    f1 = b.add_ff()
    a0 = b.add_and(p0, f0)
    n0 = b.add_not(a0)
    b.set_ff_input(f0, n0)
    a1 = b.add_and(p0, f1)
    n1 = b.add_not(a1)
    b.set_ff_input(f1, n1)
    a2 = b.add_and(n0, p1)
    n2 = b.add_not(a2)
    b.set_outputs([n2, f0, f1])
    return b.build()


@pytest.mark.slow
def test_criterion_3_gradient_correctness():
    t0 = time.time()
    g = _ten_node_cyclic_circuit()
    assert g.n == 10
    w = sq.Workload.random(g, 2)
    labels = sq.build_labelset(g, w, sq.SimConfig(50, 20, 1), seed=3)
    assert labels.ffsim_pairs and labels.f_pairs and labels.rc_pairs
    weights = {"recon": 1.0, "logic": 1.0, "trans": 1.0, "func": 1.0,
               "ff_sim": 1.0}
    DIM = 3

    def build_ctx():
        cfg = mdl.ModelConfig(dim=DIM, reverse_layer=True, cycle_max_iters=2)
        params = mdl.init_params(DIM, seed=1, reverse_layer=True)
        rec = mdl.CircuitRecord(graph=g, workload=w,
                                labels=labels).prepare(cfg, 0, 0)
        return cfg, params, rec

    with tz.precision("float64"):
        cfg, params64, rec = build_ctx()
        assert rec.schedule["regions"]  # the pass exercises a cyclic region

        def loss64():
            _, losses, _ = mdl.run_record(rec, params64, cfg)
            return mdl.weighted_loss(losses, weights)

        h = 1e-5
        fd = {}
        for name in params64.names():
            p = params64[name]
            out = np.zeros_like(p.data)
            for ix in np.ndindex(p.data.shape):
                orig = p.data[ix]
                with tz.no_grad():
                    p.data[ix] = orig + h
                    lp = loss64().item()
                    p.data[ix] = orig - h
                    lm = loss64().item()
                p.data[ix] = orig
                out[ix] = (lp - lm) / (2 * h)
            fd[name] = out
        loss64().backward()
        n_params = sum(p.data.size for p in params64.params.values())
        worst64 = 0.0
        for name in params64.names():
            ad = params64[name].grad
            ad = ad if ad is not None else np.zeros_like(fd[name])
            rel = np.abs(ad - fd[name]) / np.maximum.reduce(
                [np.abs(ad), np.abs(fd[name]), np.ones_like(ad)])
            worst64 = max(worst64, float(rel.max()))
        assert worst64 < 1e-6, f"float64 worst relative error {worst64:.3e}"

    with tz.precision("float32"):
        cfg, params32, rec = build_ctx()

        def loss32():
            _, losses, _ = mdl.run_record(rec, params32, cfg)
            return mdl.weighted_loss(losses, weights)

        loss32().backward()
        worst32 = 0.0
        for name in params32.names():
            ad = params32[name].grad
            ad = (ad if ad is not None
                  else np.zeros_like(fd[name])).astype(np.float64)
            rel = np.abs(ad - fd[name]) / np.maximum.reduce(
                [np.abs(ad), np.abs(fd[name]), np.ones_like(fd[name])])
            worst32 = max(worst32, float(rel.max()))
        assert worst32 < 1e-3, f"float32 worst relative error {worst32:.3e}"

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    print(f"\n  gradients: {n_params} scalars, float64 worst {worst64:.2e}, "
          f"float32 worst {worst32:.2e}, {elapsed:.1f}s")
    report(3, "gradient correctness")


# --- 4. disentanglement invariants ---------------------------------------------

def test_criterion_4_disentanglement():
    # orthonormal init at the default dimension
    g = sq.generate(sq.GenSpec(n_pi=6, n_and=30, n_not=10, n_ff=6, seed=3,
                               feedback_prob=0.5))
    w = sq.Workload.random(g, 1)
    emb = mdl.init_embeddings(g, w, 128, seed=4)
    sources = sorted(g.pis + g.ffs)
    assert len(sources) <= 128
    rows = emb[sources, :128].astype(np.float64)
    gram = rows @ rows.T
    assert np.abs(gram - np.eye(len(sources))).max() < 1e-6

    # 50 optimizer steps leave pinned rows bitwise unchanged
    records = []
    for s in range(4):
        gg = sq.generate(sq.GenSpec(n_pi=3, n_and=10, n_not=4, n_ff=3,
                                    seed=40 + s, feedback_prob=0.5))
        ww = sq.Workload.random(gg, s)
        ls = sq.build_labelset(gg, ww, sq.SimConfig(80, 20, s), seed=s)
        records.append(mdl.CircuitRecord(graph=gg, workload=ww, labels=ls))
    cfg = mdl.TrainConfig(dim=16, epochs_phase1=13, epochs_phase2=12,
                          lr=2e-3, seed=7, batch_size=2)
    mcfg = cfg.model_config()
    for i, rec in enumerate(records):
        rec.prepare(mcfg, cfg.seed, i)
    frozen_before = []
    for rec in records:
        gg = rec.graph
        src = sorted(gg.pis + gg.ffs)
        frozen_before.append((rec.emb0[src, :16].copy(),
                              rec.emb0[gg.pis, 16:].copy()))
    params, history = mdl.train(records, cfg)
    steps = len(history) * 2  # 4 records / batch 2 = 2 steps per epoch
    assert steps >= 50
    for rec, (hs0, hfq0) in zip(records, frozen_before):
        gg = rec.graph
        src = sorted(gg.pis + gg.ffs)
        emb_after, _ = forward_arrays(gg, params, rec.emb0, mcfg)
        assert np.array_equal(rec.emb0[src, :16], hs0)
        assert np.array_equal(emb_after[src, :16], hs0)
        assert np.array_equal(emb_after[gg.pis, 16:], hfq0)
    report(4, "disentanglement invariants")


# --- 5. single-pass architecture ------------------------------------------------

def test_criterion_5_single_pass():
    for seed in range(6):
        g = sq.generate(sq.GenSpec(n_pi=4, n_and=15, n_not=6, n_ff=3,
                                   seed=seed, feedback_prob=0.0))
        w = sq.Workload.random(g, seed)
        assert (node_plan(g)["region"] == -1).all()
        for reverse in (False, True):
            cfg = mdl.ModelConfig(dim=8, reverse_layer=reverse)
            emb0 = mdl.init_embeddings(g, w, 8, seed=seed)
            params = mdl.init_params(8, seed=seed, reverse_layer=True)
            emb1, rep1 = forward_arrays(g, params, emb0, cfg)
            for v in range(g.n):
                expect = 0 if g.kinds[v] == NodeKind.PI else 1
                assert rep1.forward_updates[v] == expect
            if not reverse:
                assert rep1.reverse_updates.sum() == 0
            emb2, _ = forward_arrays(g, params, emb0, cfg)
            assert np.array_equal(emb1, emb2)
    report(5, "single-pass architecture")


# --- 6. training smoke -----------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_training_smoke():
    t0 = time.time()
    g = sq.generate(sq.GenSpec(n_pi=5, n_and=25, n_not=12, n_ff=6, seed=0,
                               feedback_prob=0.4))
    assert 40 <= g.n <= 60
    w = sq.Workload.random(g, 0)
    labels = sq.build_labelset(g, w, sq.SimConfig(500, 80, 0), seed=0)
    assert len(labels.ffsim_pairs) >= 2

    cfg = mdl.TrainConfig(dim=32, epochs_phase1=150, epochs_phase2=150,
                          lr=2e-3, seed=1, batch_size=4)
    assert cfg.epochs_phase1 + cfg.epochs_phase2 <= 500

    def run():
        rec = mdl.CircuitRecord(graph=g, workload=w, labels=labels)
        return mdl.train([rec], cfg)

    params1, hist1 = run()
    last = hist1[-1]
    assert last["pe_logic"] < 0.02, last
    assert last["pe_trans"] < 0.02, last
    assert last["loss_ff_sim"] < 0.05, last

    # curriculum: the FF-similarity term activates exactly after phase 1
    for row in hist1:
        if row["epoch"] <= cfg.epochs_phase1:
            assert "loss_ff_sim" not in row
        else:
            assert "loss_ff_sim" in row

    params2, hist2 = run()
    assert hist1 == hist2
    for name in params1.names():
        assert np.array_equal(params1[name].data, params2[name].data)

    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"
    print(f"\n  smoke: pe_logic {last['pe_logic']:.4f}, "
          f"pe_trans {last['pe_trans']:.4f}, "
          f"ff_sim {last['loss_ff_sim']:.4f}, {elapsed:.0f}s for two runs")
    report(6, "training smoke")


# --- 7. downstream power ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_downstream_power():
    # closed form to 1e-9
    tr = np.array([0.25, 0.5, 0.75])
    mask = np.ones(3, dtype=bool)
    assert abs(pw.power_estimate(tr, pw.PowerConfig(), mask) - 0.25) < 1e-9
    pc = pw.PowerConfig(capacitance=3.0, vdd=2.0, freq_scale=0.25)
    assert abs(pw.power_estimate(tr, pc, mask) - 0.5 * 3 * 4 * 0.5 * 0.25) < 1e-9

    # SAIF round trip within 1/duration on every field
    b = sq.CircuitBuilder()
    for k in range(6):
        b.add_pi(f"net{k}")
    gs = b.build(check=False)
    rng = np.random.default_rng(5)
    p1 = rng.random(6)
    trs = np.array([rng.uniform(0, 2 * min(p, 1 - p)) for p in p1])
    duration = 12345
    _, nets = pw.read_saif(pw.export_saif(gs, p1, trs, duration))
    for k in range(6):
        assert abs(nets[f"net{k}"][0] - p1[k]) <= 1.0 / duration
        assert abs(nets[f"net{k}"][1] - trs[k]) <= 1.0 / duration

    # workload fine-tuning on a ~2k-node circuit
    g = sq.generate(sq.GenSpec(n_pi=40, n_and=1400, n_not=420, n_ff=150,
                               seed=77, feedback_prob=0.3))
    assert 1800 <= g.n <= 2200
    sim_cfg = sq.SimConfig(n_patterns=400, n_cycles=60, seed=5)
    train_wl = [sq.Workload.random(g, 1000 + i) for i in range(20)]
    held_wl = [sq.Workload.random(g, 9000 + i) for i in range(5)]

    pre_records = []
    for i in range(4):
        sg = sq.generate(sq.GenSpec(n_pi=5, n_and=25, n_not=10, n_ff=5,
                                    seed=200 + i, feedback_prob=0.3))
        swl = sq.Workload.random(sg, 300 + i)
        pre_records.append(mdl.CircuitRecord(
            graph=sg, workload=swl,
            labels=sq.build_labelset(sg, swl, sq.SimConfig(300, 50, i),
                                     seed=i)))
    pre, _ = mdl.train(pre_records,
                       mdl.TrainConfig(dim=16, epochs_phase1=10,
                                       epochs_phase2=10, lr=2e-3, seed=3,
                                       batch_size=4))

    tcfg = mdl.TrainConfig(dim=16, epochs_phase1=5, epochs_phase2=0, lr=3e-3,
                           seed=4, batch_size=5)
    tuned, hist = pw.finetune_workloads(pre, g, train_wl, tcfg, sim_cfg)
    assert hist[-1]["pe_trans"] < hist[0]["pe_trans"]

    pc = pw.PowerConfig()
    mcfg = tcfg.model_config()
    rep_in = pw.power_error_report(tuned, g, train_wl[:10], mcfg, pc,
                                   sim_cfg, seed=4)
    rep_out = pw.power_error_report(tuned, g, held_wl, mcfg, pc, sim_cfg,
                                    seed=5)
    in_err = float(np.mean([r["rel_error"] for r in rep_in]))
    out_err = float(np.mean([r["rel_error"] for r in rep_out]))
    assert out_err <= 2.0 * in_err, (in_err, out_err)
    print(f"\n  power: in-sample {in_err:.3f}, held-out {out_err:.3f}, "
          f"ratio {out_err / in_err:.2f}")
    report(7, "downstream power")


# --- 8. downstream reliability ------------------------------------------------------

def test_criterion_8_downstream_reliability():
    # flip probability 0 reproduces fault-free traces bitwise
    g = sq.generate(sq.GenSpec(n_pi=4, n_and=12, n_not=6, n_ff=3, seed=5,
                               feedback_prob=0.5))
    w = sq.Workload.random(g, 3)
    fc0 = rel.FaultConfig(flip_prob=0.0, n_patterns=200, n_cycles=50, seed=9)
    labels0, traces, ftraces = rel.reliability_labels(g, w, fc0,
                                                      return_traces=True)
    sim = sq.simulate(g, w, sq.SimConfig(200, 50, 9))
    for ff in g.ffs:
        assert np.array_equal(traces[ff], sim.traces[ff])
        assert np.array_equal(ftraces[ff], sim.traces[ff])
    assert labels0.p01.max() == 0.0 and labels0.p10.max() == 0.0

    # single-net injection matches a Bernoulli analysis within 3 sigma
    b = sq.CircuitBuilder()
    pi = b.add_pi()
    b.set_outputs([pi])
    giso = b.build()
    eps = 0.01
    fc = rel.FaultConfig(flip_prob=eps, n_patterns=1000, n_cycles=100, seed=4)
    li = rel.reliability_labels(giso, sq.Workload({pi: (0.4, 0.3)}), fc)
    assert abs(li.p01[pi] - eps) < 3 * np.sqrt(eps * (1 - eps) / li.n0[pi])
    assert abs(li.p10[pi] - eps) < 3 * np.sqrt(eps * (1 - eps) / li.n1[pi])

    # 50-epoch fine-tune overfits a tiny circuit below 0.02 average error
    gt = sq.generate(sq.GenSpec(n_pi=3, n_and=6, n_not=3, n_ff=2, seed=11,
                                feedback_prob=0.5))
    wt = sq.Workload.random(gt, 7)
    flip = rel.reliability_labels(
        gt, wt, rel.FaultConfig(flip_prob=0.0005, n_patterns=500,
                                n_cycles=60, seed=2))
    base_labels = sq.build_labelset(gt, wt, sq.SimConfig(200, 40, 3), seed=1)
    rec = mdl.CircuitRecord(graph=gt, workload=wt, labels=base_labels)
    pre, _ = mdl.train([rec], mdl.TrainConfig(dim=16, epochs_phase1=10,
                                              epochs_phase2=0, lr=2e-3,
                                              seed=0, batch_size=1))
    tuned, hist = rel.finetune_reliability(
        pre, gt, wt, flip, mdl.TrainConfig(dim=16, lr=5e-2, seed=0),
        epochs=50)
    assert hist[-1]["pe_flip"] < 0.02, hist[-1]
    print(f"\n  reliability: final avg PE {hist[-1]['pe_flip']:.4f}")
    report(8, "downstream reliability")


# --- 9. format fidelity ---------------------------------------------------------------

def test_criterion_9_format_fidelity(tmp_path):
    # AIGER round trips are lossless (structure-preserving bijection)
    for seed in range(30):
        g = sq.generate(sq.GenSpec(n_pi=3, n_and=14, n_not=6, n_ff=3,
                                   seed=seed, feedback_prob=0.5))
        assert sq.isomorphic(g, sq.parse_aiger(sq.emit_aiger(g)))

    # dataset records survive a writer/reader cycle unchanged
    g = sq.generate(sq.GenSpec(n_pi=4, n_and=16, n_not=6, n_ff=4, seed=7,
                               feedback_prob=0.6))
    w = sq.Workload.random(g, 3)
    cfg = sq.SimConfig(100, 25, 5)
    ls = sq.build_labelset(g, w, cfg, f_target=15, ffsim_target=6, seed=2)
    line = ls.to_json_record("c.aag", w, cfg)
    _, w2, cfg2, ls2 = LabelSet.from_json_record(line)
    assert w2 == w and cfg2 == cfg
    assert np.array_equal(ls.p1, ls2.p1)
    assert np.array_equal(ls.ptr, ls2.ptr)
    assert [tuple(r) for r in ls2.rc_pairs] == ls.rc_pairs
    assert ls2.f_pairs == ls.f_pairs
    assert ls2.ffsim_pairs == ls.ffsim_pairs

    # gate lowering is truth-table exact for every supported gate
    truth = {
        "AND": lambda bits: all(bits),
        "NAND": lambda bits: not all(bits),
        "OR": lambda bits: any(bits),
        "NOR": lambda bits: not any(bits),
        "NOT": lambda bits: not bits[0],
    }
    for gate, fn in truth.items():
        arities = (1,) if gate == "NOT" else (2, 3)
        for arity in arities:
            names = [f"I{k}" for k in range(arity)]
            src = "".join(f"INPUT({n})\n" for n in names)
            src += f"OUTPUT(Y)\nY = {gate}({', '.join(names)})\n"
            gb = sq.parse_bench(src)
            out = gb.name_map["Y"]
            for bits in itertools.product([False, True], repeat=arity):
                env = {gb.name_map[n]: v for n, v in zip(names, bits)}
                assert eval_graph(gb, env)(out) == fn(list(bits))
    report(9, "format fidelity")
