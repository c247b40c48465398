import gc
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from seqcircuit import (CircuitBuilder, GenSpec, SimConfig, Workload,
                        build_labelset, generate)
from seqcircuit import model as mdl
from seqcircuit import tensor as tz
from seqcircuit.bench import parse_bench
from seqcircuit.labels import LabelSet
from seqcircuit.schedule import node_plan, plan_document
from tests.conftest import (accumulator_bench, forward_arrays, forward_reference,
                            numeric_gradients, relative_errors, tensor_sum,
                            toggle_ff)


def small_record(seed=0, feedback=0.5, **gen):
    gen = {"n_pi": 3, "n_and": 10, "n_not": 5, "n_ff": 3, **gen}
    g = generate(GenSpec(seed=seed, feedback_prob=feedback, **gen))
    w = Workload.random(g, seed + 1)
    labels = build_labelset(g, w, SimConfig(150, 25, seed), seed=seed)
    return mdl.CircuitRecord(graph=g, workload=w, labels=labels)


class TestInitEmbeddings:
    def test_source_rows_orthonormal(self):
        g = generate(GenSpec(n_pi=2, n_and=5, n_not=2, n_ff=1, seed=1))
        w = Workload.random(g, 2)
        emb = mdl.init_embeddings(g, w, 128, seed=3)
        sources = sorted(g.pis + g.ffs)
        rows = emb[sources, :128].astype(np.float64)
        gram = rows @ rows.T
        assert np.allclose(gram, np.eye(len(sources)), atol=1e-6)

    def test_pi_probability_components(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        b.add_not(pi)
        g = b.build(check=False)
        emb = mdl.init_embeddings(g, Workload({pi: (0.3, 0.2)}), 16, seed=0)
        _, hf, hq = np.split(emb, 3, axis=1)
        assert hf[pi, 0] == pytest.approx(0.3)
        assert np.all(hf[pi, 1:] == 0)
        assert hq[pi, 0] == pytest.approx(0.2)
        assert np.all(hq[pi, 1:] == 0)

    def test_more_sources_than_dims(self):
        b = CircuitBuilder()
        pis = [b.add_pi() for _ in range(200)]
        g = b.build(check=False)
        w = Workload({pi: (0.5, 0.5) for pi in pis})
        emb = mdl.init_embeddings(g, w, 128, seed=5)
        rows = emb[:200, :128].astype(np.float64)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6)
        gram = np.abs(rows @ rows.T)
        off = gram[~np.eye(200, dtype=bool)]
        assert off.mean() < 0.15

    def test_deterministic(self):
        g = generate(GenSpec(n_pi=3, n_and=8, n_not=3, n_ff=2, seed=2))
        w = Workload.random(g, 3)
        for precision in ("float32", "float64"):
            with tz.precision(precision):
                e1 = mdl.init_embeddings(g, w, 32, seed=7)
                e2 = mdl.init_embeddings(g, w, 32, seed=7)
            assert e1.shape == (g.n, 96) and e1.dtype == precision
            assert np.array_equal(e1, e2)


class TestForward:
    def test_acyclic_single_update_and_idempotence(self):
        rec = small_record(seed=4, feedback=0.0)
        cfg = mdl.ModelConfig(dim=8)
        rec.prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=1)
        emb1, rep1 = forward_arrays(rec.graph, params, rec.emb0, cfg)
        g = rec.graph
        for v in range(g.n):
            expect = 0 if v in g.pis else 1
            assert rep1.forward_updates[v] == expect
        assert rep1.region_iters == []
        emb2, rep2 = forward_arrays(rec.graph, params, rec.emb0, cfg)
        assert np.array_equal(emb1, emb2)

    def test_region_updates_bounded(self):
        # A region runs exactly cycle_max_iters passes, also when that is 0.
        g, ids = toggle_ff()
        w = Workload({ids["pi"]: (0.5, 0.5)})
        emb0 = mdl.init_embeddings(g, w, 8, seed=2)
        params = mdl.init_params(8, seed=3)
        for passes in (0, 1, 3):
            cfg = mdl.ModelConfig(dim=8, cycle_max_iters=passes)
            _, rep = forward_arrays(g, params, emb0, cfg)
            assert rep.forward_updates[ids["ff"]] == 1 + passes
            assert rep.region_iters == [passes]
            assert len(rep.region_residuals[0]) == passes

    def test_frozen_rows_after_forward(self):
        rec = small_record(seed=5)
        cfg = mdl.ModelConfig(dim=8)
        rec.prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=2)
        emb, _ = forward_arrays(rec.graph, params, rec.emb0, cfg)
        g = rec.graph
        sources = sorted(g.pis + g.ffs)
        assert np.array_equal(emb[sources, :8], rec.emb0[sources, :8])
        assert np.array_equal(emb[g.pis], rec.emb0[g.pis])
        gates = [v for v in range(g.n) if v not in g.pis and v not in g.ffs]
        assert not np.array_equal(emb[gates, :8], rec.emb0[gates, :8])

    def test_reverse_layer_updates_once(self):
        rec = small_record(seed=6, feedback=0.0)
        cfg = mdl.ModelConfig(dim=8, reverse_layer=True)
        rec.prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=2)
        _, rep = forward_arrays(rec.graph, params, rec.emb0, cfg)
        g = rec.graph
        for v in range(g.n):
            if v in g.pis:
                assert rep.reverse_updates[v] == 0
            else:
                assert rep.reverse_updates[v] == (1 if g.fanouts[v] else 0)


    def test_matches_plain_group_reference(self):
        # The fused one-table forward against three arrays updated node by
        # node from the attention and GRU formulas, over the forward sweep,
        # the region passes and the reverse sweep.
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(dim=6, cycle_max_iters=2, reverse_layer=True)
            rec = small_record(seed=3, feedback=0.8).prepare(cfg, 0, 0)
            assert rec.schedule["regions"] and rec.schedule["rev"]
            params = mdl.init_params(6, seed=4)
            emb, rep = forward_arrays(rec.graph, params, rec.emb0, cfg)
            want, residuals = forward_reference(params, rec.emb0, cfg,
                                                rec.schedule)
            for a, b, a0 in zip(np.split(emb, 3, axis=1), want,
                                np.split(rec.emb0, 3, axis=1)):
                assert not np.array_equal(a, a0)
                assert np.abs(a - b).max() < 1e-12
            assert np.allclose(rep.region_residuals, residuals, rtol=1e-12, atol=0)


class TestHeadsAndLoss:
    def test_cosine_head_extremes(self):
        rec = small_record(seed=7)
        cfg = mdl.ModelConfig(dim=8)
        rec.prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=1)
        table, _ = mdl.forward_tensors(params, rec.emb0, cfg,
                                       schedule=rec.schedule)
        gates = rec.graph.gates
        i = gates[0]
        labels = LabelSet(p1=rec.labels.p1, ptr=rec.labels.ptr, rc_pairs=[],
                          f_pairs=[(i, i, 0.0)], ffsim_pairs=[])
        preds = mdl.predict_heads(table, params,
                                  mdl.task_table(rec.graph, labels))
        assert preds["func"].data[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_opposite_sequential_vectors_give_zero_similarity(self):
        hq = np.zeros((2, 4), dtype=np.float32)
        hq[0] = [1, 0, 0, 0]
        hq[1] = [-1, 0, 0, 0]
        qi = tz.constant(hq[0:1])
        qj = tz.constant(hq[1:2])
        cos = mdl._cosine_rows(qi, qj)
        sim = 0.5 * (1.0 + cos.data[0, 0])
        assert sim == pytest.approx(0.0, abs=1e-6)

    def test_perfect_predictions_zero_l1(self):
        rec = small_record(seed=8)
        sup = mdl.supervised_nodes(rec.graph)
        preds = {"logic": tz.constant(rec.labels.p1[sup].reshape(-1, 1))}
        losses = mdl.task_losses(preds, mdl.task_table(rec.graph, rec.labels))
        assert losses["logic"].item() == pytest.approx(0.0, abs=1e-7)

    def test_perfect_reconvergence_hits_entropy_floor(self):
        rec = small_record(seed=8)
        rc = np.array([l for _, _, _, l in rec.labels.rc_pairs], dtype=float)
        preds = {"recon": tz.constant(rc.reshape(-1, 1))}
        losses = mdl.task_losses(preds, mdl.task_table(rec.graph, rec.labels))
        # hard labels predicted exactly: cross-entropy collapses to ~0
        assert losses["recon"].item() < 1e-6

    def test_label_range_enforced(self):
        # The record's table is built, and checked, when it is prepared.
        rec = small_record(seed=9)
        sup = mdl.supervised_nodes(rec.graph)
        rec.labels.p1[sup[0]] = 1.5
        with pytest.raises(ValueError):
            mdl.task_table(rec.graph, rec.labels)
        with pytest.raises(ValueError):
            rec.prepare(mdl.ModelConfig(dim=8), 0, 0)

    def test_loss_ignores_ffsim_when_weight_zero(self):
        rec = small_record(seed=10)
        ffs = rec.graph.ffs
        rec.labels.ffsim_pairs = [(ffs[0], ffs[1], 0.5)]  # none are drawn here
        cfg = mdl.TrainConfig(dim=8, seed=0)
        mcfg = cfg.model_config()
        rec.prepare(mcfg, 0, 0)
        params = mdl.init_params(8, seed=4)
        _, losses1, _ = mdl.run_record(rec, params, mcfg)
        v1 = mdl.weighted_loss(losses1, cfg.weights(phase=1)).item()
        rec.labels.ffsim_pairs = [(f, f2, 0.123) for f, f2, _ in
                                  rec.labels.ffsim_pairs]
        rec.prepare(mcfg, 0, 0)  # the table follows the new labels
        _, losses2, _ = mdl.run_record(rec, params, mcfg)
        v2 = mdl.weighted_loss(losses2, cfg.weights(phase=1)).item()
        assert losses1["ff_sim"].item() != losses2["ff_sim"].item()
        assert v1 == v2

    @pytest.mark.parametrize("task, what", [
        ("recon", "reconvergence"), ("logic", "logic"), ("trans", "transition"),
        ("func", "distance"), ("ff_sim", "similarity"), ("flip", "flip-rate")])
    def test_out_of_range_target_names_its_task(self, task, what):
        # The table builder raises, so a record with such a target fails
        # when it is prepared, before any step.
        rec = small_record(seed=9)
        g, labels = rec.graph, rec.labels
        labels.flip = np.full((g.n, 2), 0.25)
        a, b = g.ffs[:2]
        if task == "recon":
            labels.rc_pairs = [(a, b, g.gates[0], 2)]
        elif task == "logic":
            labels.p1[mdl.supervised_nodes(g)[0]] = 1.5
        elif task == "trans":
            labels.ptr[mdl.supervised_nodes(g)[-1]] = -0.5
        elif task == "func":
            labels.f_pairs = [(a, b, 0.5), (a, b, 1.25)]
        elif task == "ff_sim":
            labels.ffsim_pairs = [(a, b, -0.1)]
        else:
            labels.flip[g.n - 1, 1] = 1.01
        with pytest.raises(ValueError, match=f"^{what} labels outside"):
            mdl.task_table(g, labels)
        with pytest.raises(ValueError, match=f"^{what} labels outside"):
            mdl.train([rec], mdl.TrainConfig(dim=4, epochs_phase1=1,
                                             epochs_phase2=0))

    @pytest.mark.parametrize("task, what", [
        ("recon", "reconvergence"), ("logic", "logic"), ("trans", "transition"),
        ("func", "distance"), ("ff_sim", "similarity"), ("flip", "flip-rate")])
    def test_labels_off_the_circuit_name_their_task(self, task, what):
        # A pair id outside the circuit (a negative one would wrap) or a
        # per-node array of another length raises ValueError, not
        # IndexError, and no label is read from a wrong row.
        rec = small_record(seed=9)
        g, labels = rec.graph, rec.labels
        labels.flip = np.full((g.n, 2), 0.25)
        a = g.ffs[0]
        if task == "recon":
            labels.rc_pairs = [(a, g.n, g.gates[0], 1)]
        elif task == "logic":
            labels.p1 = labels.p1[:-1]
        elif task == "trans":
            labels.ptr = np.append(labels.ptr, 0.5)
        elif task == "func":
            labels.f_pairs = [(a, 1_000_000, 0.5)]
        elif task == "ff_sim":
            labels.ffsim_pairs = [(-1, a, 0.5)]
        else:
            labels.flip = labels.flip[:-1]
        with pytest.raises(ValueError, match=f"^{what} labels (name|cover)"):
            mdl.task_table(g, labels)

    def test_zero_init_heads_output_half(self):
        rec = small_record(seed=11)
        cfg = mdl.ModelConfig(dim=8)
        rec.prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=5)
        for name in params.names():
            if name.startswith("head."):
                params[name].data = np.zeros_like(params[name].data)
        table, _ = mdl.forward_tensors(params, rec.emb0, cfg,
                                       schedule=rec.schedule)
        preds = mdl.predict_heads(table, params, rec.tasks)
        assert np.allclose(preds["logic"].data, 0.5)
        assert np.allclose(preds["recon"].data, 0.5)


class TestTraining:
    def test_deterministic_checkpoints(self):
        recs = [small_record(seed=s) for s in (20, 21)]
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=2, epochs_phase2=2,
                              lr=1e-3, seed=13, batch_size=2)
        p1, h1 = mdl.train([r for r in recs], cfg)
        recs2 = [small_record(seed=s) for s in (20, 21)]
        p2, h2 = mdl.train([r for r in recs2], cfg)
        for name in p1.names():
            assert np.array_equal(p1[name].data, p2[name].data)
        assert h1 == h2

    def test_curriculum_phase_boundary(self):
        rec = small_record(seed=22)
        if not rec.labels.ffsim_pairs:
            rec.labels.ffsim_pairs = [(rec.graph.ffs[0], rec.graph.ffs[1], 0.5)]
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=3, epochs_phase2=2,
                              lr=1e-3, seed=1, batch_size=1)
        _, history = mdl.train([rec], cfg)
        for row in history:
            if row["epoch"] <= 3:
                assert row["phase"] == 1 and "loss_ff_sim" not in row
            else:
                assert row["phase"] == 2 and "loss_ff_sim" in row

    def test_frozen_rows_bitwise_after_training(self):
        rec = small_record(seed=23)
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=3, epochs_phase2=2,
                              lr=2e-3, seed=2, batch_size=1)
        params, _ = mdl.train([rec], cfg)
        g = rec.graph
        emb, _ = forward_arrays(g, params, rec.emb0, cfg.model_config())
        sources = sorted(g.pis + g.ffs)
        assert np.array_equal(emb[sources, :8], rec.emb0[sources, :8])
        assert np.array_equal(emb[g.pis], rec.emb0[g.pis])

    def test_disentanglement_gradient_flow(self):
        # With the pair tasks disabled, probability losses still reach the
        # structure aggregators (function embeddings consume structure rows),
        # yet source structure rows stay untouched.
        rec = small_record(seed=24)
        cfg = mdl.TrainConfig(dim=8, seed=3, w_recon=0.0, w_func=0.0)
        mcfg = cfg.model_config()
        rec.prepare(mcfg, 0, 0)
        params = mdl.init_params(8, seed=6)
        _, losses, _ = mdl.run_record(rec, params, mcfg)
        total = mdl.weighted_loss(losses, cfg.weights(phase=1))
        total.backward()
        struct_grads = [params[n].grad for n in params.names()
                        if ".struct." in n and params[n].grad is not None]
        assert any(np.abs(g).max() > 0 for g in struct_grads)
        emb, _ = forward_arrays(rec.graph, params, rec.emb0, mcfg)
        sources = sorted(rec.graph.pis + rec.graph.ffs)
        assert np.array_equal(emb[sources, :8], rec.emb0[sources, :8])

    def test_task_table_built_once_per_run(self, monkeypatch):
        # Each record's table is built when train prepares it, not on
        # every step: 2 records, 4 epochs of 2 steps each.
        built = []
        build = mdl.task_table
        monkeypatch.setattr(mdl, "task_table",
                            lambda g, labels: built.append(g) or build(g, labels))
        recs = [small_record(seed=s) for s in (20, 21)]
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=2, epochs_phase2=2,
                              lr=1e-3, seed=13, batch_size=1)
        mdl.train(recs, cfg)
        assert [id(g) for g in built] == [id(r.graph) for r in recs]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            mdl.train([], mdl.TrainConfig())

    def test_evaluate_perfect_and_constant(self):
        rec = small_record(seed=25)
        sup = mdl.supervised_nodes(rec.graph)
        preds = {"logic": tz.constant(rec.labels.p1[sup].reshape(-1, 1)),
                 "trans": tz.constant(np.full((len(sup), 1), 0.5))}
        pes = mdl.prediction_errors(preds, mdl.task_table(rec.graph, rec.labels))
        assert pes["logic"] == pytest.approx(0.0, abs=1e-7)
        expect = np.abs(rec.labels.ptr[sup] - 0.5).mean()
        assert pes["trans"] == pytest.approx(expect, abs=1e-7)


class TestEndToEndGradients:
    def test_small_pipeline_float64(self):
        rec = small_record(seed=26, n_and=4, n_not=2, n_ff=2, feedback=1.0)
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(dim=3, cycle_max_iters=2)
            rec.prepare(cfg, 0, 0)
            params = mdl.init_params(3, seed=7)
            weights = {"recon": 1.0, "logic": 1.0, "trans": 1.0, "func": 1.0,
                       "ff_sim": 1.0}

            def build():
                _, losses, _ = mdl.run_record(rec, params, cfg)
                return mdl.weighted_loss(losses, weights)
            build().backward()
            # Spot-check a spread of parameter groups; the acceptance suite
            # sweeps every scalar.
            names = params.names()[::4]
            fd = numeric_gradients(build, params, h=1e-5, names=names)
            for name in names:
                ad = params[name].grad
                ad = ad if ad is not None else np.zeros_like(fd[name])
                assert relative_errors(ad, fd[name]).max() < 1e-7, name


def feedback_records(cfg):
    """Three records with feedback regions of different sizes and one
    without feedback, prepared under ``cfg``."""
    recs = [small_record(seed=s, feedback=0.8) for s in (3, 4, 5)]
    recs.append(small_record(seed=6, feedback=0.0))
    return [r.prepare(cfg, 0, i) for i, r in enumerate(recs)]


class TestBatchedSweep:
    CFG = dict(dim=6, cycle_max_iters=5)

    def test_merged_forward_matches_per_record(self):
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(**self.CFG)
            recs = feedback_records(cfg)
            params = mdl.init_params(6, seed=1)
            table, offsets, rep = mdl.forward_records(recs, params, cfg)
            merged_iters = list(rep.region_iters)
            for rec, off in zip(recs, offsets):
                one, one_rep = mdl.forward_tensors(params, rec.emb0, cfg,
                                                   schedule=rec.schedule)
                rows = slice(off, off + rec.graph.n)
                assert np.abs(one.data - table.data[rows]).max() < 1e-12
                k = len(one_rep.region_iters)
                assert merged_iters[:k] == one_rep.region_iters
                merged_iters = merged_iters[k:]
            assert merged_iters == []
            assert rep.region_iters == [cfg.cycle_max_iters] * len(rep.region_iters)
            assert len(rep.region_iters) >= 2

    def test_merged_schedule_has_fewer_groups(self):
        cfg = mdl.ModelConfig(**self.CFG)
        recs = feedback_records(cfg)
        merged = mdl.merge_schedules([r.schedule for r in recs])
        count = lambda levels: sum(len(groups) for groups in levels)
        assert count(merged["fwd"]) < sum(count(r.schedule["fwd"]) for r in recs)
        assert count(merged["rev"]) < sum(count(r.schedule["rev"]) for r in recs)
        assert len(merged["regions"]) == sum(len(r.schedule["regions"]) for r in recs)
        assert merged["n"] == sum(r.graph.n for r in recs)

    def test_forward_merges_no_levels(self, monkeypatch):
        # Waves are merged when the schedule is built, not on every pass.
        cfg = mdl.ModelConfig(**self.CFG)
        recs = feedback_records(cfg)
        schedule = mdl.merge_schedules([r.schedule for r in recs])
        assert any(len(ids) > 1 for ids, _ in schedule["waves"])

        def no_merge(*args):
            raise AssertionError("levels grouped inside the forward pass")
        monkeypatch.setattr(mdl, "_groups", no_merge)
        emb = np.concatenate([r.emb0 for r in recs])
        _, rep = mdl.forward_tensors(mdl.init_params(6, seed=1), emb, cfg,
                                     schedule=schedule)
        assert rep.region_iters == [cfg.cycle_max_iters] * len(schedule["regions"])

    def test_dropped_forward_frees_tables_without_gc(self):
        # No reference cycle holds a forward's table: with the cyclic
        # collector off, dropping the result frees its (n, 3d) buffer and
        # its gradient buffer.
        cfg = mdl.ModelConfig(**self.CFG)
        recs = feedback_records(cfg)
        params = mdl.init_params(6, seed=1)
        gc.collect()
        gc.disable()
        try:
            table, _, _ = mdl.forward_records(recs, params, cfg)
            rows = np.arange(table.data.shape[0])
            hf = tz.take_rows(table.current, rows, slice(6, 12))
            loss = tz.add(tensor_sum(tz.mul(hf, hf)), tensor_sum(
                tz.take_rows(table.current, rows, slice(12, 18))))
            loss.backward()
            refs = [weakref.ref(table.data), weakref.ref(table._grad.buf)]
            del table, hf, loss
            assert [r() for r in refs] == [None] * 2
        finally:
            gc.enable()

    def test_batch_gradient_is_sum_of_record_gradients(self):
        weights = {t: 1.0 for t in mdl.TASKS}
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(**self.CFG)
            recs = feedback_records(cfg)
            params = mdl.init_params(6, seed=2)
            results, _ = mdl.run_batch(recs, params, cfg)
            total = tz.add(tz.add(mdl.weighted_loss(results[0][1], weights),
                                  mdl.weighted_loss(results[1][1], weights)),
                           tz.add(mdl.weighted_loss(results[2][1], weights),
                                  mdl.weighted_loss(results[3][1], weights)))
            total.backward()
            batched = {n: params[n].grad for n in params.names()}
            params.zero_grads()
            for rec in recs:
                _, losses, _ = mdl.run_record(rec, params, cfg)
                mdl.weighted_loss(losses, weights).backward()
            for name in params.names():
                a, b = batched[name], params[name].grad
                if b is None:
                    assert a is None or not a.any(), name
                    continue
                scale = max(np.abs(b).max(), 1e-3)
                assert np.abs(a - b).max() / scale < 1e-10, name

    def test_train_leaves_emb0_unchanged(self):
        recs = [small_record(seed=s) for s in (30, 31, 32)]
        # Three records in batches of two make a batch of two and one of one.
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=1, epochs_phase2=1,
                              lr=1e-3, seed=4, batch_size=2)
        mcfg = cfg.model_config()
        for i, rec in enumerate(recs):
            rec.prepare(mcfg, cfg.seed, i)
        before = [rec.emb0.copy() for rec in recs]
        mdl.train(recs, cfg)
        for rec, emb in zip(recs, before):
            assert np.array_equal(rec.emb0, emb)

    def test_evaluate_same_in_any_union_size(self, monkeypatch):
        recs = [small_record(seed=s) for s in (33, 34, 35)]
        cfg = mdl.ModelConfig(dim=8)
        params = mdl.init_params(8, seed=5)
        with tz.precision("float64"):
            together = mdl.evaluate(params, recs, cfg)
            monkeypatch.setattr(mdl, "EVAL_UNION_NODES", 1)
            alone = mdl.evaluate(params, recs, cfg)
        for a, b in zip(together["per_circuit"], alone["per_circuit"]):
            for key in b:
                if key != "path":
                    assert a[key] == pytest.approx(b[key], abs=1e-12)

    def test_evaluate_draws_emb0_for_its_own_seed(self):
        # Records that training prepared with seed 1 evaluate under seed 2
        # as fresh records do: emb0 is cached on (dim, seed, index).
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=1, epochs_phase2=0,
                              lr=1e-3, seed=1, batch_size=2)
        trained = [small_record(seed=s) for s in (40, 41)]
        params, _ = mdl.train(trained, cfg)
        fresh = [small_record(seed=s) for s in (40, 41)]
        mcfg = cfg.model_config()
        assert (mdl.evaluate(params, trained, mcfg, seed=2)
                == mdl.evaluate(params, fresh, mcfg, seed=2))
        rec = trained[0].prepare(mcfg, 3, 5)
        want = mdl.init_embeddings(rec.graph, rec.workload, 8, seed=[3, 5])
        assert np.array_equal(rec.emb0, want)

    def test_prepare_keys_schedule_on_reverse_flag(self):
        # A circuit of inputs only has no reverse levels, yet its schedule
        # keeps the flag it was compiled for and is not compiled again.
        b = CircuitBuilder()
        b.set_outputs([b.add_pi()])
        g = b.build()
        rec = mdl.CircuitRecord(graph=g, workload=Workload.random(g, 0),
                                labels=LabelSet.empty())
        cfg = mdl.ModelConfig(dim=4, reverse_layer=True)
        schedule = rec.prepare(cfg, 0, 0).schedule
        assert schedule["reverse"] is True and schedule["rev"] == []
        assert rec.prepare(cfg, 0, 0).schedule is schedule
        off = rec.prepare(replace(cfg, reverse_layer=False), 0, 0).schedule
        assert off["reverse"] is False

    def test_continued_training_with_fixed_weights(self):
        recs = [small_record(seed=s) for s in (36, 37)]
        cfg = mdl.TrainConfig(dim=8, epochs_phase1=1, epochs_phase2=0,
                              lr=1e-3, seed=6, batch_size=2)
        start, _ = mdl.train(recs, cfg)
        kept = {n: start[n].data.copy() for n in start.names()}
        tuned, history = mdl.train(recs, replace(cfg, epochs_phase2=2),
                                   params=start, weights={"logic": 1.0})
        assert len(history) == 3
        assert all(set(row) == {"epoch", "loss_logic", "pe_logic"}
                   for row in history)
        for name in start.names():
            assert np.array_equal(start[name].data, kept[name])
        assert any(not np.array_equal(tuned[n].data, kept[n])
                   for n in tuned.names())


def union_lists(recs):
    """Fanins, fanouts and kinds of the disjoint union of the records' graphs,
    and each level's nodes aligned by level index (level 0 left out)."""
    fanins, fanouts, kinds, levels = [], [], [], []
    off = 0
    for rec in recs:
        g = rec.graph
        fanins += [[u + off for u in g.fanins[v]] for v in range(g.n)]
        fanouts += [[u + off for u in g.fanouts[v]] for v in range(g.n)]
        kinds += list(g.kinds)
        for i, level in enumerate(plan_document(g)["levels"][1:]):
            if i == len(levels):
                levels.append([])
            levels[i] += [v + off for v in level]
        off += g.n
    return fanins, fanouts, kinds, levels


def check_level(groups, nodes, neighbours, kinds):
    """One group per kind, in kind order; each holds the level's nodes of
    its kind that have neighbours, in the order of ``nodes``, each with its
    neighbour list in order."""
    live = [v for v in nodes if neighbours[v]]
    want = [(kind, [v for v in live if kinds[v] == kind])
            for kind in sorted({kinds[v] for v in live})]
    assert [(kind, list(vids)) for kind, vids, _ in groups] == want
    for kind, vids, (nbrs, starts, owner) in groups:
        ends = list(starts[1:]) + [len(nbrs)]
        for v, lo, hi in zip(vids, starts, ends):
            assert list(nbrs[lo:hi]) == neighbours[v]
        assert np.array_equal(owner, tz.segment_owner(starts, len(nbrs)))


class TestSchedule:
    def test_one_group_per_kind_per_level(self):
        cfg = mdl.ModelConfig(dim=4)
        recs = feedback_records(cfg)
        merged = mdl.merge_schedules([r.schedule for r in recs])
        for part, schedule in [([r], r.schedule) for r in recs] + [(recs, merged)]:
            fanins, fanouts, kinds, levels = union_lists(part)
            assert len(schedule["fwd"]) == len(schedule["rev"]) == len(levels)
            for groups, nodes in zip(schedule["fwd"], levels):
                check_level(groups, nodes, fanins, kinds)
            for groups, nodes in zip(schedule["rev"], levels[::-1]):
                check_level(groups, nodes, fanouts, kinds)
            offsets = np.cumsum([0] + [r.graph.n for r in part])
            regions = [[[v + off for v in level]
                        for level in region["internal_levels"]]
                       for rec, off in zip(part, offsets)
                       for region in plan_document(rec.graph)["cyclic_regions"]]
            assert len(schedule["regions"]) == len(regions)
            for got, want in zip(schedule["regions"], regions):
                assert len(got) == len(want)
                for groups, nodes in zip(got, want):
                    check_level(groups, nodes, fanins, kinds)
            for ids, joined in schedule["waves"]:
                assert len(joined) == max(len(regions[r]) for r in ids)
                for i, groups in enumerate(joined):
                    nodes = [v for r in ids if i < len(regions[r])
                             for v in regions[r][i]]
                    check_level(groups, nodes, fanins, kinds)
        assert any(len(ids) > 1 for ids, _ in merged["waves"])

    def test_one_attention_node_per_level_kind_group(self):
        # Fanouts from 1 to 5: splitting levels by neighbour count would
        # make several reverse groups of one kind.
        cfg = mdl.ModelConfig(dim=4)
        recs = [small_record(seed=s, n_pi=4, n_and=24, n_not=8, feedback=0.0)
                .prepare(cfg, 0, i) for i, s in enumerate((1, 2))]
        fanout_counts = {len(r.graph.fanouts[v]) for r in recs
                         for v in range(r.graph.n)}
        assert set(range(1, 6)) <= fanout_counts
        params = mdl.init_params(4, seed=3)
        results, report = mdl.run_batch(recs, params, cfg)
        assert report.region_iters == []
        loss = tz.add(*(mdl.weighted_loss(losses, {t: 1.0 for t in mdl.TASKS})
                        for _, losses in results))
        # Each group is one tape node that holds all its attentions' w2.
        w2 = {id(params[n]) for n in params.names() if n.endswith(".attn.w2")}
        seen, stack, attn_nodes, group_nodes = {id(loss)}, [loss], 0, 0
        while stack:
            t = stack.pop()
            held = sum(id(p) in w2 for p in t.parents)
            attn_nodes += held
            group_nodes += held > 0
            for p in t.parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)

        def attentions(kind):
            return 3 if kind in mdl.STRUCT_KINDS else 2
        fanins, fanouts, kinds, levels = union_lists(recs)
        expected = by_arity = groups = 0
        for neighbours in (fanins, fanouts):
            for nodes in levels:
                keys = {(kinds[v], len(neighbours[v])) for v in nodes
                        if neighbours[v]}
                expected += sum(attentions(k) for k in {k for k, _ in keys})
                by_arity += sum(attentions(k) for k, _ in keys)
                groups += len({k for k, _ in keys})
        assert attn_nodes == expected
        assert group_nodes == groups
        assert by_arity > expected


def wave_ids(schedule):
    return [ids for ids, _ in schedule["waves"]]


def assert_waves_match_serial(g):
    """Forward tables of the compiled waves equal, in float64, those of a
    schedule that runs the regions one by one in index order."""
    with tz.precision("float64"):
        cfg = mdl.ModelConfig(dim=6, cycle_max_iters=3)
        schedule = mdl.compile_schedule(g, True)
        serial = {**schedule, "waves": [([k], levels) for k, levels
                                        in enumerate(schedule["regions"])]}
        emb0 = mdl.init_embeddings(g, Workload.random(g, 1), 6, seed=2)
        params = mdl.init_params(6, seed=3)
        got, got_rep = mdl.forward_tensors(params, emb0, cfg, schedule=schedule)
        want, want_rep = mdl.forward_tensors(params, emb0, cfg, schedule=serial)
        assert np.abs(got.data - want.data).max() < 1e-12
        assert got_rep.region_iters == want_rep.region_iters
        assert np.allclose(got_rep.region_residuals, want_rep.region_residuals,
                           rtol=1e-12, atol=0)
    return schedule


def two_loops(edge):
    """Two toggle loops; ``edge`` joins them so that region 1 reads region 0
    ("fanin"), region 0 reads region 1 ("fanout") or not at all (None)."""
    b = CircuitBuilder()
    ff0, ff1 = b.add_ff(), b.add_ff()
    inv0, inv1 = b.add_not(ff0), b.add_not(ff1)
    d0 = b.add_and(inv0, inv1) if edge == "fanout" else inv0
    d1 = b.add_and(inv1, inv0) if edge == "fanin" else inv1
    b.set_ff_input(ff0, d0)
    b.set_ff_input(ff1, d1)
    b.set_outputs([ff0, ff1])
    return b.build()


class TestRegionWaves:
    def test_generated_circuit_waves_match_serial(self):
        g = generate(GenSpec(n_pi=4, n_and=30, n_not=10, n_ff=8, seed=5,
                             feedback_prob=1.0))
        schedule = assert_waves_match_serial(g)
        waves = wave_ids(schedule)
        assert len(schedule["regions"]) == 8
        assert 1 < len(waves) < 8
        assert sorted(k for ids in waves for k in ids) == list(range(8))

    def test_accumulator_regions_run_in_one_wave(self):
        g = parse_bench(accumulator_bench(8))
        schedule = assert_waves_match_serial(g)
        assert wave_ids(schedule) == [list(range(8))]

    @pytest.mark.parametrize("edge", ["fanin", "fanout"])
    def test_touching_regions_keep_index_order(self, edge):
        g = two_loops(edge)
        region = node_plan(g)["region"]
        reader = 1 if edge == "fanin" else 0
        reads = {region[u] for v in np.flatnonzero(region == reader)
                 for u in g.fanins[v]}
        assert 1 - reader in reads
        schedule = assert_waves_match_serial(g)
        assert wave_ids(schedule) == [[0], [1]]

    def test_regions_without_edge_share_a_wave(self):
        schedule = assert_waves_match_serial(two_loops(None))
        assert wave_ids(schedule) == [[0, 1]]

    def test_merge_lines_up_wave_k(self):
        cfg = mdl.ModelConfig(dim=4)
        gens = [dict(n_pi=4, n_and=30, n_not=10, n_ff=8, seed=5),
                dict(seed=3), dict(seed=0)]
        recs = [small_record(feedback=1.0, **gen).prepare(cfg, 0, i)
                for i, gen in enumerate(gens)]
        per_record = [wave_ids(r.schedule) for r in recs]
        assert len({len(w) for w in per_record}) > 1
        merged = mdl.merge_schedules([r.schedule for r in recs])
        want, base = [], 0
        for rec, waves in zip(recs, per_record):
            for k, ids in enumerate(waves):
                if k == len(want):
                    want.append([])
                want[k] += [base + r for r in ids]
            base += len(rec.schedule["regions"])
        assert wave_ids(merged) == want

    @pytest.mark.parametrize("width, groups", [(8, 164), (16, 276)])
    def test_wave_groups_do_not_grow_with_width(self, monkeypatch, width,
                                                groups):
        # One wave of 13 merged groups, swept cycle_max_iters = 3 times,
        # whatever the number of bits (regions); only the forward and
        # reverse sweeps grow with the carry chain.
        g = parse_bench(accumulator_bench(width))
        cfg = mdl.ModelConfig(dim=4)
        schedule = mdl.compile_schedule(g, cfg.reverse_layer)
        calls = []
        update = tz.space_update
        monkeypatch.setattr(tz, "space_update",
                            lambda *a: calls.append(1) or update(*a))
        emb0 = mdl.init_embeddings(g, Workload.random(g, 1), 4)
        mdl.forward_tensors(mdl.init_params(4), emb0, cfg, schedule=schedule)
        sweeps = sum(len(level) for level in schedule["fwd"] + schedule["rev"])
        assert len(calls) == groups
        assert len(calls) - sweeps == 13 * cfg.cycle_max_iters


class TestParameters:
    def test_init_params_keep_their_draws(self):
        # Digest of init_params(64, 7) less its attn.w1 tensors, taken when
        # the attentions still had them: dropping them moves no other value.
        params = mdl.init_params(64, seed=7)
        digest = hashlib.sha256()
        for name in params.names():
            digest.update(name.encode())
            digest.update(params[name].data.tobytes())
        assert sum(p.data.size for p in params.params.values()) == 648899
        assert digest.hexdigest() == (
            "e0d0b6d4bc01474c2d7b16886d42897c03fc2af679163a98bd97878796bcde61")

    def test_checkpoint_with_query_weights(self, tmp_path):
        # A checkpoint that still holds *.attn.w1 loads; the forward never
        # reads those tensors, so predictions match and no gradient reaches them.
        cfg = mdl.ModelConfig(dim=8)
        rec = small_record(seed=7).prepare(cfg, 0, 0)
        params = mdl.init_params(8, seed=3)
        old = params.clone()
        rng = np.random.default_rng(0)
        for name in params.names():
            if name.endswith(".attn.w2"):
                old.create(name[:-1] + "1", rng.uniform(-0.3, 0.3, size=(8, 1)))
        path = tmp_path / "old.bin"
        tz.save_checkpoint(path, old)
        loaded, _ = tz.load_checkpoint(path)
        extra = [n for n in loaded.names() if n.endswith(".attn.w1")]
        assert len(extra) == 16
        assert set(loaded.names()) - set(extra) == set(params.names())
        assert mdl.evaluate(loaded, [rec], cfg) == mdl.evaluate(params, [rec], cfg)
        _, losses, _ = mdl.run_record(rec, loaded, cfg)
        mdl.weighted_loss(losses, {t: 1.0 for t in mdl.TASKS}).backward()
        assert all(loaded[n].grad is None for n in extra)
        assert loaded["fwd.func.and.attn.w2"].grad is not None

    def test_model_round_trip_keeps_extra_parameters(self, tmp_path):
        # The header lists dim and the seed first; a legacy query weight
        # and a flip head load as they are, a flip head of another width
        # does not.
        cfg = mdl.ModelConfig(dim=8, reverse_layer=False, cycle_max_iters=2)
        params = mdl.init_params(8, seed=3, reverse_layer=False)
        mdl.add_reliability_head(params, 8)
        params.create("fwd.func.and.attn.w1", np.zeros((16, 1)))
        path = tmp_path / "m.bin"
        mdl.save_model(path, params, cfg, 5)
        assert list(tz.load_checkpoint(path)[1]) == [
            "dim", "seed", "reverse_layer", "cycle_max_iters"]
        loaded, got, seed = mdl.load_model(path)
        assert (got, seed) == (cfg, 5)
        assert loaded.names() == params.names()
        assert all(np.array_equal(loaded[n].data, params[n].data.astype("<f4"))
                   for n in params.names())
        del params.params["head.flip.w3"]
        params.create("head.flip.w3", np.zeros((8, 3)))
        mdl.save_model(path, params, cfg, 5)
        with pytest.raises(ValueError, match="'head.flip.w3' of shape"):
            mdl.load_model(path)


def flip_records(cfg):
    """Two feedback records with random flip-rate targets, prepared under ``cfg``."""
    recs = []
    for i, seed in enumerate((3, 4)):
        rec = small_record(seed=seed, feedback=0.8)
        rng = np.random.default_rng(seed)
        rec.labels.flip = rng.uniform(0.0, 0.2, size=(rec.graph.n, 2))
        recs.append(rec.prepare(cfg, 0, i))
    return recs


class TestFlipTask:
    CFG = dict(dim=4, cycle_max_iters=2)
    WEIGHTS = {"flip": 1.0}

    def params(self):
        params = mdl.init_params(4, seed=8)
        mdl.add_reliability_head(params, 4, seed=9)
        return params

    def test_flip_loss_gradients_float64(self):
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(**self.CFG)
            recs = flip_records(cfg)
            params = self.params()

            def build():
                results, _ = mdl.run_batch(recs, params, cfg)
                assert all(set(losses) >= {"flip"} for _, losses in results)
                return tz.add(*(mdl.weighted_loss(losses, self.WEIGHTS)
                                for _, losses in results))
            build().backward()
            names = [n for n in params.names() if n.startswith("head.flip.")]
            names.append("fwd.seq.and.gru.b")
            fd = numeric_gradients(build, params, h=1e-5, names=names)
            for name in names:
                assert params[name].grad is not None, name
                assert relative_errors(params[name].grad, fd[name]).max() < 1e-8, name
            assert np.abs(params["fwd.seq.and.gru.b"].grad).max() > 0

    def test_batch_gradient_is_sum_of_record_gradients(self):
        with tz.precision("float64"):
            cfg = mdl.ModelConfig(**self.CFG)
            recs = flip_records(cfg)
            params = self.params()
            results, _ = mdl.run_batch(recs, params, cfg)
            tz.add(*(mdl.weighted_loss(losses, self.WEIGHTS)
                     for _, losses in results)).backward()
            batched = {n: params[n].grad for n in params.names()}
            params.zero_grads()
            for rec in recs:
                _, losses, _ = mdl.run_record(rec, params, cfg)
                mdl.weighted_loss(losses, self.WEIGHTS).backward()
            for name in params.names():
                a, b = batched[name], params[name].grad
                if b is None:
                    assert a is None or not a.any(), name
                    continue
                scale = max(np.abs(b).max(), 1e-3)
                assert np.abs(a - b).max() / scale < 1e-10, name

    def test_empty_labels_build_only_the_flip_head(self):
        cfg = mdl.ModelConfig(**self.CFG)
        rec = flip_records(cfg)[0]
        g = rec.graph
        labels = replace(LabelSet.empty(), flip=rec.labels.flip)
        tasks = mdl.task_table(g, labels)
        assert list(tasks) == ["flip"]
        (rows,), target = tasks["flip"]
        assert np.array_equal(rows, np.arange(g.n))
        assert np.array_equal(target, rec.labels.flip)
        table, _ = mdl.forward_tensors(self.params(), rec.emb0, cfg,
                                       schedule=rec.schedule)
        preds = mdl.predict_heads(table, self.params(), tasks)
        assert list(preds) == ["flip"] and preds["flip"].shape == (g.n, 2)
        assert list(mdl.task_losses(preds, tasks)) == ["flip"]

    def test_evaluate_pools_flip_error_over_rows(self):
        cfg = mdl.ModelConfig(**self.CFG)
        recs = flip_records(cfg)
        report = mdl.evaluate(self.params(), recs, cfg)
        per = [row["pe_flip"] for row in report["per_circuit"]]
        rows = [rec.graph.n for rec in recs]
        assert report["pooled"]["pe_flip"] == pytest.approx(
            np.dot(per, rows) / sum(rows), abs=1e-12)


def test_load_dataset_normalizes_paths(tmp_path):
    from seqcircuit.aiger import emit_aiger

    rec = small_record(seed=40)
    corpus = tmp_path / "corpus"
    data = tmp_path / "data"
    corpus.mkdir()
    data.mkdir()
    (corpus / "c0.aag").write_text(emit_aiger(rec.graph))
    line = rec.labels.to_json_record("../corpus/c0.aag", rec.workload,
                                     SimConfig(150, 25, 40))
    (data / "set.jsonl").write_text(line + "\n")
    loaded = mdl.load_dataset(str(data / "set.jsonl"))
    assert loaded[0].path == str(corpus / "c0.aag")
    assert ".." not in loaded[0].path
