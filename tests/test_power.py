import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, GenSpec, SimConfig, Workload,
                        export_saif, generate, parse_bench, power_estimate,
                        read_saif, simulate)
from seqcircuit.power import PowerConfig, PowerError, gate_output_mask


class TestClosedForm:
    def test_all_zero_activity(self):
        tr = np.zeros(5)
        mask = np.ones(5, dtype=bool)
        assert power_estimate(tr, PowerConfig(), mask) == 0.0

    def test_arithmetic(self):
        # P = 0.5 * 1 * 1^2 * 0.375
        tr = np.array([0.25, 0.5])
        mask = np.ones(2, dtype=bool)
        assert power_estimate(tr, PowerConfig(), mask) \
            == pytest.approx(0.1875, abs=1e-9)

    def test_scaling_factors(self):
        tr = np.array([0.4])
        mask = np.ones(1, dtype=bool)
        pc = PowerConfig(capacitance=2.0, vdd=3.0, freq_scale=0.5)
        assert power_estimate(tr, pc, mask) \
            == pytest.approx(0.5 * 2.0 * 9.0 * 0.4 * 0.5, abs=1e-12)

    def test_unmasked_nodes_irrelevant(self):
        tr = np.array([0.1, 0.9, 0.3])
        mask = np.array([True, False, True])
        base = power_estimate(tr, PowerConfig(), mask)
        tr2 = tr.copy()
        tr2[1] = 0.0
        assert power_estimate(tr2, PowerConfig(), mask) == base

    def test_linear_in_masked_mean(self):
        rng = np.random.default_rng(0)
        tr = rng.random(8)
        mask = np.ones(8, dtype=bool)
        p1 = power_estimate(tr, PowerConfig(), mask)
        p2 = power_estimate(tr * 0.5, PowerConfig(), mask)
        assert p2 == pytest.approx(0.5 * p1, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(PowerError):
            power_estimate(np.array([0.5]), PowerConfig(),
                           np.array([False]))

    def test_bad_config_rejected(self):
        with pytest.raises(PowerError):
            power_estimate(np.array([0.5]), PowerConfig(vdd=0.0),
                           np.array([True]))


class TestMask:
    def test_native_aig_mask_is_gates(self):
        g = generate(GenSpec(n_pi=3, n_and=8, n_not=4, n_ff=2, seed=1))
        mask = gate_output_mask(g)
        from seqcircuit.circuit import NodeKind

        for v in range(g.n):
            assert mask[v] == (g.kinds[v] != NodeKind.PI)

    def test_bench_mask_keeps_original_names_only(self):
        src = ("INPUT(A)\nINPUT(B)\nOUTPUT(Y)\n"
               "Y = NOR(A, B)\nZ = OR(A, B)\nQ = DFF(Z)\n")
        g = parse_bench(src)
        mask = gate_output_mask(g)
        named = {g.name_map[n] for n in ("Y", "Z", "Q")}
        assert set(np.flatnonzero(mask)) == named


class TestSaif:
    def test_example_counts(self):
        b = CircuitBuilder()
        pi = b.add_pi("x")
        g = b.build(check=False)
        text = export_saif(g, np.array([0.5]), np.array([0.5]), 100)
        duration, nets = read_saif(text)
        assert duration == 100
        assert nets["x"] == (0.5, 0.5)
        assert "(T0 50) (T1 50) (TC 50)" in text

    def test_constant_node(self):
        b = CircuitBuilder()
        b.add_pi("one")
        g = b.build(check=False)
        text = export_saif(g, np.array([1.0]), np.array([0.0]), 2000)
        assert "(T0 0) (T1 2000) (TC 0)" in text

    def test_t0_plus_t1_exact(self):
        b = CircuitBuilder()
        for k in range(5):
            b.add_pi(f"n{k}")
        g = b.build(check=False)
        rng = np.random.default_rng(3)
        p1 = rng.random(5)
        tr = rng.random(5) * 0.5
        text = export_saif(g, p1, tr, 997)
        import re

        for t0, t1 in re.findall(r"\(T0 (\d+)\) \(T1 (\d+)\)", text):
            assert int(t0) + int(t1) == 997

    @settings(max_examples=50, deadline=None)
    @given(p1=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0),
           duration=st.integers(10, 100000))
    def test_roundtrip_quantization(self, p1, frac, duration):
        tr = frac * 2.0 * min(p1, 1.0 - p1)
        b = CircuitBuilder()
        b.add_pi("n")
        g = b.build(check=False)
        text = export_saif(g, np.array([p1]), np.array([tr]), duration)
        _, nets = read_saif(text)
        got_p1, got_tr = nets["n"]
        assert abs(got_p1 - p1) <= 1.0 / duration
        assert abs(got_tr - tr) <= 1.0 / duration

    def test_synthesized_names_warn(self):
        b = CircuitBuilder()
        b.add_pi()
        g = b.build(check=False)
        with pytest.warns(UserWarning):
            text = export_saif(g, np.array([0.5]), np.array([0.1]), 10)
        assert "(n0 " in text

    @pytest.mark.filterwarnings("ignore:unnamed nodes")
    def test_simulated_stats_roundtrip(self):
        g = generate(GenSpec(n_pi=4, n_and=10, n_not=4, n_ff=2, seed=2,
                             feedback_prob=0.4))
        w = Workload.random(g, 5)
        stats = simulate(g, w, SimConfig(100, 50, 1))
        duration = 100 * 50
        text = export_saif(g, stats.p1, stats.ptr, duration)
        _, nets = read_saif(text)
        assert len(nets) == g.n
        for v in range(g.n):
            name = g.id_to_name.get(v, f"n{v}")
            assert abs(nets[name][0] - stats.p1[v]) <= 1.0 / duration
            assert abs(nets[name][1] - stats.ptr[v]) <= 1.0 / duration

    def test_corrupt_document_rejected(self):
        with pytest.raises(PowerError):
            read_saif("(SAIFILE (INSTANCE top))")
        bad = ("(SAIFILE (DURATION 10) (INSTANCE top (NET "
               "(x (T0 3) (T1 4) (TC 2)))))")
        with pytest.raises(PowerError):
            read_saif(bad)


class TestWorkloadFinetune:
    def test_seen_workload_scores_like_training(self):
        # A "held-out" workload identical to a training one reproduces the
        # training-set error: the report depends only on (params, workload).
        from seqcircuit import model as mdl
        from seqcircuit import power as pw
        from seqcircuit.labels import build_labelset

        g = generate(GenSpec(n_pi=4, n_and=20, n_not=8, n_ff=3, seed=31,
                             feedback_prob=0.3))
        sim_cfg = SimConfig(100, 30, 2)
        wls = [Workload.random(g, 50 + i) for i in range(3)]
        base = mdl.CircuitRecord(
            graph=g, workload=wls[0],
            labels=build_labelset(g, wls[0], sim_cfg, seed=1))
        pre, _ = mdl.train([base], mdl.TrainConfig(
            dim=8, epochs_phase1=2, epochs_phase2=0, lr=1e-3, seed=1,
            batch_size=1))
        tcfg = mdl.TrainConfig(dim=8, epochs_phase1=2, epochs_phase2=0,
                               lr=1e-3, seed=2, batch_size=3)
        tuned, _ = pw.finetune_workloads(pre, g, wls, tcfg, sim_cfg)
        mcfg = tcfg.model_config()
        rep_train = pw.power_error_report(tuned, g, wls, mcfg, PowerConfig(),
                                          sim_cfg, seed=0)
        rep_again = pw.power_error_report(tuned, g, [wls[1]], mcfg,
                                          PowerConfig(), sim_cfg, seed=0)
        assert rep_again[0]["rel_error"] \
            == pytest.approx(rep_train[1]["rel_error"], abs=1e-12)


class TestPredictedTransitions:
    def test_equals_trans_head_on_taped_forward(self):
        # The report runs without a tape; its values must be those of the
        # taped forward that training differentiates.
        from seqcircuit import model as mdl
        from seqcircuit import power as pw
        from seqcircuit import tensor as tz
        from seqcircuit.labels import LabelSet

        g = generate(GenSpec(n_pi=4, n_and=20, n_not=8, n_ff=3, seed=31,
                             feedback_prob=0.3))
        w = Workload.random(g, 5)
        mcfg = mdl.ModelConfig(dim=8)
        params = mdl.init_params(8, seed=3)
        tr = pw.predicted_transitions(params, g, w, mcfg, seed=2)

        rec = mdl.CircuitRecord(graph=g, workload=w,
                                labels=LabelSet.empty(g.n)).prepare(mcfg, 2, 0)
        st, _ = mdl.forward_tensors(params, rec.emb0, mcfg, schedule=rec.schedule)
        sup = mdl.supervised_nodes(g)
        taped = tz.mlp3(st.read(sup, mdl.SEQUENTIAL), params, "head.trans")
        assert taped.parents and taped.requires
        assert np.unique(taped.data).size > 1
        assert np.array_equal(tr[sup], taped.data.ravel())
        for pi in g.workload_pis():
            assert tr[pi] == w.pi_probs[pi][1]
