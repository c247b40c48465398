"""The four benchmark workloads.

Each workload builds its inputs in its constructor (the set-up), runs whole
rounds of the same operations through the toolkit's public API, checks the
outputs of its last round with the benchmark's own checkers, and turns the
recorded times into metrics.

The machine's speed drifts by up to about 1.5x, in spells from a second to
several minutes, which an operation of a few seconds cannot outrun.  So a
fixed probe of interpreter and small-array work, which shares no code with
the toolkit, runs before every operation and after every round, and every
timing is reported in reference seconds: an operation's mean over its
repeats, or the set-up time, times ``PROBE_REF_S`` over the mean probe time
of the same run.  Means on both sides weigh fast and slow spells alike.
"""
from __future__ import annotations

import importlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks
import inputs


def sq(module: str):
    """A seqcircuit module; calls go through its attributes, so the tracer's
    wrappers are found."""
    return importlib.import_module(f"seqcircuit.{module}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# One probe's time on the benchmark machine when it runs at full speed
# (2 CPUs, Python 3.11.7, numpy 2.4.6), so reference seconds read as seconds
# there.
PROBE_REF_S = 0.04
_PROBE_ROWS = np.linspace(0.0, 1.0, 64 * 32).reshape(64, 32)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    Like the toolkit, it spends its time in the interpreter and in numpy calls
    on small arrays; it allocates no containers, so the collector's load does
    not reach it.
    """
    t = time.perf_counter()
    for _ in range(16):
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        a = _PROBE_ROWS
        for _ in range(200):
            a = np.tanh(a * 0.5 + 0.25)
    return time.perf_counter() - t


def bind(g, stim):
    """The workload object for a parsed graph: stimulus i drives input i."""
    return sq("simulate").Workload(dict(zip(g.workload_pis(), stim)))


class Bench:
    """Rounds of operations with per-operation timing and failure counts."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = inputs.rng_for(seed, self.name)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self.round_times: list[float] = []
        self.traced_rounds: list[bool] = []
        self.setup()

    def setup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def end_to_end(self, setup_s: float, peak_mb: float) -> dict:
        raise NotImplementedError

    def summary(self) -> dict:
        return {}

    def run_round(self, traced: bool = False):
        t = time.perf_counter()
        self.round()
        self.probes.append(probe())
        self.round_times.append(time.perf_counter() - t)
        self.traced_rounds.append(traced)
        self.rounds += 1

    def op(self, key: str, fn, *args, ops: int = 1, **kwargs):
        """Run and time one operation (``ops`` operations when one call does
        several, such as a training run of several epochs)."""
        self.attempted += ops
        self.probes.append(probe())
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return None
        self.times[key].append(time.perf_counter() - t)
        return out

    def scale(self) -> float:
        """Reference seconds per second measured in this run."""
        return PROBE_REF_S / statistics.fmean(self.probes)

    def typical(self, key: str) -> float:
        """Mean time of an operation's repeats, in reference seconds."""
        return statistics.fmean(self.times[key]) * self.scale()

    def per_layer(self, tracer) -> dict:
        """Per traced round; the overhead compares the fastest traced round
        with the fastest untraced one (the two kinds alternate)."""
        traced = [t for t, on in zip(self.round_times, self.traced_rounds) if on]
        plain = [t for t, on in zip(self.round_times, self.traced_rounds) if not on]
        return tracer.metrics(len(traced), min(traced) / min(plain) - 1.0)


# --- label ------------------------------------------------------------------

class Label(Bench):
    """Parse and label a corpus of paper-size circuits."""

    name = "label"
    CIRCUITS = 10
    PATTERNS, CYCLES = 1000, 100
    ORACLE_CIRCUITS = 3

    def setup(self):
        sizes = inputs.corpus_sizes(self.CIRCUITS)
        self.rng.shuffle(sizes)
        self.texts, self.stims, self.sim_seeds = [], [], []
        for n in sizes:
            counts = inputs.kind_counts(n)
            self.texts.append(inputs.to_aiger(*inputs.random_netlist(self.rng, **counts)))
            self.stims.append(inputs.stimulus(self.rng, counts["n_pi"]))
            self.sim_seeds.append(int(self.rng.integers(2 ** 31)))
        self.results = []

    def label_one(self, i):
        g = sq("aiger").parse_aiger(self.texts[i])
        w = bind(g, self.stims[i])
        cfg = sq("simulate").SimConfig(self.PATTERNS, self.CYCLES, self.sim_seeds[i])
        return g, w, cfg, sq("labels").build_labelset(g, w, cfg, seed=self.sim_seeds[i])

    def round(self):
        self.results = [self.op(f"circuit{i}", self.label_one, i)
                        for i in range(len(self.texts))]

    def check(self):
        sim = sq("simulate")
        bad = []
        for res in self.results:
            if res is None:
                continue
            g, w, cfg, ls = res
            kinds, fanins, const = checks.netlist(g)
            bad += checks.check_f_pairs(kinds, fanins, const, ls.f_pairs)
            bad += checks.check_rc_pairs(kinds, fanins, ls.rc_pairs)
            bad += checks.check_signal_laws(
                kinds, fanins,
                *checks.counts_from_rates(ls.p1, ls.ptr, cfg.n_patterns, cfg.n_cycles))
            traces = sim.simulate(g, w, cfg).traces
            bad += checks.check_ffsim_pairs(traces, ls.ffsim_pairs)
        rng = inputs.rng_for(self.seed, "label-oracle")
        for _ in range(self.ORACLE_CIRCUITS):
            counts = dict(n_pi=int(rng.integers(3, 7)), n_ff=int(rng.integers(1, 4)),
                          n_and=int(rng.integers(6, 14)), n_not=int(rng.integers(2, 6)))
            g = sq("aiger").parse_aiger(inputs.to_aiger(*inputs.random_netlist(rng, **counts)))
            bad += oracle_problems(g, inputs.stimulus(rng, counts["n_pi"]),
                                   int(rng.integers(2 ** 31)))
        return bad

    def end_to_end(self, setup_s, peak_mb):
        each = [self.typical(f"circuit{i}") for i in range(len(self.texts))
                if self.times[f"circuit{i}"]]
        return {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
                "primary_s": (sum(each), "s"),
                "secondary_s": (statistics.median(each), "s")}

    def summary(self):
        done = [r for r in self.results if r is not None]
        return {"nodes": sum(r[0].n for r in done),
                "f_pairs": sum(len(r[3].f_pairs) for r in done),
                "ffsim_pairs": sum(len(r[3].ffsim_pairs) for r in done),
                "rc_pairs": sum(len(r[3].rc_pairs) for r in done)}


# Patterns of the oracle comparison.  At 4000, a simulator that draws an
# input's 1->0 transitions 5% too often is off by 15 or more standard errors
# on every seed tried, far past the corrected limit of about 5.7.
ORACLE_PATTERNS = 4000


def oracle_problems(g, stim, sim_seed) -> list[str]:
    """``simulate`` against the exact Markov-chain oracle at the same horizon."""
    sim = sq("simulate")
    w = bind(g, stim)
    cfg = sim.SimConfig(ORACLE_PATTERNS, 100, sim_seed)
    stats = sim.simulate(g, w, cfg, keep_pattern_counts=True)
    return checks.check_oracle_agreement(stats, sim.exhaustive_stats(g, w, cfg))


# --- train ------------------------------------------------------------------

PHASE1_TASKS = ("recon", "logic", "trans", "func")


class Train(Bench):
    """Both curriculum phases of training on a labelled corpus, then eval."""

    name = "train"
    CIRCUITS = 12
    LABEL_PATTERNS, LABEL_CYCLES = 200, 50
    DIM, BATCH, EPOCHS1, EPOCHS2, LR = 64, 8, 1, 1, 1e-3
    GRAD_SAMPLES = 16

    def setup(self):
        sim, labels, aiger = sq("simulate"), sq("labels"), sq("aiger")
        self.data = []
        for n in inputs.corpus_sizes(self.CIRCUITS):
            counts = inputs.kind_counts(n)
            g = aiger.parse_aiger(inputs.to_aiger(*inputs.random_netlist(self.rng, **counts)))
            w = bind(g, inputs.stimulus(self.rng, counts["n_pi"]))
            s = int(self.rng.integers(2 ** 31))
            cfg = sim.SimConfig(self.LABEL_PATTERNS, self.LABEL_CYCLES, s)
            self.data.append((g, w, labels.build_labelset(g, w, cfg, seed=s)))
        self.tcfg = sq("model").TrainConfig(
            batch_size=self.BATCH, epochs_phase1=self.EPOCHS1,
            epochs_phase2=self.EPOCHS2, lr=self.LR, seed=self.seed, dim=self.DIM)
        self.history, self.report = None, None

    def round(self):
        mdl = sq("model")
        records = [mdl.CircuitRecord(graph=g, workload=w, labels=ls)
                   for g, w, ls in self.data]
        stamps = [time.perf_counter()]
        out = self.op("train", mdl.train, records, self.tcfg,
                      log_fn=lambda row: stamps.append(time.perf_counter()),
                      ops=self.EPOCHS1 + self.EPOCHS2)
        if out is None:
            self.history = self.report = None
            return
        for k in range(1, len(stamps)):
            self.times[f"epoch{k}"].append(stamps[k] - stamps[k - 1])
        params, self.history = out
        self.report = self.op("eval", mdl.evaluate, params, records,
                              self.tcfg.model_config(), seed=self.seed)

    def check(self):
        bad = []
        if self.history is None or self.report is None:
            return bad
        first, last = self.history[0], self.history[-1]
        tasks = [t for t in PHASE1_TASKS if f"loss_{t}" in first and f"loss_{t}" in last]
        loss = [sum(row[f"loss_{t}"] for t in tasks) for row in (first, last)]
        if not loss[1] < loss[0]:
            bad.append(f"training loss did not fall: {loss[0]} -> {loss[1]}")
        pe = self.report["pooled"]
        if len(pe) != 5 or not all(0.0 <= v <= 1.0 for v in pe.values()):
            bad.append(f"pooled prediction errors malformed: {pe}")
        bad += self.gradient_problems()
        return bad

    def gradient_problems(self) -> list[str]:
        """Float64 central differences against the training gradient on a
        sample of parameters, on the smallest circuit of the corpus."""
        mdl, tz = sq("model"), sq("tensor")
        g, w, ls = min(self.data, key=lambda d: d[0].n)
        weights = self.tcfg.weights(2)
        rng = inputs.rng_for(self.seed, "train-grad")
        with tz.precision("float64"):
            mcfg = self.tcfg.model_config()
            params = mdl.init_params(self.DIM, seed=self.seed)
            rec = mdl.CircuitRecord(graph=g, workload=w, labels=ls).prepare(mcfg, self.seed, 0)

            def loss():
                return mdl.weighted_loss(mdl.run_record(rec, params, mcfg)[1], weights)

            loss().backward()
            names = params.names()
            picks = [names[int(k)] for k in rng.choice(len(names), self.GRAD_SAMPLES,
                                                      replace=False)]
            ad, fd = [], []
            h = 1e-7  # small, so that no step straddles a ReLU or L1 kink
            for name in picks:
                p = params[name]
                ix = tuple(int(rng.integers(s)) for s in p.data.shape)
                ad.append(0.0 if p.grad is None else float(p.grad[ix]))
                orig = p.data[ix]
                with tz.no_grad():
                    p.data[ix] = orig + h
                    up = loss().item()
                    p.data[ix] = orig - h
                    down = loss().item()
                p.data[ix] = orig
                fd.append((up - down) / (2 * h))
        err = checks.max_relative_error(ad, fd)
        return [] if err < 1e-6 else [f"gradient off central differences by {err:.2e}"]

    def end_to_end(self, setup_s, peak_mb):
        epochs = [self.typical(k) for k in self.times if k.startswith("epoch")]
        return {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
                "primary_s": (statistics.median(epochs), "s"),
                "secondary_s": (self.typical("eval"), "s")}

    def summary(self):
        if self.report is None:
            return {}
        pe = self.report["pooled"]
        return {"nodes": sum(g.n for g, _, _ in self.data),
                "eval_pe": statistics.fmean(pe.values()), **pe}


# --- power ------------------------------------------------------------------

class Power(Bench):
    """The ``seqcircuit power`` report on a wide and a deep circuit."""

    name = "power"
    PATTERNS, CYCLES = 1000, 100
    DIM = 32
    STIMULI = 3
    WIDTH = 64

    def setup(self):
        mdl = sq("model")
        self.circuits = {
            "wide": ("aag", inputs.to_aiger(*inputs.random_netlist(self.rng, **inputs.WIDE_COUNTS))),
            "deep": ("bench", inputs.accumulator_bench(self.WIDTH)),
        }
        n_inputs = {"wide": inputs.WIDE_COUNTS["n_pi"], "deep": self.WIDTH + 1}
        self.stims = {c: [inputs.stimulus(self.rng, n_inputs[c]) for _ in range(self.STIMULI)]
                      for c in self.circuits}
        self.sim_seed = int(self.rng.integers(2 ** 31))
        self.params = mdl.init_params(self.DIM, seed=self.seed)
        self.mcfg = mdl.ModelConfig(dim=self.DIM)
        self.pc = sq("power").PowerConfig()
        self.reports = {}

    def parse(self, circuit):
        fmt, text = self.circuits[circuit]
        return sq("aiger").parse_aiger(text) if fmt == "aag" else sq("bench").parse_bench(text)

    def report(self, circuit, stim):
        sim, pw = sq("simulate"), sq("power")
        g = self.parse(circuit)
        w = bind(g, stim)
        cfg = sim.SimConfig(self.PATTERNS, self.CYCLES, self.sim_seed)
        stats = sim.simulate(g, w, cfg)
        mask = pw.gate_output_mask(g)
        tr_hat = pw.predicted_transitions(self.params, g, w, self.mcfg, seed=self.seed)
        duration = cfg.n_patterns * cfg.n_cycles
        saif = pw.export_saif(g, stats.p1, stats.ptr, duration)
        return {"g": g, "w": w, "stats": stats, "mask": mask, "tr_hat": tr_hat,
                "simulated_power": pw.power_estimate(stats.ptr, self.pc, mask),
                "predicted_power": pw.power_estimate(tr_hat, self.pc, mask),
                "duration": duration, "saif": pw.read_saif(saif)}

    def round(self):
        s = self.rounds % self.STIMULI
        for circuit in self.circuits:
            self.reports[circuit] = self.op(circuit, self.report, circuit,
                                            self.stims[circuit][s])

    def check(self):
        pw, tz = sq("power"), sq("tensor")
        bad = []
        for circuit, rep in self.reports.items():
            if rep is None:
                continue
            g, w, stats, mask, tr_hat = (rep[k] for k in ("g", "w", "stats", "mask", "tr_hat"))
            bad += [f"{circuit}: {p}" for p in
                    checks.check_power(rep["simulated_power"], stats.ptr, mask)
                    + checks.check_power(rep["predicted_power"], tr_hat, mask)]
            names = [g.id_to_name.get(v, f"n{v}") for v in range(g.n)]
            duration, nets = rep["saif"]
            if duration != rep["duration"]:
                bad.append(f"{circuit}: SAIF duration {duration} != {rep['duration']}")
            bad += [f"{circuit}: {p}" for p in
                    checks.check_saif_round_trip(names, stats.p1, stats.ptr, duration, nets)]
            if tr_hat.min() < 0.0 or tr_hat.max() > 1.0:
                bad.append(f"{circuit}: predicted transitions outside [0, 1]")
            for pi in g.workload_pis():
                if tr_hat[pi] != w.pi_probs[pi][1]:
                    bad.append(f"{circuit}: input {pi} predicted {tr_hat[pi]}, "
                               f"stimulus {w.pi_probs[pi][1]}")
            with tz.no_grad():
                plain = pw.predicted_transitions(self.params, g, w, self.mcfg, seed=self.seed)
            if not np.array_equal(plain, tr_hat):
                bad.append(f"{circuit}: taped and no_grad forwards differ")
        rng = inputs.rng_for(self.seed, "power-oracle")
        small = sq("bench").parse_bench(inputs.accumulator_bench(3))
        bad += oracle_problems(small, inputs.stimulus(rng, 4), int(rng.integers(2 ** 31)))
        return bad

    def end_to_end(self, setup_s, peak_mb):
        return {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
                "primary_s": (self.typical("wide"), "s"),
                "secondary_s": (self.typical("deep"), "s")}

    def summary(self):
        return {c: {"nodes": r["g"].n, "simulated_power": r["simulated_power"],
                    "predicted_power": r["predicted_power"]}
                for c, r in self.reports.items() if r is not None}


# --- reliab -----------------------------------------------------------------

class Reliab(Bench):
    """Fault-injection flip labels on the wide circuit, then fine-tuning."""

    name = "reliab"
    PATTERNS, CYCLES = 250, 100
    FLIP = 5e-4
    DIM, EPOCHS, LR = 32, 2, 1e-3

    def setup(self):
        mdl = sq("model")
        text = inputs.to_aiger(*inputs.random_netlist(self.rng, **inputs.WIDE_COUNTS))
        self.g = sq("aiger").parse_aiger(text)
        self.w = bind(self.g, inputs.stimulus(self.rng, inputs.WIDE_COUNTS["n_pi"]))
        self.fc = sq("reliability").FaultConfig(
            flip_prob=self.FLIP, n_patterns=self.PATTERNS, n_cycles=self.CYCLES,
            seed=int(self.rng.integers(2 ** 31)))
        self.params = mdl.init_params(self.DIM, seed=self.seed)
        self.tcfg = mdl.TrainConfig(dim=self.DIM, lr=self.LR, seed=self.seed)
        self.flip, self.history = None, None

    def round(self):
        rel = sq("reliability")
        self.flip = self.op("flip", rel.reliability_labels, self.g, self.w, self.fc)
        self.history = None
        if self.flip is not None:
            out = self.op("finetune", rel.finetune_reliability, self.params, self.g,
                          self.w, self.flip, self.tcfg, epochs=self.EPOCHS,
                          ops=self.EPOCHS)
            self.history = None if out is None else out[1]

    def check(self):
        bad = []
        g, flip = self.g, self.flip
        if flip is None:
            return bad
        total = self.PATTERNS * self.CYCLES
        if not np.array_equal(flip.n0 + flip.n1, np.full(g.n, total)):
            bad.append("n0 + n1 differs from patterns x cycles")
        sim = sq("simulate")
        ref = sim.simulate(g, self.w, sim.SimConfig(self.PATTERNS, self.CYCLES, self.fc.seed))
        if not np.array_equal(flip.n1, ref.p1_counts):
            bad.append("fault-free ones differ from simulate's p1 counts")
        pis = g.workload_pis()
        flips = float((flip.p01[pis] * flip.n0[pis] + flip.p10[pis] * flip.n1[pis]).sum())
        evals = float(len(pis) * total)
        sigma = np.sqrt(self.FLIP * (1 - self.FLIP) / evals)
        if abs(flips / evals - self.FLIP) > checks.z_limit(1) * sigma:
            bad.append(f"input flip rate {flips / evals:.3e} not within "
                       f"{checks.z_limit(1):.1f} sigma of {self.FLIP}")
        if self.history is not None and not (self.history[-1]["loss_flip"]
                                             < self.history[0]["loss_flip"]):
            bad.append(f"fine-tune loss did not fall: {self.history}")
        return bad

    def end_to_end(self, setup_s, peak_mb):
        return {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
                "primary_s": (self.typical("flip"), "s"),
                "secondary_s": (self.typical("finetune") / self.EPOCHS, "s")}

    def summary(self):
        if self.history is None:
            return {}
        return {"nodes": self.g.n, "pe_flip": self.history[-1]["pe_flip"]}


WORKLOADS = {cls.name: cls for cls in (Label, Train, Power, Reliab)}
