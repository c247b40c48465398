"""Soft-error reliability: Monte Carlo fault injection and flip-rate learning.

A faulty simulation shares PI streams with a fault-free one; every node value
independently flips with a small probability at each evaluation, and
corrupted values propagate through gates and into FF state.  Per-node
labels are the observed 0-to-1 and 1-to-0 flip rates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from . import tensor as tz
from .circuit import CircuitGraph
from .labels import LabelSet
from .simulate import (FAULT_STREAM, WORD, WORD_BITS, FFTraces, SimConfig,
                       Workload, compiled_order, count_ones, cycle_window,
                       pattern_mask, pi_words, run_cycles)

# Most geometric gaps drawn at once, so that a fault draw's working memory
# is bounded at any flip probability.
FAULT_BATCH = 1 << 16


@dataclass(frozen=True)
class FaultConfig:
    flip_prob: float = 0.0005
    n_patterns: int = 1000
    n_cycles: int = 100
    seed: int = 0

    def check(self):
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError("flip probability outside [0, 1)")
        self.sim_config().check()

    def sim_config(self) -> SimConfig:
        return SimConfig(n_patterns=self.n_patterns, n_cycles=self.n_cycles,
                         seed=self.seed)


@dataclass
class FlipLabels:
    """Per-node flip rates with their denominators.

    ``p01[v]`` is the fraction of evaluations with fault-free value 0 where
    the faulty run observed 1; ``p10`` the converse.  ``defined01/10`` flag
    nodes whose denominator was nonzero.
    """

    p01: np.ndarray
    p10: np.ndarray
    n0: np.ndarray
    n1: np.ndarray

    @property
    def defined01(self) -> np.ndarray:
        return self.n0 > 0

    @property
    def defined10(self) -> np.ndarray:
        return self.n1 > 0

    def to_json_lines(self, g: CircuitGraph | None = None) -> str:
        names = g.id_to_name if g is not None else {}
        rows = []
        for v in range(len(self.p01)):
            rows.append(json.dumps({
                "id": v, **({"name": names[v]} if v in names else {}),
                "p01": float(self.p01[v]), "p10": float(self.p10[v]),
                "n0": int(self.n0[v]), "n1": int(self.n1[v])}))
        return "\n".join(rows) + "\n"


def fault_words(seed: int, flip_prob: float, shape, n_words: int):
    """(*shape, n_words) packed XOR masks whose bits are set independently
    with probability ``flip_prob`` in (0, 1).

    Word w has its own stream, seeded [seed, w, FAULT_STREAM].  It draws the
    Geometric(flip_prob) gaps between set bits over the flat (*shape,
    pattern-in-word) index, at most ``FAULT_BATCH`` at a time, so the masks
    of P patterns are the first P patterns of any longer run.
    """
    rows = math.prod(shape)
    size = rows * WORD_BITS
    masks = np.zeros(rows * n_words, dtype=WORD)
    mean = size * flip_prob
    batch = min(FAULT_BATCH, int(mean + 6.0 * math.sqrt(mean)) + 1)
    for word in range(n_words):
        rng = np.random.default_rng([seed, word, FAULT_STREAM])
        last = -1
        while last < size:
            # A gap past the end ends the draw; clipping it keeps the sum
            # from overflowing.
            hits = last + np.cumsum(np.minimum(rng.geometric(flip_prob, batch),
                                               size + 1))
            last = int(hits[-1])
            row, bit = np.divmod(hits[hits < size], WORD_BITS)
            np.bitwise_or.at(masks, row * n_words + word,
                             WORD.type(1) << bit.astype(WORD))
    return masks.reshape(*shape, n_words)


def reliability_labels(g: CircuitGraph, w: Workload, fc: FaultConfig,
                       return_traces: bool = False):
    """Estimate per-node flip rates from paired fault-free/faulty runs.

    Deterministic in the seed; with ``flip_prob == 0`` the faulty run is
    observationally identical to the fault-free one.  ``return_traces``
    adds the fault-free and faulty FF traces, as ``FFTraces`` views.
    """
    fc.check()
    w.check(g)
    P, T = fc.n_patterns, fc.n_cycles
    words = pi_words(g, w, fc.sim_config())
    window = cycle_window(g, compiled_order(g), T, words.shape[-1])
    flips = None
    if fc.flip_prob > 0.0:
        flips = fault_words(fc.seed, fc.flip_prob, (T, g.n), words.shape[-1])
    mask = pattern_mask(P)

    n1, n01, n10 = (np.zeros(g.n, dtype=np.int64) for _ in range(3))
    states = []  # (fault-free, faulty) FF state words, kept only if asked
    pairs = zip(run_cycles(g, window, words), run_cycles(g, window, words, flips))
    for (state, vals), (fstate, fvals) in pairs:
        if return_traces:
            states.append((state, fstate))
        n1 += count_ones(vals, mask).sum(axis=0)
        n01 += count_ones(fvals & ~vals, mask).sum(axis=0)
        n10 += count_ones(vals & ~fvals, mask).sum(axis=0)

    n0 = P * T - n1
    labels = FlipLabels(
        p01=np.divide(n01, n0, out=np.zeros(g.n), where=n0 > 0),
        p10=np.divide(n10, n1, out=np.zeros(g.n), where=n1 > 0),
        n0=n0, n1=n1)
    if return_traces:
        return (labels, *(FFTraces(g.ffs, np.concatenate(s), P) for s in zip(*states)))
    return labels


# --- flip-rate regression head --------------------------------------------------

def predict_flip_rates(params: tz.ParamStore, record: mdl.CircuitRecord,
                       cfg: mdl.ModelConfig) -> tz.Tensor:
    """(n_nodes, 2) flip rates of a prepared record, without a tape."""
    rows = (np.arange(record.graph.n),)
    with tz.no_grad():
        table, _, _ = mdl.forward_records([record], params, cfg)
        return mdl.predict_heads(table, params, {"flip": (rows, None)})["flip"]


def finetune_reliability(params: tz.ParamStore, g: CircuitGraph, w: Workload,
                         flip: FlipLabels, cfg: mdl.TrainConfig,
                         epochs: int = 50) -> tuple[tz.ParamStore, list[dict]]:
    """Fine-tune everything with L1 loss on the flip rates.

    ``model.train`` runs the flip task alone on a copy of ``params`` and
    adds the two-output head if it is missing.
    """
    labels = replace(LabelSet.empty(), flip=np.stack([flip.p01, flip.p10], axis=1))
    record = mdl.CircuitRecord(graph=g, workload=w, labels=labels)
    return mdl.train([record], replace(cfg, epochs_phase1=epochs, epochs_phase2=0),
                     params=params, weights={"flip": 1.0})
