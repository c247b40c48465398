"""Dynamic power estimation from switching activity.

Power follows the closed form P = 0.5 * C * Vdd^2 * mean(tr over gates),
with a uniform unit capacitance model.  Switching profiles travel as a
small SAIF 2.0 subset (T0/T1/TC counts per net).
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from . import tensor as tz
from .circuit import CircuitGraph, NodeKind, SYNTH_PREFIX
from .labels import LabelSet
from .simulate import SimConfig, SimStats, Workload, simulate


class PowerError(ValueError):
    pass


@dataclass(frozen=True)
class PowerConfig:
    capacitance: float = 1.0
    vdd: float = 1.0
    freq_scale: float = 1.0

    def check(self):
        if min(self.capacitance, self.vdd, self.freq_scale) <= 0:
            raise PowerError("power config values must be positive")


def gate_output_mask(g: CircuitGraph) -> np.ndarray:
    """Nodes whose switching counts toward power.

    Gates and FFs count; PIs do not.  For netlists that went through gate
    lowering, only nodes carrying an original (non-synthesized) name count,
    since lowered helper nodes duplicate or invert original activity.
    """
    mask = np.array([k != NodeKind.PI for k in g.kinds])
    original = [i for name, i in g.name_map.items()
                if not name.startswith(SYNTH_PREFIX)]
    if original:
        named = np.zeros(g.n, dtype=bool)
        named[original] = True
        lowered = mask & ~named
        if lowered.any():
            mask &= named
    return mask


def power_estimate(tr: np.ndarray, pc: PowerConfig, mask: np.ndarray) -> float:
    """Closed-form dynamic power over the masked nodes."""
    pc.check()
    tr = np.asarray(tr, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise PowerError("empty power mask")
    if tr[mask].min() < 0 or tr[mask].max() > 1:
        raise PowerError("transition probabilities outside [0, 1]")
    y_avg = float(tr[mask].mean())
    return 0.5 * pc.capacitance * pc.vdd ** 2 * y_avg * pc.freq_scale


# --- SAIF ---------------------------------------------------------------------

def export_saif(g: CircuitGraph, p1: np.ndarray, tr: np.ndarray,
                duration: int, instance: str = "top") -> str:
    """Minimal SAIF 2.0 document with one NET entry per node.

    T1 = round(p1 * duration), T0 = duration - T1 (so T0 + T1 is exact),
    TC = round(ptr * duration).  Unnamed nodes get synthesized names.
    """
    if duration < 1:
        raise PowerError("duration must be positive")
    names = g.id_to_name
    if len(names) < g.n:
        warnings.warn("unnamed nodes in SAIF export; synthesizing names")
    lines = [
        "(SAIFILE",
        '  (SAIFVERSION "2.0")',
        '  (DIRECTION "backward")',
        f"  (DURATION {duration})",
        f"  (INSTANCE {instance}",
        "    (NET",
    ]
    for v in range(g.n):
        name = names.get(v, f"n{v}")
        t1 = int(np.floor(p1[v] * duration + 0.5))
        t0 = duration - t1
        tc = int(np.floor(tr[v] * duration + 0.5))
        lines.append(f"      ({name} (T0 {t0}) (T1 {t1}) (TC {tc}))")
    lines += ["    )", "  )", ")"]
    return "\n".join(lines) + "\n"


_NET_RE = re.compile(r"\(\s*(\S+)\s+\(T0\s+(\d+)\)\s+\(T1\s+(\d+)\)\s+\(TC\s+(\d+)\)\s*\)")
_DUR_RE = re.compile(r"\(DURATION\s+(\d+)\)")


def read_saif(text) -> tuple[int, dict[str, tuple[float, float]]]:
    """Parse the subset written by export_saif: name -> (p1, ptr)."""
    if hasattr(text, "read"):
        text = text.read()
    m = _DUR_RE.search(text)
    if not m:
        raise PowerError("SAIF document has no DURATION")
    duration = int(m.group(1))
    nets = {}
    for name, t0, t1, tc in _NET_RE.findall(text):
        t0, t1, tc = int(t0), int(t1), int(tc)
        if t0 + t1 != duration:
            raise PowerError(f"net {name}: T0+T1 != DURATION")
        nets[name] = (t1 / duration, tc / duration)
    return duration, nets


# --- workload fine-tuning -----------------------------------------------------

def workload_records(g: CircuitGraph, workloads: list[Workload],
                     cfg: SimConfig) -> list[mdl.CircuitRecord]:
    """Probability-only supervision records, one per workload."""
    from .labels import build_labelset

    records = []
    for i, w in enumerate(workloads):
        labels = build_labelset(g, w, replace(cfg, seed=cfg.seed + i),
                                f_target=0, ffsim_target=0)
        records.append(mdl.CircuitRecord(graph=g, workload=w, labels=labels))
    return records


def finetune_workloads(params: tz.ParamStore, g: CircuitGraph,
                       train_workloads: list[Workload], cfg: mdl.TrainConfig,
                       sim_cfg: SimConfig = SimConfig()) -> tuple[tz.ParamStore, list[dict]]:
    """Continue training on one circuit under many workloads.

    Only the probability tasks supervise (the pair tasks carry no new
    information across workloads of a fixed netlist).
    """
    records = workload_records(g, train_workloads, sim_cfg)
    weights = {"logic": cfg.w_logic, "trans": cfg.w_trans}
    return mdl.train(records, cfg, params=params, weights=weights)


def predicted_transitions(params: tz.ParamStore, g: CircuitGraph, w: Workload,
                          cfg: mdl.ModelConfig, seed=0) -> np.ndarray:
    """Per-node transition probabilities: model output for gates and FFs,
    workload values for PIs (inputs are given, not predicted)."""
    rec = mdl.CircuitRecord(graph=g, workload=w,
                            labels=LabelSet.empty(g.n)).prepare(cfg, seed, 0)
    sup = mdl.supervised_nodes(g)
    with tz.no_grad():
        st, _, _ = mdl.forward_records([rec], params, cfg)
        pred = tz.mlp3(st.read(sup, mdl.SEQUENTIAL), params, "head.trans")
    tr = np.zeros(g.n)
    tr[sup] = pred.data.ravel()
    for pi in g.workload_pis():
        tr[pi] = w.pi_probs[pi][1]
    return tr


def power_error_report(params: tz.ParamStore, g: CircuitGraph,
                       workloads: list[Workload], mcfg: mdl.ModelConfig,
                       pc: PowerConfig, sim_cfg: SimConfig,
                       seed=0) -> list[dict]:
    """Relative power error of model predictions against simulated activity.

    Each entry is a pure function of (params, workload): ground truth uses a
    seed offset disjoint from label generation, and the prediction reuses one
    embedding-init stream, so identical workloads score identically.
    """
    mask = gate_output_mask(g)
    gt_cfg = replace(sim_cfg, seed=sim_cfg.seed + 0x6774)
    out = []
    for w in workloads:
        stats = simulate(g, w, gt_cfg)
        gt = power_estimate(stats.ptr, pc, mask)
        tr_hat = predicted_transitions(params, g, w, mcfg, seed=seed)
        est = power_estimate(tr_hat, pc, mask)
        rel = abs(est - gt) / max(gt, 1e-12)
        out.append({"gt_power": gt, "est_power": est, "rel_error": rel})
    return out
