"""Graph neural model over sequential netlists.

Every node carries three embeddings: structure, function, and sequential
behavior.  Sources keep parts of their embeddings pinned: structure vectors
of PIs and FFs never change (they act as pseudo primary inputs), and PI
function/sequential vectors stay at their workload initialization.  A single
forward sweep walks the level plan; the feedback regions are then re-swept
a fixed number of times (``cycle_max_iters``) with no convergence test, in
waves of regions that share no edge; an optional mirrored sweep over
reversed edges follows.
The embeddings live in one in-place (n, 3d) row table, and a level group is
one fused tape node (``tensor.space_update``); training runs each mini-batch
as one sweep over the disjoint union of its circuits.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as tz
from .circuit import CircuitGraph, NodeKind
from .labels import LabelSet
from .schedule import node_plan
from .simulate import Workload
from .tensor import ParamStore, Tensor

STRUCT_KINDS = (NodeKind.AND, NodeKind.NOT)
UPDATE_KINDS = (NodeKind.AND, NodeKind.NOT, NodeKind.FF)
TASKS = ("recon", "logic", "trans", "func", "ff_sim", "flip")
STRUCTURE, FUNCTION, SEQUENTIAL = range(3)  # column blocks of the embedding table


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 128
    reverse_layer: bool = True
    cycle_max_iters: int = 3  # fixed number of passes over each feedback region

    def __post_init__(self):
        _check_at_least(self, dim=1, cycle_max_iters=0)


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    batch_size: int = 16
    epochs_phase1: int = 40
    epochs_phase2: int = 40
    lr: float = 1e-4
    w_recon: float = 1.0
    w_logic: float = 1.0
    w_trans: float = 1.0
    w_func: float = 1.0
    w_ff_sim: float = 1.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        _check_at_least(self, batch_size=1, epochs_phase1=0, epochs_phase2=0,
                        seed=0)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in fields(ModelConfig)})

    def weights(self, phase: int) -> dict[str, float]:
        w = {"recon": self.w_recon, "logic": self.w_logic,
             "trans": self.w_trans, "func": self.w_func,
             "ff_sim": self.w_ff_sim if phase == 2 else 0.0}
        return w


def _check_at_least(cfg, **bounds):
    for name, low in bounds.items():
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass
class ForwardReport:
    forward_updates: np.ndarray
    reverse_updates: np.ndarray
    region_iters: list[int] = field(default_factory=list)
    region_residuals: list[list[float]] = field(default_factory=list)


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def init_embeddings(g: CircuitGraph, w: Workload, dim: int,
                    seed=0) -> np.ndarray:
    """Workload-aware deterministic initialization of the (n, 3d) table,
    with columns [structure | function | sequential].

    Structure rows of the sources (PIs and FFs) are mutually orthonormal
    when their count fits the dimension, otherwise random unit rows.  PI
    function/sequential rows carry (p1, ptr) in component 0.
    """
    rng = np.random.default_rng(_seed_list(seed) + [0x1217])
    n = g.n
    sources = sorted(g.pis + g.ffs)
    hs = _unit_rows(rng, n, dim)
    k = len(sources)
    if k <= dim:
        gauss = rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(gauss)
        hs[sources] = q[:, :k].T
    else:
        hs[sources] = _unit_rows(rng, k, dim)

    hf = _unit_rows(rng, n, dim)
    hq = _unit_rows(rng, n, dim)
    for pi in g.pis:
        p1, ptr = (0.0, 0.0) if pi == g.const_id else w.pi_probs[pi]
        hf[pi] = 0.0
        hf[pi, 0] = p1
        hq[pi] = 0.0
        hq[pi, 0] = ptr
    return np.concatenate([hs, hf, hq], axis=1, dtype=tz.active_dtype())


# --- parameters ---------------------------------------------------------------

def _kind_tag(kind: NodeKind) -> str:
    return kind.name.lower()


def init_params(dim: int, seed: int = 0, reverse_layer: bool = True) -> ParamStore:
    """Create all aggregators, update cells and prediction heads."""
    store = ParamStore()
    rng = np.random.default_rng([int(seed), 0x7061])
    sides = ("fwd", "rev") if reverse_layer else ("fwd",)
    for side in sides:
        for kind in STRUCT_KINDS:
            base = f"{side}.struct.{_kind_tag(kind)}"
            tz.init_attention(store, f"{base}.attn", dim, rng)
            tz.init_gru(store, f"{base}.gru", dim, dim, rng)
        for kind in UPDATE_KINDS:
            base = f"{side}.func.{_kind_tag(kind)}"
            tz.init_attention(store, f"{base}.attn", 2 * dim, rng)
            tz.init_gru(store, f"{base}.gru", 2 * dim, dim, rng)
            base = f"{side}.seq.{_kind_tag(kind)}"
            tz.init_attention(store, f"{base}.attn", 3 * dim, rng)
            tz.init_gru(store, f"{base}.gru", 3 * dim, dim, rng)
    tz.init_mlp3(store, "head.recon", 2 * dim, dim, 1, rng)
    tz.init_mlp3(store, "head.logic", dim, dim, 1, rng)
    tz.init_mlp3(store, "head.trans", dim, dim, 1, rng)
    return store


def add_reliability_head(store: ParamStore, dim: int, seed: int = 0):
    rng = np.random.default_rng([int(seed), 0x7265])
    tz.init_mlp3(store, "head.flip", 3 * dim, dim, 2, rng)


# --- forward pass -------------------------------------------------------------

class _TensorState:
    """The whole-graph (n, 3d) embedding table of a differentiable sweep,
    with columns [structure | function | sequential]."""

    def __init__(self, emb: np.ndarray):
        self.dim = emb.shape[1] // 3
        self.table = tz.RowTable(emb)

    def read(self, rows, space: int | None = None) -> Tensor:
        """Current ``rows`` of the table: one space's columns, or all."""
        cols = slice(None) if space is None else slice(space * self.dim,
                                                       (space + 1) * self.dim)
        return tz.take_rows(self.table.current, rows, cols)


_KINDS = tuple(NodeKind)


def _groups(kinds, csr, nodes, keys, n_keys: int) -> list[list[tuple]]:
    """``n_keys`` lists of batched update groups; node ``nodes[i]`` joins
    list ``keys[i]``.

    The nodes are sorted stably by (key, kind), so a list holds one group
    per kind and a group keeps the given node order.  A group is (kind,
    node ids, (neighbour ids, segment starts, owners)): the neighbour lists
    of its nodes, cut from ``csr`` = (degrees, flat neighbour ids), laid
    end to end, node i's list starting at ``starts[i]``, and for each
    neighbour entry the position of the node it serves.  Nodes without
    neighbours are left out.  Within a level no gate feeds another, so
    batching gates cannot change values; a group reads every neighbour row
    as it was before the group ran.
    """
    deg, flat = csr
    has = deg[nodes] > 0
    key = keys[has] * len(NodeKind) + kinds[nodes[has]]
    order = np.argsort(key, kind="stable")
    nodes, key = nodes[has][order], key[order]
    sizes = deg[nodes]
    ends = np.cumsum(sizes)
    first = ends - sizes
    src = np.cumsum(deg) - deg  # each node's first entry in ``flat``
    nbrs = flat[np.repeat(src[nodes] - first, sizes) + np.arange(sizes.sum())]
    owner = np.repeat(np.arange(len(nodes)), sizes)
    groups: list[list[tuple]] = [[] for _ in range(n_keys)]
    cuts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for a, b in zip(cuts, cuts[1:] + [len(nodes)]):
        lo, hi = first[a], ends[b - 1]
        k, kind = divmod(int(key[a]), len(NodeKind))
        groups[k].append((_KINDS[kind], nodes[a:b],
                          (nbrs[lo:hi], first[a:b] - lo, owner[lo:hi] - a)))
    return groups


def compile_schedule(g: CircuitGraph, reverse: bool):
    """Precompute batched update groups for every sweep the forward pass runs.

    ``fwd`` and ``rev`` hold one group list per level and ``regions`` one
    list of internal levels per feedback region.  ``region_rows`` are each
    region's nodes and ``waves`` the regions that run together, in order,
    each as (region ids, their levels merged).  The groups are cut from the
    per-node arrays of ``schedule.node_plan``, whose waves let regions that
    share no edge run together.  ``nodes`` keeps those arrays, with the
    region nodes listed by (region, node id), for ``merge_schedules``.
    """
    plan = node_plan(g)
    region = plan["region"]
    rows = np.flatnonzero(region >= 0)
    rows = rows[np.argsort(region[rows], kind="stable")]
    nodes = {
        "kind": np.array(g.kinds, dtype=np.int64), "level": plan["level"],
        "fanin_deg": np.array([len(f) for f in g.fanins], dtype=np.int64),
        "fanins": np.array([u for f in g.fanins for u in f], dtype=np.int64),
        "fanout_deg": np.array([len(f) for f in g.fanouts], dtype=np.int64),
        "fanouts": np.array([u for f in g.fanouts for u in f], dtype=np.int64),
        "region": region[rows], "region_node": rows,
        "region_level": plan["region_level"][rows], "wave": plan["wave"],
    }
    return _sweeps(nodes, reverse)


def _sweeps(a: dict, reverse: bool) -> dict:
    """The schedule of ``compile_schedule`` from its per-node arrays ``a``.

    Every sweep is one ``_groups`` call.  ``fwd`` sorts by (level, kind,
    node id) and ``rev`` by the same keys in descending level; region
    levels sort by (region, internal level, kind, node id) and wave levels
    by (wave, internal level, kind, region, node id).
    """
    kind, level, region, wave = a["kind"], a["level"], a["region"], a["wave"]
    rows, inner = a["region_node"], a["region_level"] - 1
    fanins = (a["fanin_deg"], a["fanins"])
    live = np.flatnonzero(level)  # every node but the PIs
    top = int(level.max(initial=0))
    fwd = _groups(kind, fanins, live, level[live] - 1, top)
    rev = (_groups(kind, (a["fanout_deg"], a["fanouts"]), live,
                   top - level[live], top) if reverse else [])

    depth = np.zeros(len(wave), dtype=np.int64)
    np.maximum.at(depth, region, inner + 1)
    first = np.cumsum(depth) - depth
    flat = _groups(kind, fanins, rows, first[region] + inner, int(depth.sum()))
    regions = [flat[f:f + d] for f, d in zip(first, depth)]
    size = np.bincount(region, minlength=len(wave))
    region_rows = np.split(rows, np.cumsum(size))[:-1]

    wave_depth = np.zeros(int(wave.max(initial=-1)) + 1, dtype=np.int64)
    np.maximum.at(wave_depth, wave, depth)
    first = np.cumsum(wave_depth) - wave_depth
    flat = _groups(kind, fanins, rows, first[wave[region]] + inner,
                   int(wave_depth.sum()))
    waves = [(np.flatnonzero(wave == w).tolist(), flat[f:f + d])
             for w, (f, d) in enumerate(zip(first, wave_depth))]
    return {"fwd": fwd, "regions": regions, "rev": rev, "reverse": reverse,
            "n": len(kind), "region_rows": region_rows, "waves": waves,
            "nodes": a}


def merge_schedules(schedules) -> dict:
    """One schedule for the disjoint union of several circuits.

    The circuits' per-node arrays are joined, with node ids shifted by the
    node counts before them and region ids by the region counts, and the
    union's groups are cut from them in one ``_sweeps``.  So level k of
    every circuit runs in level k of the union, and wave k in wave k.
    Circuits share no edge, so any such alignment keeps each circuit's
    values.  The regions are listed circuit by circuit, and so are the
    forward report's ``region_iters``.  The union of one circuit is its
    own schedule.
    """
    if len(schedules) == 1:
        return schedules[0]
    node = np.cumsum([0] + [s["n"] for s in schedules[:-1]])
    region = np.cumsum([0] + [len(s["region_rows"]) for s in schedules[:-1]])
    shift = {"fanins": node, "fanouts": node, "region_node": node,
             "region": region}
    parts = [s["nodes"] for s in schedules]
    joined = {key: np.concatenate([p[key] + off for p, off in
                                   zip(parts, shift.get(key, 0 * node))])
              for key in parts[0]}
    return _sweeps(joined, any(s["reverse"] for s in schedules))


def _cells(params: ParamStore, side: str) -> dict:
    """Each kind's per-space (attention w2, GRU wx, wh, b) on one side; None
    pins the structure space of FFs."""
    names = ("attn.w2", "gru.wx", "gru.wh", "gru.b")
    return {kind: [None if space == "struct" and kind not in STRUCT_KINDS else
                   tuple(params[f"{side}.{space}.{_kind_tag(kind)}.{k}"]
                         for k in names) for space in ("struct", "func", "seq")]
            for kind in UPDATE_KINDS}


def _update_group(st: _TensorState, cells, vids, csr):
    """Batched refresh of one node group from its CSR neighbour rows: its
    neighbour rows and own rows are read before ``space_update`` refreshes
    every space in one tape node and the group writes its rows."""
    nbrs, starts, owner = csr
    current = st.table.current
    st.table.scatter(vids, tz.space_update(
        tz.take_rows(current, nbrs), tz.take_rows(current, vids), starts,
        owner, cells))


def _sweep_level(st, cells, groups, updates: np.ndarray):
    for kind, vids, csr in groups:
        _update_group(st, cells[kind], vids, csr)
        updates[vids] += 1


def _region_residual(st, old, rows) -> float:
    """Worst relative change of a region row in any one space against its
    snapshot ``old``."""
    shape = (len(rows), -1, st.dim)
    num = np.linalg.norm((st.table.data[rows] - old).reshape(shape), axis=2)
    den = np.linalg.norm(old.reshape(shape), axis=2) + 1e-12
    return float((num / den).max())


def forward_tensors(params: ParamStore, emb: np.ndarray, cfg: ModelConfig,
                    *, schedule: dict) -> tuple[_TensorState, ForwardReport]:
    """Differentiable propagation; returns embedding tensors and diagnostics.

    ``schedule`` comes from ``compile_schedule`` for one circuit or from
    ``merge_schedules`` for several.  ``emb`` is copied, never written.
    """
    n = schedule["n"]
    st = _TensorState(emb)
    report = ForwardReport(forward_updates=np.zeros(n, dtype=np.int64),
                           reverse_updates=np.zeros(n, dtype=np.int64))

    fwd = _cells(params, "fwd")
    for groups in schedule["fwd"]:
        _sweep_level(st, fwd, groups, report.forward_updates)

    # Each pass's residual is a diagnostic only; the pass count is fixed.
    region_rows = schedule["region_rows"]
    report.region_residuals = [[] for _ in region_rows]
    for ids, levels in schedule["waves"]:
        for _ in range(cfg.cycle_max_iters):
            # Snapshot first: the table is overwritten in place.
            old = [st.table.data[region_rows[r]] for r in ids]
            for groups in levels:
                _sweep_level(st, fwd, groups, report.forward_updates)
            for r, before in zip(ids, old):
                report.region_residuals[r].append(
                    _region_residual(st, before, region_rows[r]))
    report.region_iters = [len(res) for res in report.region_residuals]

    rev = _cells(params, "rev") if schedule["rev"] else None
    for groups in schedule["rev"]:
        _sweep_level(st, rev, groups, report.reverse_updates)
    return st, report


# --- heads, losses, metrics ---------------------------------------------------

def _cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    dots = tz.sum_rows(tz.mul(a, b))
    na = tz.sqrt(tz.add_const(tz.sum_rows(tz.mul(a, a)), 1e-12))
    nb = tz.sqrt(tz.add_const(tz.sum_rows(tz.mul(b, b)), 1e-12))
    return tz.div(dots, tz.mul(na, nb))


def flip_head(st: _TensorState, params: ParamStore, rows) -> Tensor:
    """(len(rows), 2) flip rates from the three spaces of the given table rows."""
    return tz.mlp3(st.read(rows), params, "head.flip")


def predict_heads(g: CircuitGraph, st: _TensorState, params: ParamStore,
                  labels: LabelSet, offset: int = 0) -> dict[str, Tensor]:
    """Task predictions aligned with the label arrays.

    The circuit's node ``v`` is row ``offset + v`` of the embedding table.
    """
    def take(space, ids):
        return st.read(np.asarray(ids, dtype=np.int64) + offset, space)

    out: dict[str, Tensor] = {}
    if labels.rc_pairs:
        lo = [min(a, b) for a, b, _, _ in labels.rc_pairs]
        hi = [max(a, b) for a, b, _, _ in labels.rc_pairs]
        rows = tz.concat_cols([take(STRUCTURE, lo), take(STRUCTURE, hi)])
        out["recon"] = tz.mlp3(rows, params, "head.recon")
    sup = supervised_nodes(g)
    if sup:
        out["logic"] = tz.mlp3(take(FUNCTION, sup), params, "head.logic")
        out["trans"] = tz.mlp3(take(SEQUENTIAL, sup), params, "head.trans")
    if labels.f_pairs:
        hi = take(FUNCTION, [i for i, _, _ in labels.f_pairs])
        hj = take(FUNCTION, [j for _, j, _ in labels.f_pairs])
        cos = _cosine_rows(hi, hj)
        out["func"] = tz.scale(tz.add_const(tz.scale(cos, -1.0), 1.0), 0.5)
    if labels.ffsim_pairs:
        qi = take(SEQUENTIAL, [i for i, _, _ in labels.ffsim_pairs])
        qj = take(SEQUENTIAL, [j for _, j, _ in labels.ffsim_pairs])
        cos = tz.add_const(_cosine_rows(qi, qj), 1.0)
        out["ff_sim"] = tz.scale(cos, 0.5)
    if labels.flip is not None:
        out["flip"] = flip_head(st, params, np.arange(g.n) + offset)
    return out


def supervised_nodes(g: CircuitGraph) -> list[int]:
    """Probability supervision applies to gates and FFs, not to inputs."""
    return [v for v in range(g.n) if g.kinds[v] != NodeKind.PI]


def _check_unit(vals, what):
    arr = np.asarray(vals, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(f"{what} labels outside [0, 1]")
    return arr


def _bce(pred: Tensor, target: np.ndarray) -> Tensor:
    y = tz.constant(target.reshape(-1, 1))
    one_minus_y = tz.constant(1.0 - target.reshape(-1, 1))
    eps = 1e-7
    t1 = tz.mul(y, tz.log(tz.add_const(pred, eps)))
    t2 = tz.mul(one_minus_y, tz.log(tz.add_const(tz.scale(pred, -1.0), 1.0 + eps)))
    return tz.scale(tz.mean_all(tz.add(t1, t2)), -1.0)


def _l1(pred: Tensor, target: np.ndarray) -> Tensor:
    y = tz.constant(target.reshape(pred.shape))
    return tz.mean_all(tz.absolute(tz.sub(pred, y)))


def task_losses(g: CircuitGraph, preds: dict[str, Tensor],
                labels: LabelSet) -> dict[str, Tensor]:
    """Per-task scalar losses (binary cross-entropy for reconvergence, L1 else)."""
    out: dict[str, Tensor] = {}
    if "recon" in preds:
        rc = _check_unit([l for _, _, _, l in labels.rc_pairs], "reconvergence")
        out["recon"] = _bce(preds["recon"], rc)
    sup = supervised_nodes(g)
    if "logic" in preds:
        out["logic"] = _l1(preds["logic"], _check_unit(labels.p1[sup], "logic"))
    if "trans" in preds:
        out["trans"] = _l1(preds["trans"], _check_unit(labels.ptr[sup], "transition"))
    if "func" in preds:
        out["func"] = _l1(preds["func"],
                          _check_unit([d for _, _, d in labels.f_pairs], "distance"))
    if "ff_sim" in preds:
        out["ff_sim"] = _l1(preds["ff_sim"],
                            _check_unit([s for _, _, s in labels.ffsim_pairs],
                                        "similarity"))
    if "flip" in preds:
        out["flip"] = _l1(preds["flip"], _check_unit(labels.flip, "flip-rate"))
    return out


def weighted_loss(losses: dict[str, Tensor], weights: dict[str, float]) -> Tensor:
    total = None
    for task in TASKS:
        if task in losses and weights.get(task, 0.0) != 0.0:
            term = tz.scale(losses[task], weights[task])
            total = term if total is None else tz.add(total, term)
    if total is None:
        raise ValueError("no active loss terms")
    return total


def prediction_errors(g: CircuitGraph, preds: dict[str, Tensor],
                      labels: LabelSet) -> dict[str, float]:
    """Average absolute prediction error per task."""
    out = {}
    if "recon" in preds:
        y = np.array([l for _, _, _, l in labels.rc_pairs], dtype=float)
        out["recon"] = float(np.mean(np.abs(preds["recon"].data.ravel() - y)))
    sup = supervised_nodes(g)
    if "logic" in preds:
        out["logic"] = float(np.mean(np.abs(preds["logic"].data.ravel()
                                            - labels.p1[sup])))
    if "trans" in preds:
        out["trans"] = float(np.mean(np.abs(preds["trans"].data.ravel()
                                            - labels.ptr[sup])))
    if "func" in preds:
        y = np.array([d for _, _, d in labels.f_pairs])
        out["func"] = float(np.mean(np.abs(preds["func"].data.ravel() - y)))
    if "ff_sim" in preds:
        y = np.array([s for _, _, s in labels.ffsim_pairs])
        out["ff_sim"] = float(np.mean(np.abs(preds["ff_sim"].data.ravel() - y)))
    if "flip" in preds:
        out["flip"] = float(np.mean(np.abs(preds["flip"].data - labels.flip)))
    return out


# --- training -----------------------------------------------------------------

@dataclass
class CircuitRecord:
    """One training example: a circuit, its workload, and its labels."""

    graph: CircuitGraph
    workload: Workload
    labels: LabelSet
    path: str = ""
    emb0: np.ndarray | None = None  # the (n, 3d) table of init_embeddings
    emb0_key: tuple | None = None  # the (dim, *seed, index) emb0 was drawn for
    schedule: dict | None = None

    def prepare(self, cfg: ModelConfig, seed, index: int):
        if self.schedule is None or self.schedule["reverse"] != cfg.reverse_layer:
            self.schedule = compile_schedule(self.graph, cfg.reverse_layer)
        key = (cfg.dim, *_seed_list(seed), index)
        if self.emb0_key != key:
            self.emb0 = init_embeddings(self.graph, self.workload, cfg.dim,
                                        seed=list(key[1:]))
            self.emb0_key = key
        return self


def load_dataset(path) -> list[CircuitRecord]:
    """Read a JSON-lines dataset; circuit paths resolve against the file's dir."""
    import os

    from .aiger import parse_aiger
    from .bench import parse_bench

    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            cpath, wl, _cfg, labels = LabelSet.from_json_record(line)
            full = os.path.normpath(os.path.join(base, cpath))
            with open(full) as cf:
                text = cf.read()
            g = parse_bench(text) if full.endswith(".bench") else parse_aiger(text)
            records.append(CircuitRecord(graph=g, workload=wl, labels=labels,
                                         path=full))
    return records


def forward_records(records: list[CircuitRecord], params: ParamStore,
                    cfg: ModelConfig):
    """One sweep over the disjoint union of prepared records.

    Returns the embedding tensors, each record's row offset in them, and
    the diagnostics of the merged sweep.
    """
    schedule = merge_schedules([r.schedule for r in records])
    emb = (records[0].emb0 if len(records) == 1
           else np.concatenate([r.emb0 for r in records]))
    offsets = np.cumsum([0] + [r.graph.n for r in records[:-1]])
    st, report = forward_tensors(params, emb, cfg, schedule=schedule)
    return st, [int(o) for o in offsets], report


def run_batch(records: list[CircuitRecord], params: ParamStore,
              cfg: ModelConfig) -> tuple[list[tuple[dict, dict]], ForwardReport]:
    """Per-record (predictions, losses) from one merged sweep."""
    st, offsets, report = forward_records(records, params, cfg)
    out = []
    for rec, off in zip(records, offsets):
        preds = predict_heads(rec.graph, st, params, rec.labels, offset=off)
        out.append((preds, task_losses(rec.graph, preds, rec.labels)))
    return out, report


def run_record(record: CircuitRecord, params: ParamStore, cfg: ModelConfig
               ) -> tuple[dict[str, Tensor], dict[str, Tensor], ForwardReport]:
    [(preds, losses)], report = run_batch([record], params, cfg)
    return preds, losses, report


def train(records: list[CircuitRecord], cfg: TrainConfig, log_fn=None,
          params: ParamStore | None = None, weights: dict | None = None
          ) -> tuple[ParamStore, list[dict]]:
    """Mini-batch training: one merged sweep and one backward per batch.

    By default it trains fresh parameters on the two-phase curriculum:
    phase 1 keeps the FF-similarity weight at zero; phase 2 enables all
    weights, and history rows name the phase.  ``params`` continues from a
    copy of existing parameters and ``weights`` fixes the task weights of
    every epoch.  Either way it runs both phases' epochs.  Records with
    flip labels get a flip head if the parameters lack one.  History rows
    carry per-task mean losses and prediction errors.
    """
    if not records:
        raise ValueError("empty dataset")
    mcfg = cfg.model_config()
    for i, rec in enumerate(records):
        rec.prepare(mcfg, cfg.seed, i)
    if params is None:
        params = init_params(cfg.dim, seed=cfg.seed,
                             reverse_layer=cfg.reverse_layer)
    else:
        params = params.clone()
    if "head.flip.w1" not in params and any(r.labels.flip is not None
                                            for r in records):
        add_reliability_head(params, cfg.dim, seed=cfg.seed)
    epochs = cfg.epochs_phase1 + cfg.epochs_phase2
    order_rng = np.random.default_rng([cfg.seed, 0x0E70])
    history = []
    for epoch in range(1, epochs + 1):
        phase = 1 if epoch <= cfg.epochs_phase1 else 2
        w = cfg.weights(phase) if weights is None else weights
        order = order_rng.permutation(len(records))
        sums = {t: 0.0 for t in TASKS}
        counts = {t: 0 for t in TASKS}
        pe_sums = {t: 0.0 for t in TASKS}
        for lo in range(0, len(order), cfg.batch_size):
            batch = [records[i] for i in order[lo:lo + cfg.batch_size]]
            params.zero_grads()
            results, _ = run_batch(batch, params, mcfg)
            total = None
            for rec, (preds, losses) in zip(batch, results):
                term = weighted_loss(losses, w)
                total = term if total is None else tz.add(total, term)
                pes = prediction_errors(rec.graph, preds, rec.labels)
                for t, l in losses.items():
                    if w.get(t, 0.0) != 0.0:
                        sums[t] += l.item()
                        pe_sums[t] += pes[t]
                        counts[t] += 1
            total.backward()
            params.scale_grads(1.0 / len(batch))
            tz.adam_step(params, cfg.lr)
        row = {"epoch": epoch}
        if weights is None:
            row["phase"] = phase
        for t in TASKS:
            if counts[t]:
                row[f"loss_{t}"] = sums[t] / counts[t]
                row[f"pe_{t}"] = pe_sums[t] / counts[t]
        history.append(row)
        if log_fn is not None:
            log_fn(row)
    return params, history


# Evaluation sweeps records in disjoint unions of at most this many nodes
# (a single larger record runs alone).  The cap trades time for memory, and
# its value is a point on that curve, not a tuned optimum: on 200
# paper-size circuits (43k nodes) at dim 64, one BLAS thread on a Xeon,
# unions of 1, 5k, 20k and 43k nodes evaluated in about 14, 5, 3.9 and
# 3.1 s and added 10, 29, 73 and 123 MB of peak RSS (twice that at dim 128).
EVAL_UNION_NODES = 20000


def _unions(records: list[CircuitRecord], cap: int):
    chunk, size = [], 0
    for rec in records:
        if chunk and size + rec.graph.n > cap:
            yield chunk
            chunk, size = [], 0
        chunk.append(rec)
        size += rec.graph.n
    if chunk:
        yield chunk


def evaluate(params: ParamStore, records: list[CircuitRecord],
             cfg: ModelConfig, seed: int = 0) -> dict:
    """Per-task average prediction error, per circuit and pooled."""
    per_circuit = []
    pooled_num = {t: 0.0 for t in TASKS}
    pooled_den = {t: 0 for t in TASKS}
    for i, rec in enumerate(records):
        rec.prepare(cfg, seed, i)
    for chunk in _unions(records, EVAL_UNION_NODES):
        with tz.no_grad():
            st, offsets, _ = forward_records(chunk, params, cfg)
            preds = [predict_heads(rec.graph, st, params, rec.labels, offset=off)
                     for rec, off in zip(chunk, offsets)]
        for rec, p in zip(chunk, preds):
            pes = prediction_errors(rec.graph, p, rec.labels)
            n_sup = len(supervised_nodes(rec.graph))
            sizes = {
                "recon": len(rec.labels.rc_pairs),
                "logic": n_sup,
                "trans": n_sup,
                "func": len(rec.labels.f_pairs),
                "ff_sim": len(rec.labels.ffsim_pairs),
                "flip": 0 if rec.labels.flip is None else len(rec.labels.flip),
            }
            per_circuit.append({"path": rec.path,
                                **{f"pe_{t}": v for t, v in pes.items()}})
            for t, v in pes.items():
                pooled_num[t] += v * sizes[t]
                pooled_den[t] += sizes[t]
    pooled = {f"pe_{t}": pooled_num[t] / pooled_den[t]
              for t in TASKS if pooled_den[t]}
    return {"per_circuit": per_circuit, "pooled": pooled}


def write_history(path, history: list[dict]):
    with open(path, "w") as f:
        for row in history:
            f.write(json.dumps(row) + "\n")
