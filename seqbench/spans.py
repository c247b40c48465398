"""Span tracing of the toolkit's layers, installed from outside the toolkit.

Every traced function is replaced by a wrapper in its defining module and
under every other module-level name bound to the same object (for example
``labels.simulate`` as well as ``simulate.simulate``), so that each caller's
lookup finds the wrapper.  Spans (name, start, end, parent) stay in memory
until the run ends.  A function that no longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

import numpy as np

PACKAGE = "seqcircuit"

# (module, attribute path) of every wrapped function, by layer.
TRACED = [
    ("aiger", "parse_aiger"),
    ("bench", "parse_bench"),
    ("schedule", "levelize"),
    ("schedule", "detect_cycles"),
    ("simulate", "simulate"),
    ("simulate", "compiled_order"),
    ("labels", "build_labelset"),
    ("labels", "sample_f_pairs"),
    ("labels", "eligible_f_pairs"),
    ("labels", "truth_table_distance"),
    ("labels", "support_masks"),
    ("labels", "sample_ffsim_pairs"),
    ("labels", "reconvergence_pairs"),
    ("model", "compile_schedule"),
    ("model", "forward_tensors"),
    ("model", "predict_heads"),
    ("model", "task_losses"),
    ("model", "train"),
    ("model", "evaluate"),
    ("tensor", "Tensor.backward"),
    ("tensor", "adam_step"),
    ("tensor", "gru_cell"),
    ("tensor", "attn_aggregate_groups"),
    ("tensor", "concat_cols"),
    ("tensor", "take_rows"),
    ("tensor", "set_rows"),
    ("tensor", "mlp3"),
    ("power", "predicted_transitions"),
    ("power", "power_estimate"),
    ("power", "export_saif"),
    ("power", "read_saif"),
    ("reliability", "reliability_labels"),
    ("reliability", "predict_flip_rates"),
    ("reliability", "finetune_reliability"),
]

# Functions whose peak traced allocation is measured: every call of the
# first traced round is made once more after the timed rounds, under
# tracemalloc, so that tracemalloc does not slow the spans.
PEAK_MEASURED = ("power.predicted_transitions",
                 "reliability.reliability_labels")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def tape_size(loss) -> int:
    """Tensors reachable from ``loss`` through ``parents``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _schedule_groups(schedule) -> tuple[int, int, list[int]]:
    fwd = sum(len(groups) for groups in schedule["fwd"])
    rev = sum(len(groups) for groups in schedule["rev"])
    regions = [sum(len(groups) for groups in levels)
               for levels in schedule["regions"]]
    return fwd, rev, regions


class Tracer:
    """Wraps the traced functions and keeps spans plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.peak_args: dict[str, list[tuple]] = {}
        self.last_schedule = None
        self.keep_args = False
        self._patches: list[tuple[object, str, object, object]] = []
        self._originals: dict[str, object] = {}

    # --- installation ----------------------------------------------------

    def prepare(self):
        """Build the wrappers and find every name bound to each function."""
        for module, attr in TRACED:
            name = span_name(module, attr)
            try:
                owner = _module(module)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._originals[name] = fn
            wrapper = self._wrap(name, fn)
            self._patches.append((owner, leaf, fn, wrapper))
            if outer:
                continue  # methods are looked up on the class only
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith(PACKAGE):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn, wrapper))

    def install(self):
        if not self._patches:
            self.prepare()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn, _ in self._patches:
            setattr(owner, key, fn)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        keep_args = name in PEAK_MEASURED
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            if keep_args and self.keep_args:
                self.peak_args.setdefault(name, []).append((args, kwargs))
            span = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(span)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    # --- counters taken at the boundaries --------------------------------

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_simulate_simulate(self, args, kwargs, out):
        g = args[0]
        self.count("simulate.node_evals", g.n * out.n_patterns * out.n_cycles)

    def _on_labels_eligible_f_pairs(self, args, kwargs, out):
        self.count("labels.eligible_f_pairs", len(out))

    def _on_labels_sample_f_pairs(self, args, kwargs, out):
        self.count("labels.f_pairs", len(out))

    def _on_labels_sample_ffsim_pairs(self, args, kwargs, out):
        self.count("labels.ffsim_skipped", out[1])

    def _on_schedule_levelize(self, args, kwargs, out):
        self.count("schedule.levels", len(out.levels))
        self.count("schedule.cyclic_regions", len(out.cyclic_regions))

    def _on_model_compile_schedule(self, args, kwargs, out):
        self.last_schedule = out

    def _on_model_forward_tensors(self, args, kwargs, out):
        schedule = kwargs.get("schedule")
        if schedule is None and len(args) > 5:
            schedule = args[5]
        if schedule is None:
            schedule = self.last_schedule
        report = out[1]
        fwd, rev, regions = _schedule_groups(schedule)
        iters = list(report.region_iters)
        self.count("model.node_groups",
                   fwd + rev + sum(g * k for g, k in zip(regions, iters)))
        self.count("model.region_iters", sum(iters))

    def _pre_tensor_Tensor_backward(self, args, kwargs):
        self.count("tensor.backward_losses")
        self.count("tensor.tape_nodes_total", tape_size(args[0]))

    # --- results -----------------------------------------------------------

    def measure_peaks(self) -> dict[str, float]:
        """Largest peak traced allocation (MB) over the recorded calls."""
        peaks = {}
        for name, calls in self.peak_args.items():
            for args, kwargs in calls:
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    self._originals[name](*args, **kwargs)
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                finally:
                    tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), peak)
        return peaks

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Total seconds, self seconds and calls per traced function."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = (np.asarray(self.span_end, dtype=np.float64)
               - np.asarray(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {n: {"s": float(total[i]), "self_s": float(own[i]),
                    "calls": int(calls[i])}
                for i, n in enumerate(self.names)}

    def metrics(self, rounds: int, overhead: float) -> dict:
        """Per-layer metrics per traced round: seconds, self seconds and
        calls of every traced function (zero when the workload does not
        reach it), the counters taken at the boundaries, peak allocations,
        and the tracing overhead as a share of an untraced round's time."""
        totals = self.layer_totals()
        none = {"s": 0.0, "self_s": 0.0, "calls": 0}
        out = {}
        for module, attr in TRACED:
            name = span_name(module, attr)
            t = totals.get(name, none)
            out[f"{name}.s"] = (t["s"] / rounds, "s")
            out[f"{name}.self_s"] = (t["self_s"] / rounds, "s")
            out[f"{name}.calls"] = (t["calls"] / rounds, "count")
        c = self.counters
        sim_s = totals.get("simulate.simulate", none)["s"]
        out["simulate.node_evals_per_s"] = (
            c.get("simulate.node_evals", 0) / sim_s if sim_s else 0.0, "1/s")
        for key in ("labels.eligible_f_pairs", "labels.f_pairs",
                    "labels.ffsim_skipped", "schedule.levels",
                    "schedule.cyclic_regions", "model.node_groups",
                    "model.region_iters"):
            out[key] = (c.get(key, 0) / rounds, "count")
        built = c.get("labels.eligible_f_pairs", 0)
        out["labels.f_pairs_useful_ratio"] = (
            c.get("labels.f_pairs", 0) / built if built else 0.0, "1")
        losses = c.get("tensor.backward_losses", 0)
        out["tensor.tape_nodes"] = (
            c.get("tensor.tape_nodes_total", 0) / losses if losses else 0.0, "count")
        peaks = self.measure_peaks()
        for name in PEAK_MEASURED:
            out[f"{name}.peak_mb"] = (peaks.get(name, 0.0), "MB")
        out["trace.overhead"] = (overhead, "1")
        return out

    def write(self, path: str):
        """Spans as arrays: name table, name index, start, end, parent."""
        np.savez(path, names=np.array(self.names),
                 name=np.asarray(self.span_name, dtype=np.int32),
                 start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent, dtype=np.int64))
