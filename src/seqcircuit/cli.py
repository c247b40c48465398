"""Command-line surface.

Subcommands: gen, sim, label, train, eval, power, reliab, inspect.  Every
run writes a manifest (resolved config, seed, versions) beside its outputs,
and re-running a command from its manifest reproduces the outputs.

Config files are INI documents with one section per subcommand; flags
override file values.  The default config path comes from the
SEQCIRCUIT_CONFIG environment variable.  Boolean values are spelled
1/true/yes/on or 0/false/no/off.

Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from . import model as mdl
from . import power as pw
from . import reliability as rel
from .aiger import emit_aiger, parse_aiger
from .bench import parse_bench
from .circuit import CircuitError, GenSpec, generate, random_spec, validate
from .labels import build_labelset
from .schedule import plan_document
from .simulate import (SimConfig, SimulationError, Workload, check_seed,
                       exhaustive_stats, simulate, write_trace_file)
from .tensor import (CHECKPOINT_VERSION, NumericsError, load_checkpoint,
                     save_checkpoint)

USAGE_EXIT = 1
DATA_EXIT = 2

class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


class Logger:
    def __init__(self, json_logs: bool):
        self.json_logs = json_logs

    def __call__(self, event: str, **fields):
        if self.json_logs:
            sys.stderr.write(json.dumps({"event": event, **fields}) + "\n")
        else:
            parts = " ".join(f"{k}={v}" for k, v in fields.items())
            sys.stderr.write(f"[{event}] {parts}\n")
        sys.stderr.flush()


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def write_manifest(out_dir: str, command: str, cfg: dict):
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "versions": {"seqcircuit": __version__,
                     "checkpoint_format": CHECKPOINT_VERSION},
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}.manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _emit(cfg, command: str, text: str):
    """Write ``text`` to ``--out`` with the command's manifest beside it,
    or to stdout without ``--out``."""
    out = cfg.get("out")
    if out:
        with open(out, "w") as f:
            f.write(text)
        write_manifest(os.path.dirname(os.path.abspath(out)), command, cfg)
    else:
        sys.stdout.write(text)


def boolean(text: str) -> bool:
    """Parse 1/true/yes/on or 0/false/no/off, in any case."""
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_fn(kind):
    return boolean if kind is bool else kind


def load_config_file(path: str | None, section: str, options) -> dict:
    if path is None:
        path = os.environ.get("SEQCIRCUIT_CONFIG")
    if path is None:
        return {}
    if not os.path.exists(path):
        raise CircuitError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    if section not in parser:
        return {}
    kinds = {name: kind for name, kind, _ in options}
    out = {}
    for key, text in parser[section].items():
        if key not in kinds:
            raise CircuitError(f"unknown config key [{section}] {key}")
        try:
            out[key.replace("-", "_")] = _parse_fn(kinds[key])(text)
        except ValueError:
            raise CircuitError(
                f"bad value for [{section}] {key}: {text!r}") from None
    return out


def resolve_config(args: argparse.Namespace, file_vals: dict, options) -> dict:
    """Flags beat config file values beat defaults."""
    cfg = {}
    for name, _, default in options:
        key = name.replace("-", "_")
        flag = getattr(args, key)
        cfg[key] = flag if flag is not None else file_vals.get(key, default)
    return cfg


def _load_graph(cfg):
    if cfg.get("aig"):
        with open(cfg["aig"]) as f:
            return parse_aiger(f), cfg["aig"]
    if cfg.get("bench"):
        with open(cfg["bench"]) as f:
            return parse_bench(f), cfg["bench"]
    raise CircuitError("need --aig or --bench")


def _load_workload(g, cfg):
    if cfg.get("workload"):
        with open(cfg["workload"]) as f:
            w = Workload.from_json_dict(json.load(f))
        w.check(g)
        return w
    return Workload.random(g, cfg["workload_seed"])


# --- subcommands ----------------------------------------------------------------

def cmd_gen(cfg, log):
    check_seed("seed", cfg["seed"])
    # Checked before the corpus directory exists, so that a rejected option
    # writes nothing.
    for name, ok, want in (("n", cfg["n"] >= 1, ">= 1"),
                           ("mean_nodes", cfg["mean_nodes"] > 0, "> 0"),
                           ("std_nodes", cfg["std_nodes"] >= 0, ">= 0"),
                           ("feedback_prob", 0 <= cfg["feedback_prob"] <= 1,
                            "in [0, 1]")):
        if not ok:
            raise ValueError(f"{name} must be {want}, got {cfg[name]}")
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    summaries = []
    rng = np.random.default_rng([cfg["seed"], 0x636F72])
    for i in range(cfg["n"]):
        spec = random_spec(int(rng.integers(2 ** 62)),
                           mean_nodes=cfg["mean_nodes"],
                           std_nodes=cfg["std_nodes"],
                           feedback_prob=cfg["feedback_prob"])
        g, summary = generate(spec, return_summary=True)
        name = f"c{i:04d}.aag"
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(emit_aiger(g))
        summaries.append({"file": name, **summary})
        log("gen", circuit=name, nodes=g.n)
    with open(os.path.join(out_dir, "corpus_summary.json"), "w") as f:
        json.dump({"n_circuits": cfg["n"], "seed": cfg["seed"],
                   "circuits": summaries}, f, indent=2)
        f.write("\n")
    write_manifest(out_dir, "gen", cfg)
    return 0


def cmd_sim(cfg, log):
    g, _ = _load_graph(cfg)
    w = _load_workload(g, cfg)
    sim_cfg = SimConfig(n_patterns=cfg["patterns"], n_cycles=cfg["cycles"],
                        seed=cfg["seed"])
    if cfg.get("exact"):
        stats = exhaustive_stats(g, w, sim_cfg)
    else:
        stats = simulate(g, w, sim_cfg)
    doc = stats.to_json_dict(g)
    doc["workload"] = w.to_json_dict()
    _emit(cfg, "sim", json.dumps(doc, indent=2) + "\n")
    if cfg.get("saif"):
        duration = sim_cfg.n_patterns * sim_cfg.n_cycles
        with open(cfg["saif"], "w") as f:
            f.write(pw.export_saif(g, stats.p1, stats.ptr, duration))
    if cfg.get("trace"):
        if not stats.traces and cfg.get("exact"):
            raise SimulationError("exact statistics carry no traces")
        write_trace_file(cfg["trace"], stats)
    log("sim", nodes=g.n, patterns=sim_cfg.n_patterns)
    return 0


def cmd_label(cfg, log):
    corpus = cfg["corpus"]
    files = sorted(f for f in os.listdir(corpus)
                   if f.endswith(".aag") or f.endswith(".bench"))
    if not files:
        raise CircuitError(f"no circuits in {corpus}")
    sim_cfg = SimConfig(n_patterns=cfg["patterns"], n_cycles=cfg["cycles"],
                        seed=cfg["seed"])
    # Checked before the dataset is opened, so that a rejected option
    # writes nothing.
    sim_cfg.check()
    check_seed("workload_seed", cfg["workload_seed"])
    out = cfg["out"]
    with open(out, "w") as f:
        for i, name in enumerate(files):
            path = os.path.join(corpus, name)
            with open(path) as cf:
                g = (parse_bench(cf) if name.endswith(".bench")
                     else parse_aiger(cf))
            w = Workload.random(g, cfg["workload_seed"] + i)
            labels = build_labelset(
                g, w, replace(sim_cfg, seed=sim_cfg.seed + i),
                f_target=cfg["f_pairs"] if cfg["f_pairs"] >= 0 else None,
                ffsim_target=cfg["ffsim_pairs"] if cfg["ffsim_pairs"] >= 0 else None,
                seed=cfg["seed"] + i)
            relpath = os.path.relpath(path, os.path.dirname(os.path.abspath(out)))
            f.write(labels.to_json_record(relpath, w,
                                          replace(sim_cfg, seed=sim_cfg.seed + i)))
            f.write("\n")
            log("label", circuit=name, rc=len(labels.rc_pairs),
                f=len(labels.f_pairs), ffsim=len(labels.ffsim_pairs))
    write_manifest(os.path.dirname(os.path.abspath(out)), "label", cfg)
    return 0


def cmd_train(cfg, log):
    tcfg = mdl.TrainConfig(**{f.name: cfg[f.name]
                              for f in fields(mdl.TrainConfig)})
    records = mdl.load_dataset(cfg["dataset"])
    params, history = mdl.train(records, tcfg,
                                log_fn=lambda row: log("epoch", **row))
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _save_model(os.path.join(out_dir, "checkpoint.bin"), params,
                tcfg.model_config(), tcfg.seed)
    mdl.write_history(os.path.join(out_dir, "history.jsonl"), history)
    write_manifest(out_dir, "train", cfg)
    return 0


def _save_model(path, params, mcfg: mdl.ModelConfig, seed: int):
    # The checkpoint index is not key-sorted: keep "seed" second.
    extra = asdict(mcfg)
    save_checkpoint(path, params,
                    extra={"dim": extra.pop("dim"), "seed": seed, **extra})


def _model_config_from_extra(extra) -> tuple[mdl.ModelConfig, int]:
    known = {f.name for f in fields(mdl.ModelConfig)}
    cfg = mdl.ModelConfig(**{k: v for k, v in extra.items() if k in known})
    return cfg, int(extra.get("seed", 0))


def cmd_eval(cfg, log):
    records = mdl.load_dataset(cfg["dataset"])
    params, extra = load_checkpoint(cfg["checkpoint"])
    mcfg, seed = _model_config_from_extra(extra)
    report = mdl.evaluate(params, records, mcfg, seed=seed)
    _emit(cfg, "eval", json.dumps(report, indent=2) + "\n")
    log("eval", **report["pooled"])
    return 0


def cmd_power(cfg, log):
    g, _ = _load_graph(cfg)
    w = _load_workload(g, cfg)
    sim_cfg = SimConfig(n_patterns=cfg["patterns"], n_cycles=cfg["cycles"],
                        seed=cfg["seed"])
    pc = pw.PowerConfig(capacitance=cfg["capacitance"], vdd=cfg["vdd"],
                        freq_scale=cfg["freq_scale"])
    mask = pw.gate_output_mask(g)
    stats = simulate(g, w, sim_cfg)
    report = {"simulated_power": pw.power_estimate(stats.ptr, pc, mask),
              "masked_nodes": int(mask.sum())}
    if cfg.get("checkpoint"):
        params, extra = load_checkpoint(cfg["checkpoint"])
        mcfg, seed = _model_config_from_extra(extra)
        tr_hat = pw.predicted_transitions(params, g, w, mcfg, seed=seed)
        report["predicted_power"] = pw.power_estimate(tr_hat, pc, mask)
        report["rel_error"] = (abs(report["predicted_power"]
                                   - report["simulated_power"])
                               / max(report["simulated_power"], 1e-12))
    if cfg.get("saif"):
        duration = sim_cfg.n_patterns * sim_cfg.n_cycles
        with open(cfg["saif"], "w") as f:
            f.write(pw.export_saif(g, stats.p1, stats.ptr, duration))
    _emit(cfg, "power", json.dumps(report, indent=2) + "\n")
    log("power", **{k: v for k, v in report.items() if k != "per_workload"})
    return 0


def cmd_reliab(cfg, log):
    g, _ = _load_graph(cfg)
    w = _load_workload(g, cfg)
    fc = rel.FaultConfig(flip_prob=cfg["flip_prob"], n_patterns=cfg["patterns"],
                         n_cycles=cfg["cycles"], seed=cfg["seed"])
    if cfg.get("finetune"):
        # Checked before labelling, so that a rejected option writes nothing.
        if not cfg.get("checkpoint"):
            raise CircuitError("--finetune needs --checkpoint")
        if cfg["epochs"] < 1:
            raise ValueError(f"epochs must be >= 1, got {cfg['epochs']}")
        params, extra = load_checkpoint(cfg["checkpoint"])
        mcfg, seed = _model_config_from_extra(extra)
        tcfg = mdl.TrainConfig(**asdict(mcfg), lr=cfg["lr"], seed=seed)
    labels = rel.reliability_labels(g, w, fc)
    _emit(cfg, "reliab", labels.to_json_lines(g))
    log("reliab", mean_p01=float(labels.p01.mean()),
        mean_p10=float(labels.p10.mean()))
    if cfg.get("finetune"):
        tuned, history = rel.finetune_reliability(params, g, w, labels, tcfg,
                                                  epochs=cfg["epochs"])
        log("reliab_finetune", final_pe=history[-1]["pe_flip"])
        if cfg.get("finetune_out"):
            _save_model(cfg["finetune_out"], tuned, mcfg, seed)
    return 0


def cmd_inspect(cfg, log):
    g, path = _load_graph(cfg)
    doc = {}
    if cfg.get("graph") or not cfg.get("plan"):
        doc["graph"] = {
            "file": path, "counts": g.counts(), "outputs": list(g.pos),
            "violations": [str(v) for v in validate(g)],
        }
    if cfg.get("plan"):
        doc["plan"] = plan_document(g)
    _emit(cfg, "inspect", json.dumps(doc, indent=2) + "\n")
    return 0


# --- argument plumbing -----------------------------------------------------------

# Every option of every subcommand is one (name, type, default) entry.  It
# yields the flag --name and the config-file key name; the resolved config
# key is name with "_" for "-".  A bool that defaults to False is a switch.

GRAPH = [("aig", str, ""), ("bench", str, "")]
WORKLOAD_SEED = ("workload-seed", int, 0)
SIM = [("patterns", int, 1000), ("cycles", int, 100), ("seed", int, 0)]
STIMULUS = GRAPH + [("workload", str, ""), WORKLOAD_SEED] + SIM

COMMANDS = {
    "gen": (cmd_gen, "generate a random circuit corpus", [
        ("n", int, 10), ("seed", int, 0), ("out", str, "corpus"),
        ("mean-nodes", float, 214.35), ("std-nodes", float, 92.63),
        ("feedback-prob", float, 0.5)]),
    "sim": (cmd_sim, "simulate a circuit under a workload", STIMULUS + [
        ("out", str, ""), ("saif", str, ""), ("trace", str, ""),
        ("exact", bool, False)]),
    "label": (cmd_label, "build a labeled dataset from a corpus", [
        ("corpus", str, "corpus"), ("out", str, "dataset.jsonl"), *SIM,
        ("f-pairs", int, -1), ("ffsim-pairs", int, -1), WORKLOAD_SEED]),
    "train": (cmd_train, "train the model on a dataset", [
        ("dataset", str, "dataset.jsonl"), ("out-dir", str, "run"),
        ("seed", int, 0), ("dim", int, 128), ("batch-size", int, 16),
        ("lr", float, 1e-4), ("epochs-phase1", int, 40),
        ("epochs-phase2", int, 40), ("reverse-layer", bool, True),
        ("cycle-max-iters", int, 3), ("w-recon", float, 1.0),
        ("w-logic", float, 1.0), ("w-trans", float, 1.0),
        ("w-func", float, 1.0), ("w-ff-sim", float, 1.0)]),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset", [
        ("dataset", str, "dataset.jsonl"),
        ("checkpoint", str, "run/checkpoint.bin"), ("out", str, "")]),
    "power": (cmd_power, "estimate dynamic power", STIMULUS + [
        ("checkpoint", str, ""), ("capacitance", float, 1.0),
        ("vdd", float, 1.0), ("freq-scale", float, 1.0), ("out", str, ""),
        ("saif", str, "")]),
    "reliab": (cmd_reliab, "fault-injection labels and fine-tuning",
               STIMULUS + [("flip-prob", float, 0.0005), ("out", str, ""),
                           ("checkpoint", str, ""), ("finetune", bool, False),
                           ("epochs", int, 50), ("lr", float, 1e-4),
                           ("finetune-out", str, "")]),
    "inspect": (cmd_inspect, "dump graph facts or the propagation plan",
                GRAPH + [("plan", bool, False), ("graph", bool, False),
                         ("out", str, "")]),
}


def build_parser() -> CliParser:
    p = CliParser(prog="seqcircuit",
                  description="Sequential netlist learning toolkit")
    p.add_argument("--version", action="version",
                   version=f"seqcircuit {__version__} "
                           f"(checkpoint format v{CHECKPOINT_VERSION})")
    p.add_argument("--config", help="INI config file (or $SEQCIRCUIT_CONFIG)")
    p.add_argument("--json-logs", action="store_true",
                   help="stream progress as JSON lines on stderr")
    sub = p.add_subparsers(dest="command")
    for command, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, kind, default in options:
            if kind is bool and not default:
                sp.add_argument(f"--{name}", action="store_const", const=True)
            else:
                sp.add_argument(f"--{name}", type=_parse_fn(kind))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    run, _, options = COMMANDS[args.command]
    try:
        file_vals = load_config_file(args.config, args.command, options)
        return run(resolve_config(args, file_vals, options),
                   Logger(args.json_logs))
    except (CircuitError, SimulationError, NumericsError, pw.PowerError,
            OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
