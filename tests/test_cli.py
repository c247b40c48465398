import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from seqcircuit import model as mdl
from seqcircuit.cli import (COMMANDS, _model_config_from_extra, boolean,
                            build_parser, load_config_file, main,
                            resolve_config)
from seqcircuit.power import read_saif
from seqcircuit.tensor import load_checkpoint, save_checkpoint


def run_cli(args, **kw):
    return main(args)


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


@pytest.fixture()
def corpus(tmp_path):
    out = str(tmp_path / "corpus")
    assert run_cli(["gen", "--n", "4", "--seed", "7", "--out", out,
                    "--mean-nodes", "40", "--std-nodes", "8"]) == 0
    return out


def test_gen_deterministic_bytes(tmp_path):
    import shutil

    out = str(tmp_path / "corpus")
    args = ["gen", "--n", "3", "--seed", "5", "--out", out,
            "--mean-nodes", "30", "--std-nodes", "5"]
    assert run_cli(args) == 0
    first = read_tree(out)
    shutil.rmtree(out)
    assert run_cli(args) == 0
    assert read_tree(out) == first


@pytest.mark.parametrize("flag, value, field", [
    ("n", "0", "n"), ("n", "-3", "n"),
    ("mean-nodes", "0", "mean_nodes"), ("mean-nodes", "nan", "mean_nodes"),
    ("std-nodes", "-1", "std_nodes"),
    ("feedback-prob", "-0.1", "feedback_prob"),
    ("feedback-prob", "1.5", "feedback_prob")])
def test_gen_rejects_out_of_range_option(tmp_path, capsys, flag, value, field):
    # The options are checked before the corpus directory is made.
    out = tmp_path / "corpus"
    assert main(["gen", "--out", str(out), "--mean-nodes", "30",
                 f"--{flag}", value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()


def test_gen_writes_summary_and_manifest(corpus):
    files = sorted(os.listdir(corpus))
    assert "corpus_summary.json" in files
    assert "gen.manifest.json" in files
    with open(os.path.join(corpus, "corpus_summary.json")) as f:
        summary = json.load(f)
    assert summary["n_circuits"] == 4
    aags = [f for f in files if f.endswith(".aag")]
    assert len(aags) == 4


@pytest.mark.filterwarnings("ignore:unnamed nodes")
def test_sim_saif_duration(tmp_path, corpus):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    saif = str(tmp_path / "out.saif")
    stats = str(tmp_path / "stats.json")
    code = run_cli(["sim", "--aig", aag, "--workload-seed", "3",
                    "--patterns", "50", "--cycles", "20", "--seed", "1",
                    "--out", stats, "--saif", saif])
    assert code == 0
    duration, nets = read_saif(open(saif).read())
    assert duration == 50 * 20
    with open(stats) as f:
        doc = json.load(f)
    assert doc["n_patterns"] == 50
    assert len(doc["nodes"]) > 0


def test_sim_exact_mode(tmp_path, corpus):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    out = str(tmp_path / "exact.json")
    code = run_cli(["sim", "--aig", aag, "--workload-seed", "3", "--exact",
                    "--patterns", "50", "--cycles", "20", "--out", out])
    assert code == 0


def test_sim_with_workload_file(tmp_path, corpus):
    from seqcircuit import Workload, parse_aiger

    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    with open(aag) as f:
        g = parse_aiger(f)
    w = Workload.random(g, 11)
    wpath = str(tmp_path / "w.json")
    with open(wpath, "w") as f:
        json.dump(w.to_json_dict(), f)
    out = str(tmp_path / "s.json")
    assert run_cli(["sim", "--aig", aag, "--workload", wpath,
                    "--patterns", "40", "--cycles", "15", "--out", out]) == 0
    with open(out) as f:
        doc = json.load(f)
    assert doc["workload"] == w.to_json_dict()


def test_label_train_eval_pipeline(tmp_path, corpus):
    dataset = str(tmp_path / "data.jsonl")
    assert run_cli(["label", "--corpus", corpus, "--out", dataset,
                    "--patterns", "60", "--cycles", "20", "--seed", "2",
                    "--f-pairs", "12", "--ffsim-pairs", "4"]) == 0
    with open(dataset) as f:
        lines = [l for l in f if l.strip()]
    assert len(lines) == 4

    run_dir = str(tmp_path / "run")
    assert run_cli(["train", "--dataset", dataset, "--out-dir", run_dir,
                    "--dim", "8", "--epochs-phase1", "2",
                    "--epochs-phase2", "2", "--lr", "0.002",
                    "--batch-size", "2", "--seed", "3"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    assert os.path.exists(ckpt)
    with open(os.path.join(run_dir, "history.jsonl")) as f:
        history = [json.loads(l) for l in f]
    assert len(history) == 4
    assert "loss_ff_sim" not in history[0]

    report = str(tmp_path / "report.json")
    assert run_cli(["eval", "--dataset", dataset, "--checkpoint", ckpt,
                    "--out", report]) == 0
    with open(report) as f:
        doc = json.load(f)
    assert set(doc["pooled"]) == {"pe_recon", "pe_logic", "pe_trans",
                                  "pe_func", "pe_ff_sim"}
    assert len(doc["per_circuit"]) == 4


def test_power_command(tmp_path, corpus):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    out = str(tmp_path / "power.json")
    assert run_cli(["power", "--aig", aag, "--workload-seed", "5",
                    "--patterns", "80", "--cycles", "25", "--out", out]) == 0
    with open(out) as f:
        doc = json.load(f)
    assert 0.0 <= doc["simulated_power"] <= 0.5
    assert doc["masked_nodes"] > 0


def test_reliab_command(tmp_path, corpus):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    out = str(tmp_path / "flips.jsonl")
    assert run_cli(["reliab", "--aig", aag, "--workload-seed", "5",
                    "--flip-prob", "0.01", "--patterns", "50",
                    "--cycles", "20", "--out", out]) == 0
    with open(out) as f:
        rows = [json.loads(l) for l in f if l.strip()]
    assert all(0.0 <= r["p01"] <= 1.0 for r in rows)


def test_inspect_plan(tmp_path, corpus, capsys):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    assert run_cli(["inspect", "--aig", aag, "--plan", "--graph"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "plan" in doc and "graph" in doc
    assert doc["graph"]["violations"] == []


# The full ``inspect --plan`` documents of two circuits: ``ff_fed_by_ff``
# of test_schedule.py (ids 0..4 are pi, f1, f2, g1, g2) and the 3-bit
# accumulator, whose bits' FFs are nodes 4, 5 and 6.
FF_FED_BY_FF_PLAN = {
    "levels": [[0], [2, 3], [4], [1]],
    "ff_update_points": [2, 1],
    "cyclic_regions": [{"ffs": [1, 2], "nodes": [1, 2, 3, 4],
                        "internal_levels": [[2, 3], [4], [1]]}],
}
ACCUMULATOR_3_PLAN = {
    "levels": [[0, 1, 2, 3],
               [7, 8, 11, 15, 21, 25, 26, 29, 38, 42, 43, 46, 55],
               [9, 12, 22, 27, 30, 39, 44, 47, 56], [10, 28, 45],
               [13, 31, 48], [14, 17, 32, 49], [16, 19], [18, 23],
               [20, 24, 33], [4, 34, 35], [36], [37, 40], [5, 41, 50],
               [51, 52], [53], [54, 57], [6, 58]],
    "ff_update_points": [4, 5, 6],
    "cyclic_regions": [
        {"ffs": [4], "nodes": [4, 7, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20],
         "internal_levels": [[7, 11], [9, 12], [10], [13], [14, 17], [16, 19],
                             [18], [20], [4]]},
        {"ffs": [5], "nodes": [5, 25, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37],
         "internal_levels": [[25, 29], [27, 30], [28], [31], [32, 34], [33, 36],
                             [35], [37], [5]]},
        {"ffs": [6], "nodes": [6, 42, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54],
         "internal_levels": [[42, 46], [44, 47], [45], [48], [49, 51], [50, 53],
                             [52], [54], [6]]},
    ],
}


@pytest.mark.parametrize("name", ["ff_fed_by_ff", "accumulator_3"])
def test_inspect_plan_document(tmp_path, capsys, name):
    from seqcircuit import emit_aiger
    from tests.conftest import accumulator_bench
    from tests.test_schedule import ff_fed_by_ff

    if name == "ff_fed_by_ff":
        path, flag, want = tmp_path / "c.aag", "--aig", FF_FED_BY_FF_PLAN
        path.write_text(emit_aiger(ff_fed_by_ff()[0]))
    else:
        path, flag, want = tmp_path / "c.bench", "--bench", ACCUMULATOR_3_PLAN
        path.write_text(accumulator_bench(3))
    assert run_cli(["inspect", flag, str(path), "--plan"]) == 0
    assert capsys.readouterr().out == json.dumps({"plan": want}, indent=2) + "\n"


def test_inspect_out_writes_manifest(tmp_path, corpus):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    out = tmp_path / "inspect" / "doc.json"
    out.parent.mkdir()
    assert run_cli(["inspect", "--aig", aag, "--plan", "--out", str(out)]) == 0
    assert sorted(os.listdir(out.parent)) == ["doc.json", "inspect.manifest.json"]
    manifest = json.loads((out.parent / "inspect.manifest.json").read_text())
    assert manifest["command"] == "inspect" and manifest["config"]["plan"]
    assert "plan" in json.loads(out.read_text())


def test_inspect_empty_bench_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.bench"
    empty.write_text("# no statements\n")
    assert run_cli(["inspect", "--bench", str(empty)]) == 2
    assert "no nets" in capsys.readouterr().err


def test_manifest_reproducibility(tmp_path):
    # Re-running gen from the manifest's stored config reproduces the corpus.
    a = str(tmp_path / "a")
    assert run_cli(["gen", "--n", "2", "--seed", "9", "--out", a,
                    "--mean-nodes", "25", "--std-nodes", "4"]) == 0
    with open(os.path.join(a, "gen.manifest.json")) as f:
        manifest = json.load(f)
    cfg = manifest["config"]
    b = str(tmp_path / "b")
    args = ["gen", "--n", str(cfg["n"]), "--seed", str(cfg["seed"]),
            "--out", b, "--mean-nodes", str(cfg["mean_nodes"]),
            "--std-nodes", str(cfg["std_nodes"]),
            "--feedback-prob", str(cfg["feedback_prob"])]
    assert run_cli(args) == 0
    ta, tb = read_tree(a), read_tree(b)
    for skip in ("gen.manifest.json",):
        ta.pop(skip), tb.pop(skip)
    assert ta == tb


def test_inputs_not_mutated(tmp_path, corpus):
    before = read_tree(corpus)
    dataset = str(tmp_path / "d.jsonl")
    run_cli(["label", "--corpus", corpus, "--out", dataset,
             "--patterns", "30", "--cycles", "10", "--f-pairs", "5",
             "--ffsim-pairs", "2"])
    after = read_tree(corpus)
    for name in before:
        if name.endswith(".aag"):
            assert before[name] == after[name]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "seqcircuit.cli", "gen", "--n", "abc"],
        capture_output=True)
    assert proc.returncode == 1


def test_data_error_exit_code(tmp_path):
    missing = str(tmp_path / "missing.aag")
    assert main(["sim", "--aig", missing]) == 2


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "seqcircuit.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "seqcircuit" in proc.stdout
    assert "checkpoint format" in proc.stdout


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gen]\nn = 2\nseed = 4\nmean-nodes = 28\nstd-nodes = 3\n")
    out = str(tmp_path / "from_cfg")
    assert main(["--config", str(cfg), "gen", "--out", out]) == 0
    files = [f for f in os.listdir(out) if f.endswith(".aag")]
    assert len(files) == 2  # n came from the config file
    out2 = str(tmp_path / "cli_override")
    assert main(["--config", str(cfg), "gen", "--out", out2, "--n", "3"]) == 0
    files2 = [f for f in os.listdir(out2) if f.endswith(".aag")]
    assert len(files2) == 3  # flag beats config file


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[gen]\nbogus = 1\n")
    assert main(["--config", str(cfg), "gen", "--out",
                 str(tmp_path / "x")]) == 2


def test_env_var_config(tmp_path, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text("[gen]\nn = 1\nmean-nodes = 22\nstd-nodes = 2\n")
    monkeypatch.setenv("SEQCIRCUIT_CONFIG", str(cfg))
    out = str(tmp_path / "envout")
    assert main(["gen", "--out", out, "--seed", "2"]) == 0
    assert len([f for f in os.listdir(out) if f.endswith(".aag")]) == 1


def test_json_logs(tmp_path, capsys):
    out = str(tmp_path / "c")
    assert main(["--json-logs", "gen", "--n", "1", "--out", out,
                 "--mean-nodes", "22", "--std-nodes", "2"]) == 0
    err = capsys.readouterr().err
    rows = [json.loads(l) for l in err.splitlines() if l.strip()]
    assert any(r.get("event") == "gen" for r in rows)


def test_bad_bool_flag_is_usage_error(capsys):
    # An unrecognised spelling used to turn the reverse layer off silently.
    with pytest.raises(SystemExit) as exc:
        main(["train", "--reverse-layer", "ture"])
    assert exc.value.code == 1
    assert "--reverse-layer" in capsys.readouterr().err


@pytest.mark.parametrize("section, line, message", [
    ("train", "reverse-layer = yess",
     "error: bad value for [train] reverse-layer: 'yess'"),
    ("gen", "n = abc", "error: bad value for [gen] n: 'abc'"),
])
def test_bad_config_value_names_section_and_key(tmp_path, capsys, section,
                                                line, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    assert main(["--config", str(cfg), section]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("yes", True), ("On", True),
    ("0", False), ("false", False), ("No", False), ("off", False)])
def test_bool_spellings(text, value):
    assert boolean(text) is value


@pytest.mark.parametrize("argv", [
    ["--workers", "2", "sim"], ["inspect", "--workload-seed", "3"],
    ["inspect", "--workload", "w.json"], ["train", "--cycle-tol", "0.3"]])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("section", ["sim", "label"])
def test_workers_config_key_rejected(tmp_path, section):
    cfg = tmp_path / "w.ini"
    cfg.write_text(f"[{section}]\nworkers = 2\n")
    assert main(["--config", str(cfg), section]) == 2


def test_cycle_tol_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "t.ini"
    cfg.write_text("[train]\ncycle-tol = 0.3\n")
    assert main(["--config", str(cfg), "train"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("dim", "0", "dim"), ("dim", "-4", "dim"),
    ("batch-size", "0", "batch_size"),
    ("cycle-max-iters", "-1", "cycle_max_iters"),
    ("lr", "-1", "lr"), ("epochs-phase1", "-1", "epochs_phase1")])
def test_train_rejects_out_of_range_option(tmp_path, corpus, capsys, flag,
                                           value, field):
    dataset = str(tmp_path / "data.jsonl")
    assert run_cli(["label", "--corpus", corpus, "--out", dataset,
                    "--patterns", "30", "--cycles", "10", "--f-pairs", "4",
                    "--ffsim-pairs", "2"]) == 0
    capsys.readouterr()
    run_dir = tmp_path / "run"
    assert main(["train", "--dataset", dataset, "--out-dir", str(run_dir),
                 "--dim", "8", "--epochs-phase1", "1", "--epochs-phase2", "0",
                 f"--{flag}", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be"), err
    assert not run_dir.exists()


@pytest.mark.parametrize("flag, field, value", [
    pytest.param("epochs", "epochs", "-1", id="epochs-epochs"),
    pytest.param("lr", "lr", "-1", id="lr-lr"),
    # zero epochs would leave no history row to report
    pytest.param("epochs", "epochs", "0", id="epochs-zero")])
def test_reliab_finetune_rejects_negative_option(tmp_path, corpus, capsys,
                                                 flag, field, value):
    # The options are checked before labelling: nothing is written.
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    ckpt = str(tmp_path / "m.bin")
    save_checkpoint(ckpt, mdl.init_params(8, seed=1),
                    extra={"dim": 8, "seed": 1})
    out = tmp_path / "out" / "flips.jsonl"
    assert main(["reliab", "--aig", aag, "--workload-seed", "5",
                 "--patterns", "20", "--cycles", "5", "--finetune",
                 "--checkpoint", ckpt, f"--{flag}", value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()
    assert not (out.parent / "reliab.manifest.json").exists()


STIMULUS_RUN = ["--aig", "{aig}", "--patterns", "20", "--cycles", "5",
                "--out", "{out}"]


@pytest.mark.parametrize("argv, field", [
    pytest.param(["sim", *STIMULUS_RUN, "--seed", "-1"], "seed", id="sim"),
    pytest.param(["reliab", *STIMULUS_RUN, "--seed", "-1"], "seed",
                 id="reliab"),
    *[pytest.param([command, *STIMULUS_RUN, "--workload-seed", "-1"],
                   "workload_seed", id=f"{command}-workload-seed")
      for command in ("sim", "power", "reliab")],
    pytest.param(["label", "--corpus", "{corpus}", "--patterns", "20",
                  "--cycles", "5", "--out", "{out}", "--workload-seed", "-1"],
                 "workload_seed", id="label-workload-seed"),
    pytest.param(["gen", "--n", "2", "--out", "{out}", "--seed", "-1"],
                 "seed", id="gen"),
    pytest.param(["train", "--dataset", "{out}.jsonl", "--out-dir", "{out}",
                  "--seed", "-1"], "seed", id="train")])
def test_negative_seed_names_field(tmp_path, corpus, capsys, argv, field):
    aag = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    out = tmp_path / "out"
    assert main([a.format(aig=aag, corpus=corpus, out=out)
                 for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: {field} must be >= 0, got -1", err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("seed", "-2", "seed must be >= 0, got -2"),
    ("patterns", "0", "need n_patterns >= 1 and n_cycles >= 2")])
def test_label_checks_options_before_writing(tmp_path, corpus, capsys, flag,
                                             value, message):
    out = tmp_path / "out" / "data.jsonl"
    out.parent.mkdir()
    assert main(["label", "--corpus", corpus, "--out", str(out),
                 "--patterns", "20", "--cycles", "5", f"--{flag}", value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.parent.iterdir()) == []


def test_checkpoint_with_cycle_tol_loads(tmp_path, corpus):
    # Checkpoints written while the forward pass had a convergence
    # tolerance still carry it in their header.
    dataset = str(tmp_path / "data.jsonl")
    assert run_cli(["label", "--corpus", corpus, "--out", dataset,
                    "--patterns", "30", "--cycles", "10", "--f-pairs", "4",
                    "--ffsim-pairs", "2"]) == 0
    ckpt = str(tmp_path / "old.bin")
    save_checkpoint(ckpt, mdl.init_params(8, seed=1),
                    extra={"dim": 8, "seed": 1, "reverse_layer": True,
                           "cycle_tol": 1e-3, "cycle_max_iters": 2})
    mcfg, seed = _model_config_from_extra(load_checkpoint(ckpt)[1])
    assert (mcfg, seed) == (mdl.ModelConfig(dim=8, cycle_max_iters=2), 1)
    report = str(tmp_path / "report.json")
    assert run_cli(["eval", "--dataset", dataset, "--checkpoint", ckpt,
                    "--out", report]) == 0
    with open(report) as f:
        assert len(json.load(f)["per_circuit"]) == 4


SAMPLE = {int: "7", float: "0.25", str: "x.txt"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_and_config_key_agree(tmp_path, command):
    parser = build_parser()
    _, _, options = COMMANDS[command]
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = set(subparsers.choices[command]._option_string_actions)
    assert flags - {"-h", "--help"} == {f"--{name}" for name, _, _ in options}
    defaults = resolve_config(parser.parse_args([command]), {}, options)
    for name, kind, default in options:
        key = name.replace("-", "_")
        text = ("off" if default else "on") if kind is bool else SAMPLE[kind]
        switch = kind is bool and not default
        argv = [f"--{name}"] if switch else [f"--{name}", text]
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[{command}]\n{name} = {text}\n")
        by_flag = resolve_config(parser.parse_args([command, *argv]), {},
                                 options)
        by_file = resolve_config(parser.parse_args([command]),
                                 load_config_file(str(ini), command, options),
                                 options)
        assert by_flag == by_file, name
        assert type(by_flag[key]) is kind, name
        assert by_flag[key] != default, name
        assert {k: v for k, v in by_flag.items() if k != key} == \
            {k: v for k, v in defaults.items() if k != key}, name
