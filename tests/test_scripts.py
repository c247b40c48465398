"""The example scripts run end to end at tiny sizes.

Each runs in its own process against the package under ``src/``, so a
public name the scripts use cannot disappear without a failing test.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_end_to_end_demo(tmp_path):
    out = run_script("end_to_end_demo.py",
                     ["--circuits", "2", "--dim", "8", "--epochs", "1",
                      "--out", "demo"], tmp_path)
    assert "trained 2 epochs" in out
    demo = tmp_path / "demo"
    history = [json.loads(line) for line in
               (demo / "history.jsonl").read_text().splitlines()]
    assert [row["epoch"] for row in history] == [1, 2]
    report = json.loads((demo / "report.json").read_text())
    assert len(report["per_circuit"]) == 2 and "pe_logic" in report["pooled"]
    assert (demo / "checkpoint.bin").stat().st_size > 0


def test_power_workload_study(tmp_path):
    out = run_script("power_workload_study.py",
                     ["--nodes", "120", "--train-workloads", "2",
                      "--held-out", "1", "--epochs", "1", "--dim", "8"],
                     tmp_path)
    assert "in-sample power error" in out
    assert "held-out workload 0" in out
