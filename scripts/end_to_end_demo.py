#!/usr/bin/env python3
"""Desk-scale end-to-end run: corpus -> labels -> training -> evaluation.

Writes everything under an output directory (default ./demo_run) and prints
per-epoch metrics plus the final pooled prediction errors.
"""
import argparse
import json
import os
import sys
import time

import numpy as np

import seqcircuit as sq
from seqcircuit import model as mdl
from seqcircuit.labels import build_labelset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_run")
    ap.add_argument("--circuits", type=int, default=12)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=30,
                    help="per curriculum phase")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    t0 = time.time()
    records = []
    for i in range(args.circuits):
        spec = sq.random_spec(int(rng.integers(2 ** 62)), mean_nodes=60,
                              std_nodes=15, feedback_prob=0.5)
        g = sq.generate(spec)
        with open(os.path.join(args.out, f"c{i:03d}.aag"), "w") as f:
            f.write(sq.emit_aiger(g))
        w = sq.Workload.random(g, int(rng.integers(2 ** 62)))
        labels = build_labelset(g, w, sq.SimConfig(500, 60, args.seed + i),
                                seed=args.seed + i)
        records.append(mdl.CircuitRecord(graph=g, workload=w, labels=labels,
                                         path=f"c{i:03d}.aag"))
        print(f"labeled c{i:03d}: {g.n} nodes, "
              f"{len(labels.rc_pairs)} rc / {len(labels.f_pairs)} f / "
              f"{len(labels.ffsim_pairs)} ffsim pairs")
    print(f"dataset built in {time.time() - t0:.1f}s")

    cfg = mdl.TrainConfig(dim=args.dim, epochs_phase1=args.epochs,
                          epochs_phase2=args.epochs, lr=1e-3,
                          batch_size=4, seed=args.seed)
    t0 = time.time()
    params, history = mdl.train(
        records, cfg,
        log_fn=lambda row: print("  " + json.dumps(row)) if
        row["epoch"] % 10 == 0 else None)
    print(f"trained {len(history)} epochs in {time.time() - t0:.1f}s")
    mdl.write_history(os.path.join(args.out, "history.jsonl"), history)

    mcfg = cfg.model_config()
    mdl.save_model(os.path.join(args.out, "checkpoint.bin"), params, mcfg,
                   cfg.seed)

    report = mdl.evaluate(params, records, mcfg, seed=cfg.seed)
    print("pooled avg prediction error per task:")
    for task, value in sorted(report["pooled"].items()):
        print(f"  {task}: {value:.4f}")
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
