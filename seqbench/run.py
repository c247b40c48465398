"""Benchmark of the seqcircuit toolkit, end to end and by layer.

Run from the root of a source checkout:

    python3 seqbench/run.py --workload label --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``; rounds of the same
operations repeat until ``--seconds`` are spent; the outputs of the last
round are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, plus the tracing overhead: untraced and traced rounds
alternate, starting with an untraced one.  End-to-end times are in reference
seconds, corrected for the machine's speed as ``workloads`` describes; the
line before the result gives the raw times, the probe times and the
correction.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import os
import sys

# One BLAS thread: the toolkit's matrices are small, and a second thread that
# waits for a CPU the host has lent elsewhere made the same 256 x 256 matmul
# loop take from 21 to 176 ms, against 27 to 41 ms on one thread.  Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def process_age() -> float:
    """Seconds since this process started, from the kernel's record of its
    start; falls back to the time since this module began to load."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_START


def import_toolkit():
    """Import seqcircuit from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqcircuit", "__init__.py")):
        raise SystemExit(f"seqcircuit sources not found under {src}")
    sys.path.insert(0, src)
    import seqcircuit

    if os.path.dirname(os.path.dirname(os.path.abspath(seqcircuit.__file__))) != src:
        raise SystemExit(f"seqcircuit imported from {seqcircuit.__file__}, not {src}")


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    import_toolkit()
    import workloads
    from spans import Tracer

    args = parse_args(argv)
    bench = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age()

    tracer = Tracer() if args.trace else None
    min_rounds = 2 if tracer else 1
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and bench.rounds % 2 == 1
        if traced:
            tracer.keep_args = bench.rounds == 1
            tracer.install()
        try:
            bench.run_round(traced)
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        if (bench.rounds >= min_rounds
                and elapsed + elapsed / bench.rounds > args.seconds):
            break
    peak_rss_mb = workloads.peak_rss_mb()

    problems = bench.check()
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if tracer is None:
        metrics = bench.end_to_end(setup_s * bench.scale(), peak_rss_mb)
    else:
        metrics = bench.per_layer(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": bench.rounds, "probes": len(bench.probes),
                      "scale": bench.scale(), "raw_setup_s": setup_s,
                      "raw_s": dict(bench.times), "raw_probe_s": bench.probes,
                      **bench.summary()}))
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
