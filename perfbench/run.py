"""Training benchmark for latentalign: one workload per invocation.

    python3 perfbench/run.py --workload align-d32 --seed 0 --seconds 20 \\
        --trace 0

Run from the root of a source checkout (the library is imported from
``src``).  Each workload runs in fresh processes with single-threaded BLAS:
a prepare step, SETUP_PROBES processes that time set-up, and the measured
run.  Timings are scaled to a reference host by a calibration kernel timed
beside the workload (see host.py).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Work files go to
``.perfbench_out/`` and are removed, except the span trace of a traced run.
See perfbench/README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("align-d32", "sft-d64", "gradcheck")
SETUP_PROBES = 6
RUN_LIMIT_S = 170        # every child process must end within this
OUT_DIR = ".perfbench_out"


def _child(role: str, args, run_dir: str, deadline: float) -> dict:
    out = os.path.join(run_dir, f"{role}.json")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--out", out]
    # subprocess.run kills and reaps the child if it overruns
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "latentalign", "__init__.py")):
        print("perfbench: run from the root of a latentalign checkout "
              "(src/latentalign not found)", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        _child("prepare", args, run_dir, deadline)
        # half the probes before the run and half after, so set-up is
        # sampled under the host conditions of both ends of the run
        probes = [_child("probe", args, run_dir, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        res = _child("run", args, run_dir, deadline)
        probes += [_child("probe", args, run_dir, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        trace_file = os.path.join(run_dir, "trace.npz")
        if os.path.exists(trace_file):
            os.replace(trace_file, os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz"))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = dict(res["metrics"], setup_s=statistics.median(
        p["setup_s"] for p in probes))
    raw = dict(res["raw"], setup_s=statistics.median(
        p["raw_setup_s"] for p in probes))
    tally = res["tally"]
    units = _metric_units(args.trace)
    missing = [n for n in units if n not in measured]
    correct = not res["errors"] and not missing and tally["failed"] == 0
    failed_share = tally["failed"] / max(tally["attempted"], 1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally['passes']} timed passes, {tally['ops']} operations")
    for name, unit in units.items():
        if name in measured:
            print(f"  {name:<44} {measured[name]:>14.6g} {unit}")
    print(f"  {'failed_share':<44} {failed_share:>14.6g} "
          f"({tally['failed']}/{tally['attempted']})")
    print("  timings above are on the reference host; as measured here: "
          + ", ".join(f"{n}={v:.6g}" for n, v in raw.items()))
    for why in res["errors"] + [f"missing metric {n}" for n in missing]:
        print(f"  check failed: {why}")
    print("  provenance: " + json.dumps(res["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": measured[n], "unit": u}
                    for n, u in units.items() if n in measured}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
