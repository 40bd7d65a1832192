"""chevkern benchmark: exact-verification workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 chevbench/run.py --workload commutator-sweep --seed 1 --seconds 20 --trace 0

Workloads: commutator-sweep, group-words, algebra-structures, cli-reports
(see BENCHMARK.json for why each exists).  Every workload runs in a fresh
single-threaded interpreter with PYTHONHASHSEED fixed and ``src`` on the
path; nothing needs building.

With ``--trace 0`` the workload's sweep (its fixed list of checks) repeats
until at least ``--seconds`` have passed, and the end-to-end metrics are
printed: the sweep time (the sum of each check's median latency over the
sweeps), the median and 90th percentile check latency over every check run,
the set-up time (median over fresh interpreters) and the peak resident
memory.  Sweep, check and set-up times are paced: wall time divided by the
machine's momentary speed relative to a reference host, measured by a fixed
probe after every check and after set-up (see ``chevbench/worker.py``); the
wall times are printed as well.  With ``--trace 1`` the per-layer metrics of
one traced sweep are printed instead.
Every check is compared with its known answer; a wrong verdict or an
exception counts as failed and makes the exit code 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("commutator-sweep", "group-words", "algebra-structures", "cli-reports")
SETUP_RUNS = 11  # measured fresh interpreters, after one discarded warm-up
DEADLINE_S = 170


def _worker(args, env, timeout):
    proc = subprocess.run([sys.executable, "-m", "chevbench.worker"] + args,
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result, setup) -> dict:
    """The end-to-end metrics of an untraced worker result."""
    latencies_ms = [x * 1e3 for x in result["latencies_s"]]
    return {
        "sweep_s": {"value": result["sweep_s"], "unit": "s"},
        "check_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "check_p90_ms": {"value": statistics.quantiles(latencies_ms, n=10)[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chevbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chevkern" / "__init__.py").is_file():
        print("error: no chevkern sources under %s; run from the root of a checkout"
              % (root / "src"), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    started = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    print("workload %s seed %d seconds %g trace %d python %s nproc %s" % (
        args.workload, args.seed, args.seconds, args.trace,
        sys.version.split()[0], os.cpu_count()))
    setup, wall_setup = [], []
    if not args.trace:
        for run in range(SETUP_RUNS + 1):
            probe = _worker(["--workload", args.workload, "--setup-only"], env, remaining())
            if run:
                setup.append(probe["setup_s"])
                wall_setup.append(probe["wall_setup_s"])
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    result = _worker(run_args, env, remaining())

    attempted = len(result["latencies_s"])
    failed = result["failed"]
    for line in result["failures"]:
        print("FAILED " + line)
    print("checks %d per sweep, %d attempted, %d failed, failed_frac %.6f" % (
        result["checks_per_sweep"], attempted, failed, failed / attempted))

    if args.trace:
        metrics = result["layers"]
        for part, row in result["part_shares"].items():
            print("part %-12s %8.3f s  matmul share %.3f (self %.3f)  form share %.3f (self %.3f)"
                  % (part, row["check_s"], row["kernel.matmul.incl"], row["kernel.matmul.self"],
                     row["extensions.form.incl"], row["extensions.form.self"]))
        print("spans: %d written to %s" % (result["spans"], result["span_file"]))
    else:
        metrics = end_to_end(result, setup)
        sweeps = result["sweeps_s"]
        p90_s = metrics["check_p90_ms"]["value"] / 1e3
        print("sweeps: %d, paced %s s" % (len(sweeps), ", ".join("%.3f" % s for s in sweeps)))
        print("wall: %s s, pace %s" % (", ".join("%.3f" % s for s in result["wall_sweeps_s"]),
                                       ", ".join("%.3f" % p for p in result["paces"])))
        print("set-up runs: paced %s s, wall %s s" % (", ".join("%.4f" % s for s in setup),
                                                      ", ".join("%.4f" % s for s in wall_setup)))
        print("latency samples: %d checks, %d beyond p90" % (
            attempted, sum(1 for x in result["latencies_s"] if x > p90_s)))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
