"""Run the benchmark over several seeds and record a baseline.

    python3 chevbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Run from the root of a git checkout.  For every workload it makes one
untraced run per seed and one traced run with the first seed, each through
``chevbench/run.py`` exactly as BENCHMARK.json states it, and prints for every
end-to-end metric the median and the spread: the distance between the first
and third quartile of the per-seed values, as a share of their median.  With
``--out`` it also writes everything as JSON, together with the Python
version, the processor count and the git revision it measured.
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

BENCHMARK = Path("BENCHMARK.json")


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _git(*args):
    try:
        return subprocess.run(["git"] + list(args), capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(spec, workload, seed, trace):
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(spec["run_seconds"]),
                                    "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s exited with %d" % (" ".join(argv), proc.returncode))
    return json.loads(lines[-1]), lines[:-1], wall


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chevbench/baseline.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else list(why)
    seeds = _seeds(args.seeds)
    record = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
              "git_revision": _git("rev-parse", "HEAD"),
              "src_tree": _git("rev-parse", "HEAD:src"),
              "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values, runs = {}, []
        for seed in seeds:
            result, _, wall = run_once(spec, name, seed, 0)
            runs.append({"seed": seed, "wall_s": wall, "attempted": result["attempted"],
                         "failed": result["failed"]})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        traced, lines, _ = run_once(spec, name, seeds[0], 1)
        row = {"why": why[name], "runs": runs,
               "end_to_end": {k: summarize(v, bounds[k]) for k, v in values.items()},
               "traced": {k: m["value"] for k, m in traced["metrics"].items()},
               "traced_parts": [line for line in lines if line.startswith("part ")]}
        record["workloads"][name] = row
        for metric, s in row["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  above a third of the bound"
            print("%-20s %-14s median %12.5g  spread %.4f  bound %.2f%s" % (
                name, metric, s["median"], s["spread"], s["bound"], flag), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
