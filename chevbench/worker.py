"""One measurement in a fresh interpreter; prints one JSON object.

    python3 -m chevbench.worker --workload NAME --setup-only
    python3 -m chevbench.worker --workload NAME --seed N --seconds S [--trace] [--smoke]

``run.py`` starts this module with PYTHONHASHSEED fixed and ``src`` on the
path, from the root of a checkout.  Without ``--trace`` it repeats the
workload's sweep until at least S seconds have passed and reports the sweep
time and every check's latency, all paced (see ``probe``).  With ``--trace``
it runs one untraced sweep, one sweep traced at span boundaries only (for the
shares of time inside a layer) and one fully traced sweep (for counts and
self times), and writes the spans of the last one under ``.chevbench/``.  ``--smoke`` runs the reduced workload
the benchmark's self-tests use.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import statistics
from fractions import Fraction
from pathlib import Path

from .workloads import WORKLOADS

SPAN_DIR = Path(".chevbench")
MAX_FAILURES_SHOWN = 5
# mean duration of one probe() on the reference host: 2 vCPUs of a shared
# x86-64 virtual machine, Python 3.11.7
PROBE_NOMINAL_S = 3.6e-4
PACE_WINDOW = 8  # probes on each side of a check that set its pace
# the layers that profiling suspected of dominating criteria 1 and 7
HYPOTHESES = ("kernel.matmul", "extensions.form")


def probe():
    """A fixed piece of pure-Python exact arithmetic that never touches chevkern.

    The host this benchmark was built on shares its processors with other
    machines' work, and how fast it runs Python swings by up to 70% from one
    tenth of a second to the next.  Timing this probe after
    every check measures that drift where it happens: a check's pace is the
    mean time of the probes around it over PROBE_NOMINAL_S, and dividing its
    wall time by its pace gives its paced time, the time it would have taken
    at the reference host's usual speed.  A change to chevkern cannot move
    the probe, so it moves paced times exactly as it moves wall times.  The
    garbage collector is held off during the probe, so that collections,
    whose cost depends on what chevkern keeps alive, fall inside the checks.
    """
    gc.disable()
    try:
        acc = Fraction(0)
        seen = {}
        for k in range(1, 120):
            acc += Fraction(k % 7, k % 5 + 1)
            seen[k] = acc
        return acc
    finally:
        gc.enable()


def run_sweep(checks, tracer=None, pace=False):
    """Run every check once; returns (latencies, failures, probe times).

    With ``pace`` a probe runs after every check, outside the timed checks.
    """
    latencies = []
    failures = []
    probes = []
    clock = time.perf_counter
    for index, check in enumerate(checks):
        t0 = clock()
        try:
            if tracer is None:
                ok = check.run() is True
            else:
                ok = tracer.run_check(index, check.kind, check.run) is True
            problem = None if ok else "verdict differs from the known answer"
        except Exception as exc:  # a raising check is a failed check
            problem = "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        latencies.append(t1 - t0)
        if problem is not None:
            failures.append("check %d (%s, %s): %s" % (index, check.kind, check.part, problem))
        if pace:
            probe()
            probes.append(clock() - t1)
    return latencies, failures, probes


def paced(latencies, probes):
    """Each latency divided by the pace of the probes around it."""
    out = []
    for i, latency in enumerate(latencies):
        near = probes[max(0, i - PACE_WINDOW):i + PACE_WINDOW + 1]
        out.append(latency * PROBE_NOMINAL_S * len(near) / sum(near))
    return out


def layer_metrics(tracer, light, wall, paced_s) -> dict:
    """Per-layer metrics from a fully traced sweep and a span-only sweep.

    ``wall`` and ``paced_s`` map "untraced", "light" and "full" to the time of
    that sweep; overheads compare paced times, shares use wall times.
    """
    from .trace import CLI_SUITES, HOT_CATEGORIES, SPAN_CATEGORIES

    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    only_self = ("extensions.group_setup", "extensions.splitness", "cli.render")
    for cat in SPAN_CATEGORIES + HOT_CATEGORIES:
        if cat in ("kernel.matrix_eq", "cli.report"):
            continue
        if cat not in only_self:
            out[cat + ".calls"] = (calls[cat], "count")
        out[cat + ".self_s"] = (self_s[cat], "s")
    out["chevalley.infer_constants.candidates"] = (tracer.candidates, "count")
    out["chevalley.infer_constants.hit_ratio"] = (
        tracer.hits / tracer.candidates if tracer.candidates else 0.0, "ratio")
    words = calls["steinberg.symbol_word"]
    out["steinberg.symbol_word.kept_ratio"] = (
        tracer.kept_letters / (18 * words) if words else 0.0, "ratio")
    for suite in CLI_SUITES:
        out["cli.suite.%s.self_s" % suite] = (self_s["cli.suite." + suite], "s")
    out["cli.report.records"] = (calls["cli.report"], "count")
    out["trace.overhead_ratio"] = (paced_s["full"] / paced_s["untraced"], "ratio")
    out["trace.span_overhead_ratio"] = (paced_s["light"] / paced_s["untraced"], "ratio")
    # inclusive shares of the span-only sweep, for the two profiling hypotheses
    for cat in HYPOTHESES:
        out[cat + ".share"] = (light.incl_s[cat] / wall["light"], "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def part_shares(light, full, checks) -> dict:
    """Matmul and form time as shares of the check time of each workload part.

    The inclusive share comes from the span-only sweep, whose spans are the
    least distorted by tracing; the self share (a span's time minus its child
    spans and the hot calls directly under it) from the fully traced sweep.
    """
    def totals(tracer, self_time):
        children = {}
        if self_time:
            for _, parent, _, _, start, end, _ in tracer.spans:
                children[parent] = children.get(parent, 0.0) + end - start
        rows = {}
        for sid, parent, check, name, start, end, hot_s in tracer.spans:
            row = rows.setdefault(checks[check].part,
                                  dict.fromkeys(("check_s",) + HYPOTHESES, 0.0))
            if parent is None:
                row["check_s"] += end - start
            elif name in row:
                row[name] += end - start - (children.get(sid, 0.0) + hot_s if self_time else 0.0)
        return rows

    incl, own = totals(light, False), totals(full, True)
    out = {}
    for part, row in sorted(incl.items()):
        out[part] = {"check_s": row["check_s"]}
        for name in HYPOTHESES:
            out[part][name + ".incl"] = row[name] / row["check_s"]
            out[part][name + ".self"] = own[part][name] / own[part]["check_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chevbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    setup, make_checks = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    ctx = setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        probes = []
        for _ in range(2 * PACE_WINDOW + 1):
            t1 = time.perf_counter()
            probe()
            probes.append(time.perf_counter() - t1)
        print(json.dumps({"setup_s": paced([setup_s], probes)[0], "wall_setup_s": setup_s}))
        return 0

    checks = make_checks(ctx, args.seed, smoke=args.smoke)
    result = {"setup_s": setup_s, "checks_per_sweep": len(checks)}
    if args.trace:
        from .trace import Tracer

        tracers = {"untraced": None, "light": Tracer(hot=False), "full": Tracer()}
        wall, paced_s, latencies, failures = {}, {}, [], []
        for name, tracer in tracers.items():
            if tracer is not None:
                tracer.install()
            try:
                lat, fails, probes = run_sweep(checks, tracer, pace=True)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None and not tracer.restored():
                failures.append("the tracer left a patched name behind")
            wall[name] = sum(lat)
            paced_s[name] = sum(paced(lat, probes))
            latencies += lat
            failures += fails
        full = tracers["full"]
        result["sweep_s"] = paced_s["untraced"]
        result["layers"] = layer_metrics(full, tracers["light"], wall, paced_s)
        result["part_shares"] = part_shares(tracers["light"], full, checks)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
        full.write_spans(span_file)
        result["span_file"] = str(span_file)
        result["spans"] = len(full.spans)
    else:
        per_check = [[] for _ in checks]  # paced latencies of each check, one per sweep
        sweeps, latencies, failures, paces, walls = [], [], [], [], []
        start = time.perf_counter()
        while True:
            lat, fails, probes = run_sweep(checks, pace=True)
            lat_paced = paced(lat, probes)
            for samples, x in zip(per_check, lat_paced):
                samples.append(x)
            sweeps.append(sum(lat_paced))
            latencies += lat_paced
            failures += fails
            paces.append(statistics.mean(probes) / PROBE_NOMINAL_S)
            walls.append(sum(lat))
            if time.perf_counter() - start >= args.seconds:
                break
        # a slow spell of the host lands on a few checks of one sweep, so the
        # sweep time is the sum of each check's median over the sweeps
        result["sweep_s"] = sum(statistics.median(s) for s in per_check)
        result["sweeps_s"] = sweeps
        result["wall_sweeps_s"] = walls
        result["paces"] = paces
    result["latencies_s"] = latencies
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_FAILURES_SHOWN]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["python"] = sys.version.split()[0]
    result["nproc"] = os.cpu_count()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
