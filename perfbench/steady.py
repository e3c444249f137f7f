#!/usr/bin/env python3
"""Steadiness mode: run each workload N times and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --out set1.json   # measure a set
    python3 perfbench/steady.py --seeds 11-20 --out set2.json
    python3 perfbench/steady.py --compare set1.json set2.json  # do the sets agree?

A set runs every chosen workload once per seed (seeds 1..N, or the list
given), untraced, for BENCHMARK.json's run_seconds, through run.py, and
prints for each end-to-end metric its median, first and third quartile
(statistics.quantiles, n=4) and spread = (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
"steady"; under the bound "loose"; otherwise "NOISY". setup_s is exempt
from the spread rule and only held to the comparison. Figures from the
benchmark's "detail" line (p90_ms where at least ten samples lie beyond
it, cpu_steal) are listed too.

--compare reads two sets and reports, for every workload and metric, how
far the second median moved from the first in the metric's worse
direction, as a share of the first; a move beyond the bound FAILS. It
refuses sets measured at different run lengths. It also prints each set's
median cpu_steal, the share of the machine's CPU time the hypervisor took
while ops ran. Where the two medians differ by more than STEAL_GAP, the
machine, not the code, may have moved the workload: its failures are
reported as INCONCLUSIVE and do not count.

Exit status: 1 if any metric is NOISY, any op failed or any comparison
FAILS; otherwise 2 if a comparison is INCONCLUSIVE; otherwise 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The largest gap between two sets' median cpu_steal for which --compare
# holds a workload to its bounds. A scale set with a median steal of 7.5%
# ran 23-25% slower than sets at about 1%, and within that set p50 rose
# with each run's steal share.
STEAL_GAP = 0.02


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(s):
    if "," in s or "-" in s:
        out = []
        for part in s.split(","):
            if "-" in part:
                lo, hi = part.split("-")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
        return out
    return list(range(1, int(s) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for k, v in detail.items():
        if k != "samples":
            values["detail." + k] = v
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return m, q1, q3, (q3 - q1) / m if m else float("inf")


def report_set(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload, rs in runs.items():
        failed = sum(r["failed"] for r in rs)
        print("%s: %d runs, %d failed ops, all correct: %s" %
              (workload, len(rs), failed, all(r["correct"] for r in rs)))
        if failed or not all(r["correct"] for r in rs):
            bad = True
        names = sorted({k for r in rs for k in r["values"]})
        print("  %-16s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name in names:
            vals = [r["values"][name] for r in rs if name in r["values"]]
            if len(vals) < 2:
                continue
            m, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            if bound is None:
                verdict = "(detail line, no bound)"
            elif name == "setup_s":
                verdict = "exempt"
            elif sp < bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "loose"
            else:
                verdict, bad = "NOISY", True
            print("  %-16s %12.4f %12.4f %12.4f %7.2f%% %6s  %s" %
                  (name, m, q1, q3, 100 * sp, "-" if bound is None else "%.2f" % bound, verdict))
    return bad


def median_steal(runs):
    vals = [r["values"]["detail.cpu_steal"] for r in runs if "detail.cpu_steal" in r["values"]]
    return statistics.median(vals) if vals else None


def compare(a, b, bench):
    """Returns 1 if a comparison fails, 2 if one is inconclusive, else 0."""
    if a["run_seconds"] != b["run_seconds"]:
        raise SystemExit("steady.py: the sets ran %s s and %s s per run; compare sets of one length" %
                         (a["run_seconds"], b["run_seconds"]))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    status = 0
    for workload in sorted(set(a["runs"]) & set(b["runs"])):
        ra, rb = a["runs"][workload], b["runs"][workload]
        sa, sb = median_steal(ra), median_steal(rb)
        comparable = sa is not None and sb is not None and abs(sb - sa) <= STEAL_GAP
        print("%s: median cpu_steal %s -> %s%s" % (
            workload, "?" if sa is None else "%.2f%%" % (100 * sa), "?" if sb is None else "%.2f%%" % (100 * sb),
            "" if comparable else "  (gap over %.0f%% or unknown: failures are inconclusive)" % (100 * STEAL_GAP)))
        for name, m in metrics.items():
            va = [r["values"][name] for r in ra if name in r["values"]]
            vb = [r["values"][name] for r in rb if name in r["values"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse <= m["bound"]:
                verdict = "ok"
            elif comparable:
                verdict, status = "FAIL", 1
            else:
                verdict, status = "INCONCLUSIVE", status or 2
            print("  %-16s %12.4f -> %12.4f  worse by %+7.2f%%  bound %.0f%%  %s" %
                  (name, ma, mb, 100 * worse, 100 * m["bound"], verdict))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="10", help="N for seeds 1..N, or a list like 11-20 or 3,5,8")
    ap.add_argument("--out", help="write the set's raw results to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saved sets")
    args = ap.parse_args()
    bench = load_benchmark()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return compare(sets[0], sets[1], bench)

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = {}
    for name in names:
        runs[name] = []
        for seed in parse_seeds(args.seeds):
            r = run_once(name, seed, seconds)
            runs[name].append(r)
            print("  %s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4g" % (k, v) for k, v in sorted(r["values"].items()))), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": seconds, "runs": runs}, f, indent=1)
    return 1 if report_set(runs, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
