"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--sets 2]

Each set runs ``run.py --trace 0`` once per seed (seeds 1..runs for the first
set, runs+1..2*runs for the next, and so on) on every chosen workload. Per
workload and end-to-end metric it prints each set's median and its spread,
the distance between the first and third quartile as a share of the median,
and whether the metric is steady under its bound from ``BENCHMARK.json``: the
spread stays within the bound and no later set's median differs from the
first set's, either way, by more than the bound. The spread of ``setup_s`` is
not judged, as in the benchmark's acceptance rule: set-up is one cold start
per worker (imports from a cold file cache, first allocations), which a run
can only sample a few times, so it is judged by its set-to-set drift alone.
The verdict of
each metric is also given against a third of its bound, the margin the
benchmark is tuned to. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPREAD_EXEMPT = ("setup_s",)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, later):
    """How far ``later`` is from ``first``, either way, as a share of ``first``."""
    return abs(later - first) / first


def agreement(sets, metric):
    """Verdict for one metric given its value lists, one list per set.

    ``metric`` is the BENCHMARK.json entry (name, bound). Returns a dict with
    each set's median and spread, the largest drift of a later median from
    the first, and whether the metric passes its bound and a third of it."""
    medians = [statistics.median(v) for v in sets]
    spreads = [spread(v) for v in sets]
    worst_drift = max((drift(medians[0], m) for m in medians[1:]), default=0.0)
    checked = [] if metric["name"] in SPREAD_EXEMPT else spreads
    worst = max(checked + [worst_drift])
    return {
        "medians": medians,
        "spreads": spreads,
        "drift": worst_drift,
        "within_bound": worst <= metric["bound"],
        "within_third": worst <= metric["bound"] / 3,
    }


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            seeds = range(s * args.runs + 1, (s + 1) * args.runs + 1)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {s + 1} seed {seed} "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            verdict = agreement([[run[name] for run in runs] for runs in sets], metric)
            steady = steady and verdict["within_bound"]
            print(f"{workload} {name} medians "
                  + " ".join(f"{m:.6g}" for m in verdict["medians"])
                  + " spreads " + " ".join(f"{s:.3f}" for s in verdict["spreads"])
                  + f" drift {verdict['drift']:.3f} bound {metric['bound']}"
                  + f" within_bound {verdict['within_bound']} within_third {verdict['within_third']}",
                  flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
