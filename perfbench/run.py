"""The secindex benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (see BENCHMARK.json for why each exists):

* ``sweep-ieee118``: ``secindex index`` on the bundled 118-bus case, exact
  method, all 490 indices written as CSV. The seed is unused.
* ``attack-2383``: ``secindex attack --target K`` on a seeded synthetic
  2383-bus meshed grid, full measurement, targets drawn by the seed.
* ``verify-desk``: ``secindex verify`` over a seeded stream of small cases.

Every operation goes through ``secindex.cli.main`` in a fresh worker process
per workload, with BLAS/OpenMP threads capped at the processor count, and
every output is checked (``checks.py``). ``--trace 0`` reports the end-to-end
metrics of untraced runs:

* ``setup_s``: from the start of a worker process to the end of its set-up
  (imports, case generation and writing, one warm-up operation), at the
  reference host speed (``hostspeed.py``); the median of ``SETUP_RUNS``
  workers, half started before the measuring worker and half after it, so
  that the samples span the run rather than one moment of it.
* ``op_s_p50_ref``: median seconds per timed operation at the reference host
  speed.
* ``peak_rss_mb``: peak resident memory of the measuring worker.

Times at the reference speed are wall times scaled by how fast the host ran
the probe of ``hostspeed.py`` near them; on a shared host the wall times of
the same code drift by up to 30% between runs, which would drown a change of
the program. The lines printed also give the wall-clock ``setup_s_wall`` and
``op_s_p50``; ``ops_per_s``, timed operations per wall second spent in them;
the highest tail percentile of the wall operation times that has at
least ten samples beyond it (``op_s_p95`` once a run has 200 operations);
and ``failed_frac``, the failed share of all operations including warm-ups.
BENCHMARK.json does not list them: ``ops_per_s`` is a mean, which on
verify-desk one to three slow cases of a run decide (the same size class
takes 0.1 s on one draw and 2 to 4 s on another), and elsewhere it is the
inverse of the mean operation time, close to ``op_s_p50``; the tail needs
more operations than a run has, and ``failed_frac`` is 0 when all is well.

``--trace 1`` reports the per-layer metrics of a traced worker
(``tracer.py``), which runs a fixed number of operations whatever
``--seconds`` says, so that its counts repeat exactly for a seed. The
JSON line carries the metrics BENCHMARK.json lists; the printed lines add
``costly_cut.heuristic_s``, ``oracle.network_s``, ``oracle.network_calls``
and ``power_model.observable_s``, which are 0 on the workloads that never
reach those callables, and ``trace.overhead_frac``, a difference of two
medians of few operations that may come out 0 or negative. Human-readable
lines go first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when the run completed, also
when an output check failed, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-ieee118", "attack-2383", "verify-desk")
# Set-up samples per run, the measuring worker included. The more a sample
# costs, the fewer: a set-up is 0.4 s on verify-desk, where short samples
# also vary most, 2.5 s on sweep-ieee118 and 15 s on attack-2383, where the
# warm-up operation alone exceeds a run's window.
SETUP_RUNS = {"sweep-ieee118": 5, "attack-2383": 3, "verify-desk": 9}
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_PERCENTILES = (99, 95, 90)


class RunError(Exception):
    """The benchmark could not run at all."""


def worker_env():
    """Environment with every BLAS/OpenMP thread count capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = nproc
        env[var] = str(min(max(current, 1), nproc))
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit():
    """Commit of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(workload, seed, seconds, mode, deadline):
    """Start one worker, wait for it, and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget exhausted before the next worker")
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} {mode} worker ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(times):
    """(percentile, value) of the highest tail percentile with at least ten
    samples beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return None


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics from set-up-only workers and one measuring worker,
    each a fresh process."""
    setups = SETUP_RUNS[workload] - 1
    results = [run_worker(workload, seed, seconds, "setup", deadline)
               for _ in range(setups // 2)]
    main = run_worker(workload, seed, seconds, "measure", deadline)
    results += [run_worker(workload, seed, seconds, "setup", deadline)
                for _ in range(setups - setups // 2)]
    results.append(main)
    times = main["op_s"]
    printed = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "setup_s_wall": (statistics.median(r["setup_s_wall"] for r in results), "s"),
        "op_s_p50_ref": (statistics.median(main["op_s_ref"]), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    metrics = {m["name"]: printed[m["name"]] for m in benchmark()["end_to_end"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines = [f"{workload} {name} {value:.6g} {unit}" for name, (value, unit) in printed.items()]
    for i in (2, 3):
        lines[i] += f" (n={len(times)})"
    found = tail(times)
    if found is None:
        lines.append(f"{workload} op_s_tail n/a (n={len(times)}, fewer than 10 samples past p90)")
    else:
        lines.append(f"{workload} op_s_p{found[0]} {found[1]:.6g} s (n={len(times)})")
    lines.append(f"{workload} failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")
    return summarize(workload, results, metrics, lines, attempted, failed)


def trace(workload, seed, seconds, deadline):
    main = run_worker(workload, seed, seconds, "trace", deadline)
    layers = main["layers"]
    lines = [f"{workload} {name} {value:.6g} {unit_of(name)}" for name, value in layers.items()]
    metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in benchmark()["per_layer"]}
    lines.append(f"{workload} traced_ops {len(main['op_s_traced'])}")
    if main["missing"]:
        lines.append(f"{workload} trace: not found, not traced: {', '.join(main['missing'])}")
    return summarize(workload, [main], metrics, lines, main["attempted"], main["failed"])


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_line") or name.endswith("_per_engine"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def summarize(workload, results, metrics, lines, attempted, failed):
    problems = [p for r in results for p in r["problems"]]
    digest = results[-1]["digest_match"]
    if digest is not None:
        lines.append(f"{workload} reference_digest_match {str(digest).lower()}")
    return {
        "lines": lines + [f"{workload} problem: {p}" for p in problems],
        "numpy": results[-1]["numpy"],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def stamp(numpy_version):
    env = worker_env()
    threads = " ".join(f"{var}={env[var]}" for var in THREAD_VARS)
    return (f"stamp commit={git_commit()} python={platform.python_version()} "
            f"numpy={numpy_version} nproc={len(os.sched_getaffinity(0))} {threads}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secindex" / "__init__.py").is_file():
        print(f"benchmark: no secindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    step = trace if args.trace else measure
    try:
        reports = []
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            reports.append(step(name, args.seed, args.seconds, deadline))
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(stamp(reports[0]["numpy"]))
    for report in reports:
        print("\n".join(report["lines"]))
    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{name}/{metric}": value for name, r in zip(names, reports)
                        for metric, value in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
