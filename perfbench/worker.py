"""One workload in one fresh process; started by ``run.py``.

The worker imports ``secindex`` from the checkout's ``src``, generates and
writes the workload's cases, and runs one warm-up operation: that is set-up,
timed from the moment ``run.py`` started this process. Then, unless it only
sets up, it runs operations in a closed loop (one client, each operation
starting when the previous one ended) through ``secindex.cli.main``, the
entry point of the ``secindex`` command, and checks every output. It prints
one JSON object on its standard output. Set-up and operation times are given
both as wall seconds and as seconds at the reference host speed of
``hostspeed.py``, whose probe runs from the worker's first statement.

A traced worker runs a fixed number of operations twice each, untraced and
then traced, so that its counts repeat exactly for a seed and the pairs give
the tracing overhead.
"""

import hostspeed

PROBE = hostspeed.Probe()
if __name__ == "__main__":
    PROBE.start()  # before the imports below, which are part of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from secindex import cli  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"
DESK_STREAM = 3 * len(generate.DESK_CLASSES)  # the loop wraps around
GRID_TARGETS = 64


class Sweep:
    """``secindex index`` on the bundled 118-bus case; the seed is unused."""

    name = "sweep-ieee118"
    pass_ops = 1
    traced_ops = 3

    def __init__(self, seed, workdir, reference):
        self.case = ROOT / "src" / "secindex" / "cases" / "ieee118.m"
        self.out = workdir / "index.csv"
        self.reference = reference[self.name]
        self.digest_match = True
        self.lines = None

    def prepare(self):
        pass

    def reset(self):
        self.out.unlink(missing_ok=True)

    def argv(self, i):
        return ["index", str(self.case), "--out", str(self.out)]

    def check(self, i, rc, stdout):
        data = self.out.read_bytes()
        if checks.sha256(data) != self.reference["csv_sha256"]:
            self.digest_match = False
        text = data.decode()
        problems = checks.check_index_csv(text, self.reference["indices"])
        self.lines = text.count(",flow_from,")
        return problems, len(data)

    def line_count(self, i):
        return self.lines


class Attack:
    """``secindex attack --target K`` on the seeded 2383-bus grid."""

    name = "attack-2383"
    pass_ops = 1
    traced_ops = 1

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.case = workdir / "grid.json"
        self.out = workdir / "attack.csv"
        self.expected = reference[self.name].get(str(seed))
        self.digest_match = None

    def prepare(self):
        self.doc = generate.meshed_grid(self.seed)
        data = generate.dump(self.doc)
        self.case.write_bytes(data)
        self.targets = generate.grid_targets(self.seed, self.doc, GRID_TARGETS)
        self.rows = checks.measurement_rows(self.doc)
        if self.expected is not None:
            self.digest_match = checks.sha256(data) == self.expected["case_sha256"]

    def reset(self):
        self.out.unlink(missing_ok=True)

    def argv(self, i):
        return ["attack", str(self.case), "--target", str(self.targets[i % GRID_TARGETS]),
                "--out", str(self.out)]

    def check(self, i, rc, stdout):
        target = self.targets[i % GRID_TARGETS]
        expected = None
        if self.digest_match and i < len(self.expected["indices"]):
            expected = self.expected["indices"][i]
        data = self.out.read_bytes()
        _, problems = checks.check_attack(data.decode(), self.doc, self.rows, target, expected)
        return problems, len(data)

    def line_count(self, i):
        return len(self.doc["lines"])


class Desk:
    """``secindex verify`` over the seeded stream of small cases."""

    name = "verify-desk"
    pass_ops = traced_ops = len(generate.DESK_CLASSES)

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.digest_match = None

    def prepare(self):
        self.line_counts = []
        for i in range(DESK_STREAM):
            doc = generate.desk_case(self.seed, i)
            (self.workdir / f"desk{i}.json").write_bytes(generate.dump(doc))
            self.line_counts.append(len(doc["lines"]))

    def reset(self):
        pass

    def argv(self, i):
        return ["verify", str(self.workdir / f"desk{i % DESK_STREAM}.json")]

    def check(self, i, rc, stdout):
        return checks.check_verify(rc, stdout), len(stdout.encode())

    def line_count(self, i):
        return self.line_counts[i % DESK_STREAM]


WORKLOADS = {w.name: w for w in (Sweep, Attack, Desk)}


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, i, trace=None):
        """Run and check operation ``i``; return its wall seconds and output
        bytes, and keep its start and end in ``self.span``. Checking is not
        timed."""
        w = self.workload
        argv = w.argv(i)
        buf = io.StringIO()
        rc = None
        w.reset()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if trace is None:
                    rc = cli.main(argv)
                else:
                    with trace.span():
                        rc = cli.main(argv)
        except Exception:  # the op fails; the run goes on and reports it
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        self.span = (t0, t0 + elapsed)
        self.attempted += 1
        problems, size = [f"exit code {rc}"], 0
        if rc == 0:
            try:
                problems, size = w.check(i, rc, buf.getvalue())
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"op {i} ({' '.join(argv)}): {'; '.join(problems[:3])}")
        return elapsed, size


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        reference = json.loads(REFERENCE.read_text())
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        runner = Runner(workload)
        workload.prepare()
        runner.op(0)
        setup = time.monotonic() - args.spawned
        result = {"setup_s_wall": setup, "setup_s": PROBE.scaled_so_far(setup),
                  "numpy": np.__version__}
        if args.mode == "measure":
            times, spans = [], []
            deadline = time.perf_counter() + args.seconds
            # whole passes only, so every run has the same mix of operations
            while len(times) % workload.pass_ops or time.perf_counter() < deadline:
                times.append(runner.op(len(times) + 1)[0])
                spans.append(runner.span)
            PROBE.stop()
            result["op_s"] = times
            result["op_s_ref"] = [PROBE.scaled(*span) for span in spans]
        elif args.mode == "trace":
            PROBE.stop()
            result.update(traced(runner, workload.traced_ops))
        result.update(attempted=runner.attempted, failed=runner.failed,
                      problems=runner.problems[:20], digest_match=workload.digest_match,
                      peak_rss_mb=peak_rss_mb())
    finally:
        PROBE.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def traced(runner, ops):
    """Run operations 1..ops untraced then traced; per-layer metrics."""
    trace = tracer.Tracer()
    plain, timed, sizes, lines = [], [], [], []
    for i in range(1, ops + 1):
        plain.append(runner.op(i)[0])
        trace.install()
        try:
            elapsed, size = runner.op(i, trace)
        finally:
            trace.uninstall()
        timed.append(elapsed)
        sizes.append(size)
        lines.append(runner.workload.line_count(i))
    metrics = tracer.layer_metrics(trace.spans, ops, statistics.fmean(lines), statistics.fmean(sizes))
    metrics["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1.0
    return {"layers": metrics, "missing": trace.missing,
            "op_s_untraced": plain, "op_s_traced": timed}


if __name__ == "__main__":
    sys.exit(main())
