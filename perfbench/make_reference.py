"""Regenerate ``reference.json``, the expected outputs the checks compare to.

    python3 perfbench/make_reference.py

* ``sweep-ieee118``: the index column and SHA-256 of the CSV that
  ``secindex index`` writes for the bundled 118-bus case.
* ``attack-2383``: for seeds 0 to ``SEEDS - 1``, the SHA-256 of the generated
  grid and the index of its first ``TARGETS`` attack targets, computed with
  the package's public costly-cut API (one cut per line; an injection takes
  the cheapest incident line) instead of the slow ``attack`` command.

Run it only when the program's answers are meant to change, and say why in
the change that commits the new file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from secindex import cli, costly_cut  # noqa: E402
from secindex.caseio import parse_native_text  # noqa: E402
from secindex.indices import WeightAssignment, cut_instance_for_line  # noqa: E402

SEEDS = 128
TARGETS = 6


def sweep_reference():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "index.csv"
        case = ROOT / "src" / "secindex" / "cases" / "ieee118.m"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["index", str(case), "--out", str(out)]) != 0:
                raise SystemExit("secindex index failed on ieee118.m")
        data = out.read_bytes()
    rows = [ln.split(",") for ln in data.decode().splitlines()[1:]]
    return {"csv_sha256": checks.sha256(data), "indices": [row[3] for row in rows]}


def attack_reference(seed):
    doc = generate.meshed_grid(seed)
    data = generate.dump(doc)
    case = parse_native_text(data.decode())
    weights = WeightAssignment.from_placement(case.net, case.meas)
    cache = {}

    def line_value(line):
        if line not in cache:
            inst = cut_instance_for_line(case.net, weights, line)
            cache[line] = costly_cut.solve(inst).objective
        return cache[line]

    m = case.net.line_count
    out = []
    for target in generate.grid_targets(seed, doc, TARGETS):
        k = target - 1
        if k < 2 * m:
            value = line_value(k % m)
        else:
            value = min(line_value(ln) for ln in case.net.incident_lines(k - 2 * m))
        out.append(int(value))
    return {"case_sha256": checks.sha256(data), "indices": out}


def main():
    ref = {"sweep-ieee118": sweep_reference(), "attack-2383": {}}
    for seed in range(SEEDS):
        ref["attack-2383"][str(seed)] = attack_reference(seed)
        print(f"seed {seed}: {ref['attack-2383'][str(seed)]['indices']}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
