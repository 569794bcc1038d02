"""Tests of the benchmark's own parts: generators, checks, tracer, host-speed
probe, steadiness."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import hostspeed  # noqa: E402
import steady  # noqa: E402
import tracer  # noqa: E402
from secindex import cli  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def connected(bus_count, lines):
    """Whether the 1-based line list connects every bus."""
    reach, todo = {1}, [1]
    while todo:
        bus = todo.pop()
        for u, v, _ in lines:
            for a, b in ((u, v), (v, u)):
                if a == bus and b not in reach:
                    reach.add(b)
                    todo.append(b)
    return len(reach) == bus_count


def test_grid_is_deterministic_connected_and_sized():
    first = generate.dump(generate.meshed_grid(3))
    assert first == generate.dump(generate.meshed_grid(3))
    assert first != generate.dump(generate.meshed_grid(4))
    assert checks.sha256(first) == REFERENCE["attack-2383"]["3"]["case_sha256"]
    doc = json.loads(first)
    assert doc["buses"] == 2383
    assert len(doc["lines"]) == round(1.5 * 2383)
    assert connected(doc["buses"], doc["lines"])
    targets = generate.grid_targets(3, doc, 30)
    assert targets == generate.grid_targets(3, doc, 30)
    assert all(1 <= t <= 2 * len(doc["lines"]) + doc["buses"] for t in targets)
    kinds = {(t - 1) // len(doc["lines"]) for t in targets}
    assert kinds == {0, 1, 2}


def test_desk_stream_is_deterministic_connected_and_observable():
    for i in range(0, 2 * len(generate.DESK_CLASSES), 7):
        data = generate.dump(generate.desk_case(5, i))
        assert data == generate.dump(generate.desk_case(5, i))
        doc = json.loads(data)
        assert 4 <= doc["buses"] <= 12 and len(doc["lines"]) <= 17
        assert connected(doc["buses"], doc["lines"])
        assert generate.observable(doc)
    assert generate.dump(generate.desk_case(5, 0)) != generate.dump(generate.desk_case(6, 0))
    block = [generate.desk_case(5, i) for i in range(len(generate.DESK_CLASSES))]
    sizes = sorted((d["buses"], len(d["lines"])) for d in block)
    assert sizes == sorted(generate.DESK_CLASSES)
    assert any("weights" in d for d in block)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "index.csv"
    case = ROOT / "src" / "secindex" / "cases" / "ieee118.m"
    assert cli.main(["index", str(case), "--out", str(out)]) == 0
    return out.read_text()


def test_reference_matches_the_sweep(sweep_csv):
    ref = REFERENCE["sweep-ieee118"]
    assert checks.check_index_csv(sweep_csv, ref["indices"]) == []
    assert checks.sha256(sweep_csv.encode()) == ref["csv_sha256"]


def _edit_row(text, row, field, change):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[field] = change(cells[field])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_check_rejects_a_flipped_index(sweep_csv):
    ref = REFERENCE["sweep-ieee118"]["indices"]
    bad = _edit_row(sweep_csv, 5, 3, lambda v: str(int(v) + 1))
    problems = checks.check_index_csv(bad, ref)
    assert any("reference" in p for p in problems)
    assert any("support of" in p for p in problems)


def test_check_rejects_a_support_without_its_target(sweep_csv):
    def drop_own(support):
        ids = support.split(";")
        ids.remove("5")
        return ";".join(ids + ["490"])

    bad = _edit_row(sweep_csv, 5, 7, drop_own)
    assert any("lacks measurement 5" in p for p in checks.check_index_csv(bad))


def test_check_attack_recomputes_the_shift(tmp_path):
    doc = {"buses": 3, "lines": [[1, 2, 0.5], [2, 3, 0.25], [1, 3, 0.5]],
           "measurements": {"flow_from": "all", "flow_to": [1], "injection": [2]}}
    case = tmp_path / "c.json"
    case.write_bytes(generate.dump(doc))
    out = tmp_path / "a.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["attack", str(case), "--target", "1", "--out", str(out)]) == 0
    text = out.read_text()
    rows = checks.measurement_rows(doc)
    index, problems = checks.check_attack(text, doc, rows, 1)
    assert problems == [] and index >= 1
    assert checks.check_attack(text, doc, rows, 1, expected_index=index + 1)[1]
    tampered = text.replace("delta_z,1,", "delta_z,1,1", 1)
    assert checks.check_attack(tampered, doc, rows, 1)[1]


def test_check_verify_needs_every_line_to_pass():
    good = "PASS row-sums-zero (max 0)\nPASS oracle-sandwich (bound 0)\nPASS oracle-exactness\n"
    assert checks.check_verify(0, good) == []
    skipped = good.replace("PASS oracle-sandwich (bound 0)", "SKIP oracle-cross-check")
    assert checks.check_verify(0, skipped)
    assert checks.check_verify(2, good.replace("PASS oracle-exactness", "FAIL oracle-exactness"))


def test_tracer_books_self_time_and_restores_callables(sweep_csv, tmp_path):
    from secindex import costly_cut, mincut

    originals = (cli.main, costly_cut.min_cut, mincut.min_cut)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert costly_cut.min_cut is not originals[1]
        assert mincut.min_cut is costly_cut.min_cut
        out = tmp_path / "index.csv"
        case = ROOT / "src" / "secindex" / "cases" / "ieee118.m"
        with trace.span():
            assert cli.main(["index", str(case), "--out", str(out)]) == 0
    finally:
        trace.uninstall()
    assert (cli.main, costly_cut.min_cut, mincut.min_cut) == originals
    assert trace.missing == []
    layers = tracer.layer_metrics(trace.spans, 1, 186, len(sweep_csv))
    assert layers["mincut.flows"] == layers["costly_cut.aux_builds"] == 186
    assert layers["indices.entries"] == 490
    assert layers["mincut.flows_per_line"] == 1.0
    assert layers["power_model.range_basis_builds"] == 1
    assert 0 <= layers["trace.unattributed_frac"] < 0.1
    own = tracer.self_times(trace.spans)
    total = trace.spans[0][2] - trace.spans[0][1]
    assert sum(own) == pytest.approx(total)


def test_host_speed_scaling_follows_the_probe():
    probe = hostspeed.Probe()
    probe.starts = [10.0 * t for t in range(40)]  # far apart, beyond the window
    probe.times = [hostspeed.REFERENCE_S] * 40
    assert probe.scaled(100.0, 200.0) == pytest.approx(100.0)
    probe.times = [2 * hostspeed.REFERENCE_S] * 40  # a host half as fast
    assert probe.scaled(100.0, 200.0) == pytest.approx(50.0)
    probe.times = [hostspeed.REFERENCE_S] * 40
    probe.times[15] = 1000 * hostspeed.REFERENCE_S  # a preempted probe counts 3 times
    assert probe.scaled(100.0, 200.0) == pytest.approx(100.0 * 11 / (10 + hostspeed.CAP))
    with pytest.raises(ValueError):
        probe.scaled(1000.0, 1001.0)


def test_host_speed_probe_runs_inside_busy_code():
    probe = hostspeed.Probe()
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.times) >= 5
    assert all(start <= t <= end for t in probe.starts)
    assert probe.scaled(start, end) > 0


def test_steadiness_verdict_uses_the_bounds():
    metric = {"name": "op_s_p50", "better": "lower", "bound": 0.2}
    calm = [[1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.0, 0.98, 1.01]]
    verdict = steady.agreement(calm, metric)
    assert verdict["within_bound"] and verdict["within_third"]
    slower = [calm[0], [v * 1.3 for v in calm[1]]]
    assert not steady.agreement(slower, metric)["within_bound"]
    faster = [calm[0], [v * 0.7 for v in calm[1]]]
    assert not steady.agreement(faster, metric)["within_bound"]
    noisy = [[0.5, 1.0, 1.5, 1.0, 2.0], calm[1]]
    assert not steady.agreement(noisy, metric)["within_bound"]
    setup = dict(metric, name="setup_s")
    assert steady.agreement(noisy, setup)["within_bound"]
