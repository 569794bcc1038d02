import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import benchmark_generate, random_observable_case
from secindex import cli, costly_cut, indices, oracle, power_model
from secindex.caseio import (
    CaseFile,
    emit_native,
    parse_cut_instance,
    parse_matpower_subset,
    parse_native,
)
from secindex.cases import path as case_path
from secindex.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


def test_index_all_on_worked_example(capsys):
    code, out, err = run_cli(capsys, "index", str(case_path("example4bus.json")), "--all")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == CSV_HEADER
    rows = parse_csv(out)
    assert len(rows) == 5
    by_target = {(r["kind"], r["line_or_bus"]): r for r in rows}
    assert by_target[("injection", "1")]["index"] == "2"
    assert by_target[("flow_from", "1")]["index"] == "3"
    assert by_target[("flow_to", "1")]["index"] == "3"
    assert by_target[("flow_from", "3")]["index"] == "1"
    assert by_target[("flow_from", "2")]["index"] == "2"
    assert all(r["exact"] == "true" for r in rows)
    assert all(r["error_bound"] == "0" for r in rows)
    assert all(r["method"] == "exact" for r in rows)
    # every attack support names its own measurement
    for r in rows:
        assert r["measurement_id"] in r["attack_support"].split(";")


def test_index_csv_is_byte_identical_across_runs(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "index", str(case_path("example4bus.json")), "--out", str(out)
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of `secindex index ieee118.m --method M`; the heuristics read both
# canonical cuts of one flow, the exact method only the minimal one.
IEEE118_CSV_SHA256 = {
    "exact": "a8a7e92c1cb8929d35fc6c32ed4c6dffc5fd1ae85905efb00265ebb5148c4c70",
    "ignore-nodes": "0b7acb72cb110608fcd0d550413d70b471585b2764f2d28636e1392f840edea4",
    "fold-nodes": "098a7452791d6c115d837ba3c759053c63f4bccc9c78503d7a801e733f334f2a",
}


def test_index_csv_golden_digests(capsys, tmp_path):
    for method, digest in IEEE118_CSV_SHA256.items():
        out = tmp_path / f"{method}.csv"
        code, _, _ = run_cli(
            capsys, "index", str(case_path("ieee118.m")), "--method", method, "--out", str(out)
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, method


def test_index_single_target(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "index", str(case_path("example4bus.json")), "--target", "3"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["measurement_id"] == "3"
    assert rows[0]["index"] == "1"

    # --target K prints the header and row K of the full CSV, byte for byte,
    # and runs only the cuts of its own line or bus
    solved = []

    def counted(solver):
        def run(inst):
            solved.append(inst)
            return solver(inst)

        return run

    for name in ("solve", "solve_ignore_nodes", "solve_fold_nodes"):
        monkeypatch.setattr(costly_cut, name, counted(getattr(costly_cut, name)))
    rng = random.Random(118)
    for case_name in ("example4bus.json", "ieee118.m"):
        case = str(case_path(case_name))
        parsed = parse_matpower_subset(case) if case.endswith(".m") else parse_native(case)
        count = parsed.meas.measurement_count
        targets = range(1, count + 1) if count <= 20 else sorted(rng.sample(range(1, count + 1), 20))
        for method in ("exact", "ignore-nodes", "fold-nodes"):
            code, full, _ = run_cli(capsys, "index", case, "--method", method)
            assert code == 0
            full_rows = full.splitlines(keepends=True)
            for k in targets:
                del solved[:]
                code, out, _ = run_cli(capsys, "index", case, "--method", method, "--target", str(k))
                assert code == 0
                assert out == full_rows[0] + full_rows[k], (case_name, method, k)
                kind, ident = parsed.meas.ordering()[k - 1]
                cuts = len(parsed.net.incident_lines(ident)) if kind == "injection" else 1
                assert 1 <= len(solved) <= cuts, (case_name, method, k, len(solved))


def test_index_methods(capsys):
    for method in ("ignore-nodes", "fold-nodes"):
        code, out, _ = run_cli(
            capsys, "index", str(case_path("example4bus.json")), "--method", method
        )
        assert code == 0
        assert all(r["method"] == method and r["exact"] == "false" for r in parse_csv(out))


def test_index_conflicting_flags(capsys):
    code, _, err = run_cli(
        capsys, "index", str(case_path("example4bus.json")), "--target", "1", "--all"
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_index_bad_target(capsys):
    code, _, err = run_cli(
        capsys, "index", str(case_path("example4bus.json")), "--target", "9"
    )
    assert code == 1 and "out of range" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "index", "/no/such/case.json")
    assert code == 1


def test_malformed_case_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"buses": 2, "lines": [[1, 2, -1.0]], "measurements": {}}')
    code, _, err = run_cli(capsys, "index", str(bad))
    assert code == 1 and "reactance" in err


def test_non_finite_reactance_is_an_input_error(capsys, tmp_path):
    native = tmp_path / "inf.json"
    native.write_text(
        '{"buses": 3, "lines": [[1, 2, 1.0], [2, 3, Infinity]], "measurements": {"flow_from": "all"}}'
    )
    text = case_path("ieee118.m").read_text()
    first = "\t1\t2\t0\t0.0999\t"
    assert text.count(first) == 1
    matpower = tmp_path / "inf.m"
    matpower.write_text(text.replace(first, "\t1\t2\t0\tInf\t"))
    for case, where in ((native, "lines[1]"), (matpower, "branch row 1")):
        for argv in (["index", str(case)], ["attack", str(case), "--target", "1"],
                     ["verify", str(case)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "", argv
            assert f"{where}: reactance must be positive and finite, got inf" in err, argv


_TRIANGLE_NATIVE = (
    '{"buses": 3, "lines": [[1, 2, %s], [2, 3, 0.2], [1, 3, 0.3]],'
    ' "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"}}'
)
_TRIANGLE_MATPOWER = (
    "mpc.bus = [\n1 1;\n2 1;\n3 1;\n];\nmpc.branch = [\n1 2 0 %s;\n2 3 0 0.2;\n1 3 0 0.3;\n];\n"
)


@pytest.mark.parametrize("form, name",
                         [(_TRIANGLE_NATIVE, "tiny.json"), (_TRIANGLE_MATPOWER, "tiny.m")],
                         ids=["native", "matpower"])
def test_reactance_whose_susceptance_overflows_is_an_input_error(capsys, tmp_path, form, name):
    # Below 2**-1024, 1/x is inf. Such a line used to pass validation, and
    # every command on this triangle printed RuntimeWarnings and exited 2:
    # "cut objective 7 disagrees with attack cost 5".
    case = tmp_path / name
    for x in ("5e-324", "1e-309"):
        case.write_text(form % x)
        for argv in (["index", str(case)], ["attack", str(case), "--target", "1"],
                     ["verify", str(case)]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == (f"error: {case}: line 0: reactance {float(x)} is too small:"
                           " its susceptance 1/x overflows\n")


_NOT_UTF8 = {
    "native": ("case.json", b'{"buses": 2, \xff}', lambda p: ["index", p]),
    "matpower": ("case.m", b"mpc.bus = [\n1 1;\n2 1;\n];\n% caf\xff\nmpc.branch = [\n1 2 0 0.25;\n];\n",
                 lambda p: ["index", p]),
    "sidecar": ("side.json", b'{"measurements": {"injection": ["\xff"]}}',
                lambda p: ["index", str(case_path("ieee118.m")), "--measurements", p]),
    "cut": ("inst.cut", b"nodes 2\n# \xff\nsource 1\nsink 2\n", lambda p: ["cut", p]),
    "clauses": ("f.clauses", b"vars 1\n# \xff\n1\n", lambda p: ["gadget", "--clauses", p]),
}


@pytest.mark.parametrize("reader", sorted(_NOT_UTF8))
def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, reader):
    # Every reader used to stop on a UnicodeDecodeError traceback.
    name, data, argv = _NOT_UTF8[reader]
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run_cli(capsys, *argv(str(path)))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text: byte 0xff, invalid start byte\n"


@pytest.mark.parametrize(
    "literal, shown",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")],
)
def test_non_finite_weight_is_an_input_error(capsys, tmp_path, literal, shown):
    # json.loads reads all four literals as floats; the cost parser used to
    # stop on them with a ValueError traceback.
    native = tmp_path / "w.json"
    native.write_text(
        '{"buses": 3, "lines": [[1, 2, 1.0], [2, 3, 1.0]], "measurements": {"flow_from": "all"},'
        ' "weights": {"edge_costs": {"2": ' + literal + '}}}'
    )
    sidecar = tmp_path / "w.sidecar.json"
    sidecar.write_text('{"weights": {"edge_costs": {"2": ' + literal + '}}}')
    for argv, source in ((["index", str(native)], native),
                         (["index", str(case_path("ieee118.m")), "--measurements", str(sidecar)],
                          sidecar)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {source}: weights.edge_costs[2]: cost must be finite, got {shown}\n"


@pytest.mark.parametrize("seed", [3, 8])
def test_integral_weight_spellings_give_identical_csvs(capsys, tmp_path, seed):
    # An integral weight is the same int however it is spelled, so every
    # method writes the same bytes, with no index or bound printed as k/1.
    rng = random.Random(seed)
    net, meas, _ = random_observable_case(rng)
    doc = json.loads(emit_native(CaseFile(net=net, meas=meas)))
    edge = {str(i + 1): rng.randint(0, 3) for i in range(net.line_count)}
    node = {str(b + 1): rng.randint(0, 3) for b in range(net.bus_count)}
    spellings = (lambda k: k, str, lambda k: f"{k}/1", float)
    for method in indices.METHODS:
        outputs = set()
        for j, spell in enumerate(spellings):
            doc["weights"] = {
                "edge_costs": {i: spell(k) for i, k in edge.items()},
                "node_costs": {b: spell(k) for b, k in node.items()},
            }
            case = tmp_path / f"spelling{j}.json"
            case.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "index", str(case), "--method", method)
            assert (code, err) == (0, ""), method
            outputs.add(out)
        assert len(outputs) == 1, method
        for row in parse_csv(out):
            assert "/" not in row["index"] + row["error_bound"]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("mpc.bus = [\n\t1\t", "mpc.bus = [\n\t1.5\t", "bus row 1: bus id 1.5 is not an integer"),
        ("mpc.bus = [\n\t1\t", "mpc.bus = [\n\tInf\t", "bus row 1: bus id inf is not an integer"),
        ("mpc.bus = [\n\t1\t", "mpc.bus = [\n\tNaN\t", "bus row 1: bus id nan is not an integer"),
        ("\t1\t2\t0\t0.0999\t", "\t1\t2.5\t0\t0.0999\t",
         "branch row 1: bus id 2.5 is not an integer"),
        ("\t1\t2\t0\t0.0999\t", "\t-Inf\t2\t0\t0.0999\t",
         "branch row 1: bus id -inf is not an integer"),
    ],
    ids=["bus-fraction", "bus-inf", "bus-nan", "branch-fraction", "branch-inf"],
)
def test_matpower_bus_id_must_be_an_integer(capsys, tmp_path, old, new, message):
    # A bus id used to be truncated (1.5 read as bus 1) or to escape as an
    # OverflowError / ValueError traceback (Inf, NaN).
    text = case_path("ieee118.m").read_text()
    assert text.count(old) == 1
    case = tmp_path / "bad_id.m"
    case.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "index", str(case))
    assert (code, out, err) == (1, "", f"error: {case}: {message}\n")


def test_index_csv_names_a_bus_by_the_files_id(capsys, tmp_path):
    # A MATPOWER case with bus ids 10 to 40: an injection row names its bus
    # by the file's id, alone (--target) or in the sweep, and a flow row
    # its line by 1-based position. A native case has no ids of its own,
    # so its buses are named 1..n.
    case = tmp_path / "sparse.m"
    case.write_text("mpc.bus = [\n10 3 0 0;\n20 1 0 0;\n30 1 0 0;\n40 1 0 0;\n];\n"
                    "mpc.branch = [\n10 20 0 0.1;\n20 30 0 0.2;\n30 40 0 0.3;\n"
                    "40 10 0 0.4;\n10 30 0 0.5;\n];\n")
    code, out, _ = run_cli(capsys, "index", str(case))
    rows = parse_csv(out)
    named = [(r["kind"], r["line_or_bus"]) for r in rows]
    assert code == 0 and named == [(kind, str(i)) for kind in ("flow_from", "flow_to")
                                   for i in range(1, 6)] + [("injection", str(b)) for b in (10, 20, 30, 40)]
    code, out, _ = run_cli(capsys, "index", str(case), "--target", "12")
    assert code == 0 and parse_csv(out) == rows[11:12]
    native = tmp_path / "triangle.json"
    native.write_text(json.dumps({"buses": 3, "lines": [[1, 2, 0.1], [2, 3, 0.2], [1, 3, 0.3]],
                                  "measurements": {"injection": "all", "flow_from": "all"}}))
    code, out, _ = run_cli(capsys, "index", str(native))
    assert [r["line_or_bus"] for r in parse_csv(out) if r["kind"] == "injection"] == ["1", "2", "3"]


def test_native_number_too_large_is_an_input_error(capsys, tmp_path):
    # An integer reactance past the float range used to stop in float(x),
    # and one past Python's digit limit in json.loads, each as a traceback.
    for digits, where in ((400, "lines[1]: reactance is an integer too large for a float"),
                          (5000, "Exceeds the limit (4300 digits)")):
        case = tmp_path / f"big{digits}.json"
        case.write_text(
            '{"buses": 3, "lines": [[1, 2, 1.0], [2, 3, 1' + "0" * digits + ']],'
            ' "measurements": {"flow_from": "all"}}'
        )
        code, out, err = run_cli(capsys, "index", str(case))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {case}: ") and where in err


def test_cut_command_on_comparison_instance(capsys):
    code, out, _ = run_cli(capsys, "cut", str(case_path("comparison.cut")))
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["objective"] == "8"
    assert lines["source_side"] == "1"
    assert set(lines["sink_side"].split()) == {"2", "3", "4"}
    assert set(lines["charged_nodes"].split()) == {"1", "2", "3"}


# Costs a .cut file may give: integral, rational and decimal ones, and
# ones the reader or the solver must refuse.
_CUT_COSTS = ("0", "1", "2", "3", "7", "1/2", "2/3", "0.25", "6/2",
              "-1", "1/0", "nan", "inf", "abc", "1e400", "99999999999999999999")


@st.composite
def _cut_texts(draw):
    """A .cut text of at most 8 nodes: a well-formed instance, most of the
    time, with up to two of its lines dropped, spoiled or joined by junk."""
    n = draw(st.sampled_from(range(8, 0, -1)))
    node = st.integers(0, n + 1).map(str)
    cost = st.sampled_from(_CUT_COSTS[:9] if draw(st.integers(0, 3)) else _CUT_COSTS)
    lines = [f"nodes {n}"]
    for _ in range(draw(st.integers(0, 14))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v or draw(st.integers(0, 9)) == 0:
            lines.append(f"edge {u} {v} {draw(cost)}")
    for i in draw(st.lists(st.integers(1, n), max_size=n, unique=True)):
        lines.append(f"node {i} {draw(cost)}")
    source, shift = draw(st.integers(1, n)), draw(st.sampled_from(range(n)[::-1]))
    lines += [f"source {source}", f"sink {(source + shift - 1) % n + 1}"]
    junk = st.one_of(
        st.sampled_from(("", "# note", "edge 1 2", "nodes", "bogus 1", "source x", "node 1")),
        st.tuples(st.sampled_from(("edge", "node", "source", "sink", "nodes")),
                  st.lists(st.one_of(node, st.sampled_from(_CUT_COSTS)), max_size=4))
        .map(lambda t: " ".join((t[0], *t[1]))),
    )
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(junk))
    return "\n".join(lines) + "\n"


def test_cut_command_on_small_texts_solves_or_says_why():
    # Any text of at most 8 nodes either solves, at the brute-force optimum
    # of the instance it parses to, or is refused with one error line; it
    # never stops with an invariant (exit 2) or a traceback.
    outcomes = set()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_cut_texts())
    def check(text):
        path = os.path.join(tmp, "case.cut")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cut", path])
        out, err = out.getvalue(), err.getvalue()
        outcomes.add(code)
        if code == 0:
            assert err == ""
            objective = out.splitlines()[0]
            best = costly_cut.solve_brute_force(parse_cut_instance(path)).objective
            assert objective.startswith("objective ") and Fraction(objective[10:]) == best
        else:
            assert code == 1 and out == "", (code, text)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    with tempfile.TemporaryDirectory() as tmp:
        check()
    assert outcomes == {0, 1}


@pytest.mark.parametrize("reactance", ["1e-160", "1e308"])
def test_verify_at_a_float_range_reactance_ends_without_an_invariant(tmp_path, reactance):
    # A 4-bus ring, full measurement, with one reactance at either end of
    # the float range: the partition oracle reads its functionals at a
    # binary unit scale, so verify either passes or names a FAIL line, as
    # ``index`` answers the case; it never stops on an internal invariant.
    path = tmp_path / "ring.json"
    path.write_text(
        '{"buses": 4, "lines": [[1, 2, 1.0], [2, 3, 0.5], [3, 4, %s], [4, 1, 0.25]],'
        ' "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"}}' % reactance
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert "internal invariant" not in err and "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 2) and (code == 2) == ("FAIL" in out), (code, out)
    assert "PASS oracle-sandwich" in out and "PASS oracle-exactness" in out


_EVERY = '"measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"}'


@pytest.mark.parametrize("buses, lines, code", [
    (4, "[[1, 2, 1.0], [2, 3, 0.5], [3, 4, 1e-160], [4, 1, 0.25]]", 0),
    (3, "[[1, 2, 1e300], [2, 3, 1e-300], [3, 1, 0.3]]", 0),
], ids=["ring", "triangle"])
def test_observability_is_decided_at_every_row_scale(tmp_path, buses, lines, code):
    # Every network with every flow and injection metered is observable,
    # however its reactances spread, and verify passes on the 4-bus ring
    # (x = 1e-160) and on the triangle (x = 1e300 and 1e-300). On the
    # triangle the partition oracle's witness spans 1e300 to 2e300, and its
    # cost and support are read from it scaled below 1/2, so that its flow
    # over the 1e-300 line stays finite.
    path = tmp_path / "case.json"
    path.write_text(f'{{"buses": {buses}, "lines": {lines}, {_EVERY}}}')
    case = parse_native(path)
    assert power_model.is_observable(power_model.build_h(case.net, case.meas))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["verify", str(path)]) == code
    assert "PASS observable" in out.getvalue().splitlines()
    assert "FAIL" not in out.getvalue() and "Traceback" not in err.getvalue()


_JUNK_IDS = (0, -1, True, 1.5, "1", None, [1])
_JUNK_COSTS = (0, 1, 2, 3, "1/2", "3/2", 0.25, -1, "abc", True, None, [1], "1e400", 10**30)


@st.composite
def _native_placements(draw):
    """A small native case whose ``measurements`` and ``weights`` sections,
    and the keys beside them, are spoiled in a few of the ways a hand-edited
    file is: groups missing, empty, repeated, "all", out of range or of the
    wrong type, weights of every spelling, and unknown keys."""
    n = draw(st.integers(2, 5))
    lines = [[b, b + 1, draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))] for b in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v:
            lines.append([u, v, 1.0])
    counts = {"flow_from": len(lines), "flow_to": len(lines), "injection": n}
    group = st.one_of(
        st.just("all"),
        st.lists(st.integers(1, max(counts.values())), max_size=6),
        st.lists(st.one_of(st.integers(-1, max(counts.values()) + 1), st.sampled_from(_JUNK_IDS)),
                 max_size=4),
        st.sampled_from(("none", 5, {}, None)),
    )
    measurements = {key: draw(group) for key in counts if draw(st.integers(0, 4))}
    if not draw(st.integers(0, 9)):
        measurements[draw(st.sampled_from(("flows", "injections", "")))] = "all"
    doc = {"buses": n, "lines": lines, "measurements": measurements}
    if draw(st.booleans()):
        ids = st.one_of(st.integers(0, n + 1).map(str), st.sampled_from(("x", "1.0", " 1", "")))
        costs = st.dictionaries(ids, st.sampled_from(_JUNK_COSTS), max_size=4)
        weights = {key: draw(costs) for key in ("edge_costs", "node_costs") if draw(st.booleans())}
        if not draw(st.integers(0, 9)):
            weights[draw(st.sampled_from(("edges", "nodes")))] = {}
        doc["weights"] = weights if draw(st.integers(0, 9)) else draw(st.sampled_from(([], "x", 1)))
    if not draw(st.integers(0, 9)):
        doc[draw(st.sampled_from(("name", "comment", "weight")))] = 1
    target = draw(st.integers(0, 2 * len(lines) + n + 1))
    return json.dumps(doc), target


def test_index_and_attack_on_spoiled_placements_answer_or_say_why():
    # Any placement and weights of a small valid network either answer
    # (index: one row per measurement, in the labels' order; attack: one
    # row per bus and per measurement) or are refused with one error line;
    # no run stops with an invariant (exit 2) or a traceback.
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_native_placements())
    def check(spec):
        text, target = spec
        path = os.path.join(tmp, "case.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (["index", path], ["attack", path, "--target", str(target)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            outcomes.add((argv[0], code))
            if code == 0:
                assert err == ""
                case = parse_native(path)
                count = case.meas.measurement_count
                rows = out.splitlines()
                if argv[0] == "index":
                    assert len(rows) == count + 1
                    for k, row in enumerate(rows[1:]):
                        kind, ident = case.meas.label(k)
                        assert row.split(",")[1:3] == [kind, str(ident + 1)]
                else:
                    assert len(rows) == case.net.bus_count + count + 2
            else:
                assert code == 1 and out == "", (code, text, argv)
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert "Traceback" not in err

    with tempfile.TemporaryDirectory() as tmp:
        check()
    assert {("index", 0), ("index", 1), ("attack", 0), ("attack", 1)} <= outcomes


_MATPOWER_REACTANCES = ("0", "-1", "nan", "inf", "5e-324", "1e-300", "1e300", "abc")
_MATPOWER_SPOILS = ("bus id", "no such bus", "self-loop", "short row", "reactance", "no matrix",
                    "sidecar")


@st.composite
def _matpower_cases(draw):
    """A MATPOWER-subset text of 1 to 8 buses and, half the time, a
    measurements sidecar. The bus ids are sparse, branches may be out of
    service, and the reactances mix unit values with 1e-300 and 1e300. At
    most one of ``_MATPOWER_SPOILS`` is made, in the ways a converted or
    hand-edited case is spoiled: a bus id repeated, fractional or not a
    number, a branch to no bus or to its own bus, a short branch row, a
    reactance from ``_MATPOWER_REACTANCES``, a matrix missing, or a
    sidecar of the wrong shape or with junk ids and costs."""
    n = draw(st.integers(1, 8))
    step = draw(st.sampled_from((1, 7, 100)))
    ids = [str(1 + step * b) for b in range(n)]
    pairs = [(draw(st.integers(0, b - 1)), b) for b in range(1, n)]
    pairs += [(u, v) for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                         st.integers(0, n - 1)), max_size=3))
              if u != v]
    reactance = st.sampled_from(("0.25", "0.5", "1", "2") * 2 + ("1e-300", "1e300"))
    branch = []
    for u, v in pairs:
        row = [ids[u], ids[v], "0", draw(reactance)]
        if draw(st.booleans()):
            row += ["0"] * 6 + [draw(st.sampled_from("11110"))]
        branch.append(row)
    spoil = draw(st.sampled_from((None,) * 4 + _MATPOWER_SPOILS))
    if spoil == "bus id":
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from((ids[0], "1.5", "x")))
    elif spoil in ("no such bus", "self-loop", "short row", "reactance") and branch:
        row = branch[draw(st.integers(0, len(branch) - 1))]
        if spoil == "no such bus":
            row[draw(st.integers(0, 1))] = str(1000 + n)
        elif spoil == "self-loop":
            row[1] = row[0]
        elif spoil == "short row":
            del row[draw(st.integers(1, 3)):]
        else:
            row[3] = draw(st.sampled_from(_MATPOWER_REACTANCES))
    parts = ["mpc.bus = [\n" + "".join(f"{i} 1 0 0;\n" for i in ids) + "];\n",
             "mpc.branch = [\n" + "".join(" ".join(row) + draw(st.sampled_from((";", "; % c", "")))
                                         + "\n" for row in branch) + "];\n"]
    if spoil == "no matrix":
        del parts[draw(st.integers(0, 1))]
    text = "function mpc = case\n% converted\nmpc.baseMVA = 100;\n" + "".join(parts)
    if spoil != "sidecar" and draw(st.booleans()):
        return text, None
    junk = spoil == "sidecar"

    def group(valid):
        if junk and draw(st.booleans()):
            return draw(st.sampled_from(("none", 1, None, [True], ["1"], [0], [999])))
        return draw(st.one_of(st.just("all"), st.lists(st.sampled_from(valid), max_size=4)))

    flows = list(range(1, len(branch) + 1)) or [1]
    measurements = {key: group(flows) for key in ("flow_from", "flow_to") if draw(st.booleans())}
    if draw(st.booleans()):
        measurements["injection"] = group([int(i) for i in ids if i.isdigit()] or [1])
    doc = {"measurements": measurements}
    if draw(st.booleans()):
        cost = st.sampled_from(_JUNK_COSTS if junk else (0, 1, 2, "1/2", 0.25))
        costs = st.dictionaries(st.sampled_from(flows).map(str), cost, max_size=3)
        doc["weights"] = {"edge_costs": draw(costs), "node_costs": draw(costs)}
    if junk and draw(st.booleans()):
        return text, draw(st.sampled_from(("[]", "{", "1", '{"bus": 1}')))
    return text, json.dumps(doc)


def test_matpower_cases_and_sidecars_answer_or_say_why():
    # Any MATPOWER-subset case, with or without a sidecar, either answers
    # (index and attack --target 1) or is refused with one error line; no
    # run stops on an invariant (exit 2) or a traceback.
    outcomes = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_matpower_cases())
    # a radial case whose residual entries near 1e284 overflowed the 2-norm's
    # squares: index and attack used to exit 2, "attack residual inf exceeds"
    @example(("mpc.bus = [\n1 1 0 0;\n8 1 0 0;\n15 1 0 0;\n22 1 0 0;\n29 1 0 0;\n36 1 0 0;\n];\n"
              "mpc.branch = [\n1 8 0 1e-300;\n8 15 0 2;\n1 22 0 1e-300;\n8 29 0 1e-300;\n"
              "8 36 0 1e-300;\n];\n", None))
    def check(spec):
        text, sidecar = spec
        path = os.path.join(tmp, "case.m")
        with open(path, "w") as fh:
            fh.write(text)
        extra = []
        if sidecar is not None:
            extra = ["--measurements", os.path.join(tmp, "side.json")]
            with open(extra[1], "w") as fh:
                fh.write(sidecar)
        for argv in (["index", path, *extra], ["attack", path, "--target", "1", *extra]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            outcomes.add((argv[0], code))
            if code == 0:
                assert err == "" and out, (text, sidecar, argv)
            else:
                assert code == 1 and out == "", (code, text, sidecar, argv, err)
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert "Traceback" not in err

    with tempfile.TemporaryDirectory() as tmp:
        check()
    assert {("index", 0), ("index", 1), ("attack", 0), ("attack", 1)} <= outcomes


def test_attack_command(capsys, tmp_path):
    out = tmp_path / "attack.csv"
    code, _, _ = run_cli(
        capsys,
        "attack",
        str(case_path("example4bus.json")),
        "--target",
        "3",
        "--out",
        str(out),
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "quantity,id,value"
    theta = [r for r in rows if r.startswith("delta_theta")]
    dz = [r for r in rows if r.startswith("delta_z")]
    assert len(theta) == 4 and len(dz) == 5
    residual = float(rows[-1].split(",")[2])
    assert residual <= 1e-9


def _per_line_rows(name, values):
    """The rows of one listing column, one f-string per entry: the
    reference for the block writer."""
    return "".join(f"{name},{i},{float(v)!r}\n" for i, v in enumerate(values, start=1))


def _per_line_listing(attack):
    return ("quantity,id,value\n" + _per_line_rows("delta_theta", attack.delta_theta)
            + _per_line_rows("delta_z", attack.delta_z)
            + f"residual_inf_norm,,{float(attack.residual_inf)!r}\n")


def _run_vectors(seed, count=12_000):
    """A vector of ``count`` entries in runs of 1 to 40 equal values, drawn
    so that runs cross ids 9/10, 99/100, 999/1000 and 9999/10000 and -0.0
    sits next to 0.0, with one-entry runs at both ends."""
    rng = random.Random(seed)
    choices = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1.5, 0.1 + 0.2, float("inf"))
    values = []
    while len(values) < count:
        values += [rng.choice(choices)] * rng.choice((1, 1, 2, 3, 7, 11, 40))
    values = values[:count]
    for at in (8, 9, 10, 98, 99, 100, 998, 999, 1000, 9998, 9999, 10000):
        values[at] = values[at - 1]  # runs that span a digit boundary
    values[0], values[1], values[-2], values[-1] = 5e-324, 1e308, -0.0, 0.0
    return np.array(values)


@pytest.mark.parametrize("values", [
    _run_vectors(1), _run_vectors(2),
    np.array([0.0, -0.0] * 6000),
    np.full(12_000, -1.5), np.full(9, 0.0), np.array([1e308]),  # each one run
], ids=["runs-1", "runs-2", "alternating-zeros", "one-value", "one-run", "one-entry"])
def test_listing_rows_match_per_line_formatting(values):
    # A template row per run of bit-equal values, the ids' digits written
    # into it, must give the bytes of one f-string per entry.
    got = cli._listing_rows(b"delta_z", values)
    assert got == _per_line_rows("delta_z", values).encode()


def test_attack_rows_format_each_value_as_its_float_repr(capsys, tmp_path):
    # Each value must read as the repr of the float it is, as formatting
    # each numpy scalar through float() reads, on attacks whose dz holds
    # sums of reciprocal reactances and on the benchmark's 2383-bus grid.
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "buses": 4,
        "lines": [[1, 2, 0.3], [2, 3, 0.7], [3, 4, 0.11], [4, 1, 1.9], [1, 3, 0.013]],
        "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"},
    }))
    grid = tmp_path / "grid.json"
    generate = benchmark_generate()
    doc = generate.meshed_grid(1)
    grid.write_text(json.dumps(doc))
    for case_file, targets in ((path, (1, 7, 11, 14)), (grid, generate.grid_targets(1, doc, 1))):
        case = parse_native(case_file)
        for target in targets:
            attack = indices.index_target(case.net, case.meas, None, target - 1).attack
            assert set(attack.delta_z.tolist()) - {0.0, 1.0, -1.0}
            code, out, err = run_cli(capsys, "attack", str(case_file), "--target", str(target))
            assert (code, err) == (0, "")
            assert out.encode() == _per_line_listing(attack).encode()


def test_gadget_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gadget", "--clauses", str(case_path("satisfiable.clauses")))
    assert code == 0
    report = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert report["optimum"] == "4"
    assert report["threshold"] == "4"
    assert report["verdict"] == "satisfiable"

    unsat = tmp_path / "unsat.clauses"
    unsat.write_text("vars 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    code, out, _ = run_cli(capsys, "gadget", "--clauses", str(unsat))
    assert code == 0
    report = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert report["verdict"] == "unsatisfiable"
    assert int(report["optimum"]) > int(report["threshold"])


def test_oversized_gadget_is_refused_before_it_is_built(tmp_path):
    # 2^32 variables would take hundreds of gigabytes of buses. The run is
    # capped at 1 GB of address space, so only a size check made before the
    # gadget is built ends in one error line and exit 1.
    path = tmp_path / "huge.clauses"
    path.write_text("vars 4294967296\n1 2 3\n")
    capped = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from secindex.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", capped, "gadget", "--clauses", str(path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        f"error: {path}: the gadget would have 8589934597 rows; "
        f"the row-set oracle refuses more than {oracle.ROW_LIMIT}\n"
    )


@pytest.mark.parametrize("text, message", [
    ("vars 3\n1 2\n", "line 2: expected a triple, got (1, 2)"),
    ("vars 0\n", "line 1: need at least one variable"),
    ("vars 3\n1 2 3\n# a comment\nvars 4\n", "line 4: a second `vars` line"),
    ("\n1 2 5\nvars 3\n", "line 2: variable 5 out of range 1..3"),
    ("vars 2\n1 2 -1\n", "line 2: variable -1 out of range 1..2"),
    ("vars\n", "line 1: expected `vars <n>`"),
    ("vars 2 3\n", "line 1: expected `vars <n>`"),
    ("vars 3\n1 2 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
])
def test_gadget_input_errors_name_the_file_and_the_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.clauses"
    path.write_text(text)
    code, out, err = run_cli(capsys, "gadget", "--clauses", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


def _one_in_three(n_vars, clauses):
    """Whether some assignment makes exactly one variable true in every
    clause, by trying every assignment."""
    return any(
        all(sum(values[i - 1] for i in clause) == 1 for clause in clauses)
        for values in itertools.product((0, 1), repeat=n_vars)
    )


@st.composite
def _clauses_texts(draw):
    # At most three lines, so a text with one `vars` line (at most 4
    # variables) has at most two clauses: a valid gadget stays small.
    junk = st.sampled_from(["x", "vars", "#", "1.0", "0x1"])
    token = st.one_of(st.integers(-1, 5).map(str), junk)
    line = st.one_of(
        st.integers(-1, 4).map("vars {}".format),
        st.lists(token, max_size=4).map(" ".join),
        st.sampled_from(["", "# note", "vars", "1 2 3 # note"]),
    )
    return "\n".join(draw(st.lists(line, max_size=3))) + "\n"


def test_gadget_on_small_clause_files_answers_or_says_where():
    # Any small `.clauses` text either answers, with the verdict of a
    # search over every assignment, or is refused with one error line that
    # names the file; never an invariant (exit 2) or a traceback.
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_clauses_texts())
    def check(text):
        path = os.path.join(tmp, "case.clauses")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gadget", "--clauses", path])
        out, err = out.getvalue(), err.getvalue()
        outcomes.add(code)
        if code == 0:
            assert err == ""
            report = dict(line.split(" ", 1) for line in out.splitlines())
            n_vars = int(report["variables"])
            clauses = [
                tuple(map(int, line.split()))
                for line in (raw.split("#", 1)[0] for raw in text.splitlines())
                if line.split() and line.split()[0] != "vars"
            ]
            assert n_vars <= 4 and int(report["clauses"]) == len(clauses) <= 2
            want = "satisfiable" if _one_in_three(n_vars, clauses) else "unsatisfiable"
            assert report["verdict"] == want, text
        else:
            assert code == 1 and out == "", (code, text)
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    with tempfile.TemporaryDirectory() as tmp:
        check()
    assert outcomes == {0, 1}


def test_verify_worked_example(capsys):
    code, out, _ = run_cli(capsys, "verify", str(case_path("example4bus.json")))
    assert code == 0
    assert "FAIL" not in out
    assert "oracle-sandwich" in out and "oracle-exactness" in out


def test_verify_many_seeded_cases(capsys, tmp_path):
    rng = random.Random(97)
    for i in range(50):
        net, meas, _ = random_observable_case(rng, max_buses=7, max_lines=9)
        case = CaseFile(net=net, meas=meas, weights=None)
        path = tmp_path / f"case{i}.json"
        path.write_text(emit_native(case))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0, (i, out, err)
        assert "FAIL" not in out


def test_verify_builds_one_measurement_matrix(capsys, tmp_path, monkeypatch):
    # the oracle and all three index runs share the matrix verify builds,
    # so it is assembled and factored once per case
    built = []
    init = power_model.ModelMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(power_model.ModelMatrix, "__init__", counted)
    cases = [str(case_path("example4bus.json"))]
    rng = random.Random(5)
    for i in range(5):
        net, meas, _ = random_observable_case(rng, max_buses=7, max_lines=9)
        path = tmp_path / f"case{i}.json"
        path.write_text(emit_native(CaseFile(net=net, meas=meas, weights=None)))
        cases.append(str(path))
    for case in cases:
        del built[:]
        code, out, _ = run_cli(capsys, "verify", case)
        assert code == 0 and "FAIL" not in out
        assert len(built) == 1, case
        assert built[0]._range_basis is not None


def test_sidecar_rejected_for_native_cases(capsys):
    code, _, err = run_cli(
        capsys,
        "index",
        str(case_path("example4bus.json")),
        "--measurements",
        str(case_path("example4bus.json")),
    )
    assert code == 1 and "sidecar" in err


def test_huge_reactance_gives_the_unit_reactance_answers(capsys, tmp_path):
    # A reactance of 1e10 puts 1e-10 into its rows of the measurement
    # matrix, one of 1e-12 puts 1e12 there; whether an attack touches a row
    # or charges a bus must not depend on that scale, nor may the residual
    # guard's verdict. On the path the line is a bridge, so the rank and
    # kernel decisions see the scale too.
    shapes = {
        "triangle": lambda x: [[1, 2, 1.0], [2, 3, x], [1, 3, 1.0]],
        "path": lambda x: [[1, 2, 1.0], [2, 3, x]],
    }
    for shape, lines in shapes.items():
        outputs = {}
        for x in (1.0, 1e10, 1e-12):
            path = tmp_path / f"{shape}{x:g}.json"
            path.write_text(json.dumps({
                "buses": 3,
                "lines": lines(x),
                "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"},
            }))
            count = 2 * len(lines(x)) + 3  # flow at both ends, injection at each bus
            runs = [("index", str(path), "--method", m) for m in ("exact", "ignore-nodes", "fold-nodes")]
            runs += [("attack", str(path), "--target", str(k)) for k in range(1, count + 1)]
            runs.append(("verify", str(path)))
            outputs[x] = []
            for argv in runs:
                code, out, err = run_cli(capsys, *argv)
                assert code == 0, (shape, x, argv, err)
                outputs[x].append(out)
        for x in (1e10, 1e-12):
            for index_csv in range(3):
                assert outputs[x][index_csv] == outputs[1.0][index_csv]
            assert "FAIL" not in outputs[x][-1], (shape, x)


def test_verify_judges_row_sums_relative_to_the_row(capsys, tmp_path):
    # Rows of a tiny-reactance mesh hold entries near 1e9 or 1e12, whose sum
    # rounds to far more than an absolute 1e-9; the row-sum check, like the
    # support rule, must judge it against the row's own magnitude.
    rng = random.Random(9)
    for scale in (1e-9, 1e-12):
        for i in range(6):
            n = rng.randint(4, 8)
            ends = [(b, b + 1) for b in range(1, n)] + [(1, n), (2, n)]
            path = tmp_path / f"mesh{scale:g}-{i}.json"
            path.write_text(json.dumps({
                "buses": n,
                "lines": [[u, v, round(rng.uniform(0.1, 1.0), 3) * scale] for u, v in ends],
                "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"},
            }))
            code, out, _ = run_cli(capsys, "verify", str(path))
            assert code == 0 and "FAIL" not in out, (scale, i, out)
            assert out.startswith("PASS row-sums-zero (max ")


def test_verify_fails_where_the_oracle_finds_no_attack(capsys, monkeypatch):
    def no_attack(net, meas, weights, edge_targets, node_targets, model):
        keys = [("edge", t) for t in edge_targets] + [("node", t) for t in node_targets]
        return dict.fromkeys(keys, oracle.INFEASIBLE)

    monkeypatch.setattr(oracle, "oracle_continuous_network", no_attack)
    code, out, _ = run_cli(capsys, "verify", str(case_path("example4bus.json")))
    assert code == 2
    assert "FAIL oracle-sandwich" in out and "FAIL oracle-exactness" in out



class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_pipe_is_a_quiet_success(capsys, tmp_path, monkeypatch):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["index", str(case_path("example4bus.json"))]) == 0
        assert main(["cut", str(case_path("comparison.cut"))]) == 0
        # the descriptor now leads to the null device
        os.write(fd, b"left over")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def test_failed_out_write_is_still_an_error(capsys, tmp_path, monkeypatch):
    case = str(case_path("example4bus.json"))
    code, _, err = run_cli(capsys, "index", case, "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: ")

    class BrokenFile:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    # stdout is closed too, but the broken pipe is the output file's
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(-1))
    monkeypatch.setattr(cli, "open", lambda *a, **k: BrokenFile(), raising=False)
    code, _, err = run_cli(capsys, "index", case, "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err == "error: [Errno 32] Broken pipe\n"


def test_fractional_values_print_as_n_over_d(capsys, tmp_path):
    case = tmp_path / "frac.json"
    case.write_text(
        '{"buses": 4, "lines": [[1, 2, 1.0], [1, 3, 1.0], [2, 4, 1.0]],'
        ' "measurements": {"flow_from": [1, 2, 3], "flow_to": [1], "injection": [1]},'
        ' "weights": {"edge_costs": {"3": "1/2"}, "node_costs": {"1": "3/2"}}}'
    )
    code, out, _ = run_cli(capsys, "index", str(case), "--target", "3")
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["index"], row["error_bound"], row["attack_support"]) == ("1/2", "1/2", "3")

    inst = tmp_path / "frac.cut"
    inst.write_text("nodes 3\nedge 1 2 1/2\nedge 2 3 1/3\nnode 2 1/4\nsource 1\nsink 3\n")
    code, out, _ = run_cli(capsys, "cut", str(inst))
    assert code == 0
    assert out.splitlines()[0] == "objective 7/12"


def test_verify_skips_the_oracle_past_max_size(capsys, tmp_path):
    net = power_model.PowerNetwork(
        bus_count=13, lines=tuple((i, i + 1, 1.0) for i in range(12))
    )
    case = tmp_path / "path13.json"
    case.write_text(emit_native(CaseFile(net=net, meas=power_model.full_measurement(net))))
    code, out, _ = run_cli(capsys, "verify", str(case))
    assert code == 0 and "FAIL" not in out
    assert out.splitlines()[-1] == "SKIP oracle-cross-check (case larger than --max-size 12)"


def _recorded_verify(capsys, monkeypatch, case, *flags):
    """``secindex verify`` on ``case``, recording what it makes: the
    reports (``IndexReport``), every attack ``attack_from_partition``
    builds, every side and cut direction a solver carries, and the
    ``delta_z`` each least-squares cross-check (``bdd_residual``) reads.
    The recorders are removed before it returns."""
    seen = {"reports": [], "built": [], "sides": set(), "checked": []}
    with monkeypatch.context() as patch:
        report, attack, residual = indices.IndexReport, indices.attack_from_partition, cli.bdd_residual

        def reported(entries):
            seen["reports"].append(report(entries=entries))
            return seen["reports"][-1]

        def built(*args, **kwargs):
            seen["built"].append(attack(*args, **kwargs))
            return seen["built"][-1]

        def checked(model, delta_z):
            seen["checked"].append(delta_z)
            return residual(model, delta_z)

        patch.setattr(indices, "IndexReport", reported)
        patch.setattr(indices, "attack_from_partition", built)
        patch.setattr(cli, "bdd_residual", checked)
        for name in indices._SOLVERS.values():
            def carried(inst, solve=getattr(costly_cut, name)):
                sol = solve(inst)
                seen["sides"].add((sol.side, sol.is_sink))
                return sol

            patch.setattr(costly_cut, name, carried)
        seen["code"], seen["out"], _ = run_cli(capsys, "verify", str(case), *flags)
    return seen


def _verify_cases(tmp_path):
    """The worked 4-bus example and a few of the benchmark's seed-1 desk
    cases, among them partial placements."""
    generate = benchmark_generate()
    paths = [case_path("example4bus.json")]
    for i in range(0, len(generate.DESK_CLASSES), 9):
        paths.append(tmp_path / f"desk-{i}.json")
        paths[-1].write_bytes(generate.dump(generate.desk_case(1, i)))
    return paths


def test_verify_builds_each_distinct_attack_once_across_its_three_methods(
    capsys, monkeypatch, tmp_path
):
    # The three methods share one case state: one attack per distinct side
    # and cut direction that any method's cut carries, not one per method.
    # Each report equals its own index_all run, entry by entry.
    shared = 0
    for path in _verify_cases(tmp_path):
        case = parse_native(path)
        model = power_model.build_h(case.net, case.meas)
        alone = [indices.index_all(case.net, case.meas, case.weights, method=method, model=model)
                 for method in indices.METHODS]
        seen = _recorded_verify(capsys, monkeypatch, path)
        assert seen["code"] == 0 and "FAIL" not in seen["out"], (path, seen["out"])
        assert len(seen["built"]) == len(seen["sides"]), path
        assert len(seen["reports"]) == len(indices.METHODS), path
        for want, got in zip(alone, seen["reports"]):
            assert len(got.entries) == len(want.entries) == case.meas.measurement_count
            for e, f in zip(want.entries, got.entries):
                assert (e.measurement, e.kind, e.target, e.index, e.exact, e.error_bound, e.method) \
                    == (f.measurement, f.kind, f.target, f.index, f.exact, f.error_bound, f.method)
                assert e.attack.support == f.attack.support
                assert e.attack.residual_inf == f.attack.residual_inf
        built = {id(a) for a in seen["built"]}
        per_method = [{id(e.attack) for e in r.entries} for r in seen["reports"]]
        assert set().union(*per_method) <= built
        shared += sum(map(len, per_method)) - len(set().union(*per_method))
    # the methods do carry sides in common, which separate engines rebuild
    assert shared > 0


def test_verify_cross_checks_attacks_by_least_squares_at_desk_scale(
    capsys, monkeypatch, tmp_path
):
    # At desk scale every attack of the exact report is cross-checked by
    # least squares, once per distinct attack however many entries share
    # it; past --max-size the witness alone decides.
    shared = 0
    for path in _verify_cases(tmp_path):
        seen = _recorded_verify(capsys, monkeypatch, path)
        exact = seen["reports"][0]
        attacks = {id(e.attack): e.attack for e in exact.entries}
        assert sorted(map(id, seen["checked"])) == sorted(id(a.delta_z) for a in attacks.values())
        shared += len(exact.entries) - len(attacks)
        assert not _recorded_verify(capsys, monkeypatch, path, "--max-size", "2")["checked"]
    assert shared > 0
    # A least-squares residual over the tolerance fails attack-residuals
    # where the oracles run.
    case = str(case_path("example4bus.json"))
    monkeypatch.setattr(cli, "bdd_residual", lambda model, delta_z: delta_z + 1.0)
    code, out, _ = run_cli(capsys, "verify", case)
    assert code == 2 and "FAIL attack-residuals (max " in out
    code, out, _ = run_cli(capsys, "verify", case, "--max-size", "3")
    assert code == 0 and "PASS attack-residuals (max " in out


def test_failed_invariant_exits_2(capsys, monkeypatch):
    evaluate = costly_cut.evaluate_partition

    def off_by_one(inst, *side):
        objective, cut_edges, charged = evaluate(inst, *side)
        return objective + 1, cut_edges, charged

    monkeypatch.setattr(costly_cut, "evaluate_partition", off_by_one)
    code, out, err = run_cli(capsys, "cut", str(case_path("comparison.cut")))
    assert code == 2 and out == ""
    assert err == "internal invariant violated: partition objective 9 disagrees with cut value 8\n"


def test_main_builds_its_parser_once_and_keeps_no_state(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    case = str(case_path("example4bus.json"))
    errors = []
    for _ in range(2):
        assert main(["index", case, "--target", "1", "--all"]) == 1
        assert main(["attack", case]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: --target and --all are mutually exclusive\nerror: ")
    assert "--target" in errors[0].splitlines()[1]
    # a --target of one call is not the default of the next
    assert main(["index", case, "--target", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["index", case]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert len(parsers) == 6 and all(p is parsers[0] for p in parsers)
