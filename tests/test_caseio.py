import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_row_lines
from secindex import CaseParseError, MeasurementPlacement
from secindex.caseio import (
    emit_native,
    parse_cut_instance,
    parse_cut_instance_text,
    parse_matpower_subset,
    parse_native,
    parse_native_text,
)
from secindex.cases import path as case_path
from secindex.cli import main

MINIMAL_CASE = """
{
  "buses": 2,
  "lines": [[1, 2, 0.5]],
  "measurements": {"flow_from": [1], "injection": "all"}
}
"""

MATPOWER_TWO_BUS = """
function mpc = tiny
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t1\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
\t2\t1\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.06\t0.94;
];
mpc.branch = [
\t1\t2\t0\t0.25\t0\t0\t0\t0\t0\t0\t1\t-360\t360;
];
"""


def test_parse_minimal_native():
    case = parse_native_text(MINIMAL_CASE)
    assert case.net.bus_count == 2
    assert case.net.lines == ((0, 1, 0.5),)
    assert case.meas.flow_from == (0,)
    assert case.meas.injection == (0, 1)
    assert case.weights is None


def test_round_trip_is_stable():
    original = parse_native(case_path("example4bus.json"))
    emitted = emit_native(original)
    reparsed = parse_native_text(emitted)
    assert reparsed == original
    assert emit_native(reparsed) == emitted


def test_all_keyword_expands_fully():
    text = """
    {"buses": 3,
     "lines": [[1,2,1.0],[2,3,1.0]],
     "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"}}
    """
    case = parse_native_text(text)
    assert case.meas.flow_from == (0, 1)
    assert case.meas.flow_to == (0, 1)
    assert case.meas.injection == (0, 1, 2)


def test_weights_round_trip():
    text = """
    {"buses": 2,
     "lines": [[1,2,1.0]],
     "measurements": {"flow_from": "all"},
     "weights": {"edge_costs": {"1": "3/2"}, "node_costs": {"2": 4}}}
    """
    case = parse_native_text(text)
    assert case.weights.edge_costs == (Fraction(3, 2),)
    assert case.weights.node_costs == (Fraction(0), Fraction(4))
    assert parse_native_text(emit_native(case)) == case


def test_unknown_keys_rejected():
    with pytest.raises(CaseParseError):
        parse_native_text('{"buses": 2, "lines": [[1,2,1.0]], "measurements": {}, "extra": 1}')
    with pytest.raises(CaseParseError):
        parse_native_text(
            '{"buses": 2, "lines": [[1,2,1.0]], "measurements": {"bogus": []}}'
        )
    with pytest.raises(CaseParseError):
        parse_native_text(
            '{"buses": 2, "lines": [[1,2,1.0]], "measurements": {}, '
            '"weights": {"bogus": {}}}'
        )


def test_dangling_ids_rejected():
    with pytest.raises(CaseParseError):
        parse_native_text('{"buses": 2, "lines": [[1,3,1.0]], "measurements": {}}')
    with pytest.raises(CaseParseError):
        parse_native_text(
            '{"buses": 2, "lines": [[1,2,1.0]], "measurements": {"flow_from": [2]}}'
        )
    with pytest.raises(CaseParseError):
        parse_native_text(
            '{"buses": 2, "lines": [[1,2,1.0]], "measurements": {"injection": [5]}}'
        )


def test_nonpositive_reactance_rejected():
    with pytest.raises(CaseParseError):
        parse_native_text('{"buses": 2, "lines": [[1,2,0.0]], "measurements": {}}')


def test_self_loop_names_the_files_bus_id():
    with pytest.raises(CaseParseError, match=r"lines\[1\]: self-loop at bus 2$"):
        parse_native_text('{"buses": 2, "lines": [[1,2,1.0],[2,2,1.0]], "measurements": {}}')


def test_matpower_self_loop_names_the_files_bus_id(tmp_path):
    # bus 5 is the fourth bus listed, internal index 3
    rows = [(1, 2), (2, 3), (3, 5), (5, 7), (5, 5)]
    case = tmp_path / "loop.m"
    case.write_text(
        "mpc.bus = [\n" + "".join(f"{b} 1 0 0;\n" for b in (1, 2, 3, 5, 7)) + "];\n"
        "mpc.branch = [\n" + "".join(f"{u} {v} 0 0.1;\n" for u, v in rows) + "];\n"
    )
    with pytest.raises(CaseParseError, match=r"branch row 5: self-loop at bus 5$"):
        parse_matpower_subset(case)


def test_syntax_error_reports_position():
    with pytest.raises(CaseParseError) as err:
        parse_native_text('{"buses": 2,\n  "lines": oops}')
    assert "line 2" in str(err.value)


def test_matpower_minimal():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".m", delete=False) as fh:
        fh.write(MATPOWER_TWO_BUS)
        name = fh.name
    try:
        case = parse_matpower_subset(name)
        assert case.net.bus_count == 2
        assert case.net.lines == ((0, 1, 0.25),)
        assert case.bus_ids == (1, 2)
        # full measurement by default
        assert case.meas.flow_from == (0,)
        assert case.meas.flow_to == (0,)
        assert case.meas.injection == (0, 1)
    finally:
        os.unlink(name)


def test_matpower_skips_out_of_service_branches():
    import tempfile, os

    text = MATPOWER_TWO_BUS.replace(
        "mpc.branch = [\n\t1\t2\t0\t0.25\t0\t0\t0\t0\t0\t0\t1\t-360\t360;",
        "mpc.branch = [\n"
        "\t1\t2\t0\t0.25\t0\t0\t0\t0\t0\t0\t1\t-360\t360;\n"
        "\t1\t2\t0\t0.5\t0\t0\t0\t0\t0\t0\t0\t-360\t360;",
    )
    with tempfile.NamedTemporaryFile("w", suffix=".m", delete=False) as fh:
        fh.write(text)
        name = fh.name
    try:
        case = parse_matpower_subset(name)
        assert case.net.line_count == 1
    finally:
        os.unlink(name)


def test_matpower_bundled_benchmark_counts():
    case = parse_matpower_subset(case_path("ieee118.m"))
    assert case.net.bus_count == 118
    assert case.net.line_count == 186
    assert case.meas.measurement_count == 118 + 2 * 186


def test_matpower_sidecar_override():
    import json, tempfile, os

    sidecar = {"measurements": {"flow_from": [1], "flow_to": [], "injection": [2]}}
    with tempfile.NamedTemporaryFile("w", suffix=".m", delete=False) as fh:
        fh.write(MATPOWER_TWO_BUS)
        mname = fh.name
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(sidecar, fh)
        sname = fh.name
    try:
        case = parse_matpower_subset(mname, sidecar_path=sname)
        assert case.meas == MeasurementPlacement(flow_from=(0,), flow_to=(), injection=(1,))
    finally:
        os.unlink(mname)
        os.unlink(sname)


def test_matpower_sidecar_weights_name_buses_by_the_files_ids(tmp_path):
    # Bus ids 10, 20 and 30: a sidecar's node_costs keys are the file's bus
    # ids, as its injection list is, so "20" charges the second bus; the
    # index is the native triangle's with bus 2 charged the same, and its
    # injection rows name each bus by the file's id.
    files = _matpower_case((10, 20, 30), ((1, 2, "0.1"), (2, 3, "0.2"), (1, 3, "0.3")))
    (tmp_path / "case.m").write_text(files["case.m"])
    (tmp_path / "side.json").write_text('{"weights": {"node_costs": {"20": 2}}}')
    case = parse_matpower_subset(tmp_path / "case.m", sidecar_path=tmp_path / "side.json")
    assert case.weights.node_costs == (1, 2, 1) and case.bus_ids == (10, 20, 30)
    native = json.loads(NATIVE_TRIANGLE)
    native["lines"] = [[1, 2, 0.1], [2, 3, 0.2], [1, 3, 0.3]]
    native["measurements"] = {"flow_from": "all", "flow_to": "all", "injection": "all"}
    native["weights"] = {"node_costs": {"2": 2}}
    (tmp_path / "case.json").write_text(json.dumps(native))
    csvs = []
    for argv in (["index", str(tmp_path / "case.m"), "--measurements", str(tmp_path / "side.json")],
                 ["index", str(tmp_path / "case.json")]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        csvs.append(out.getvalue())
    want = csvs[1]
    for b in (1, 2, 3):
        want = want.replace(f",injection,{b},", f",injection,{10 * b},")
    assert csvs[0] == want != csvs[1]


def test_cut_instance_round_trip_fields():
    inst = parse_cut_instance(case_path("comparison.cut"))
    assert inst.node_count == 4
    assert inst.source == 0 and inst.sink == 3
    assert inst.node_costs == (Fraction(2), Fraction(0), Fraction(4), Fraction(4))
    assert len(inst.edges) == 8


def test_cut_instance_errors():
    with pytest.raises(CaseParseError):
        parse_cut_instance_text("edge 1 2 3\nsource 1\nsink 2\n")  # missing nodes
    with pytest.raises(CaseParseError):
        parse_cut_instance_text("nodes 2\nedge 1 2 3\nsource 1\n")  # missing sink
    with pytest.raises(CaseParseError):
        parse_cut_instance_text("nodes 2\nfrobnicate 1\nsource 1\nsink 2\n")
    with pytest.raises(CaseParseError):
        parse_cut_instance_text("nodes 2\nedge 1 2 -3\nsource 1\nsink 2\n")
    with pytest.raises(CaseParseError):
        parse_cut_instance_text("nodes 2\nedge 1 two 3\nsource 1\nsink 2\n")


MATPOWER_TRIANGLE = """
mpc.bus = [
1 3 0 0;
2 1 0 0;
3 1 0 0;
];
mpc.branch = [
1 2 0 0.1;
2 3 0 0.2;
1 3 0 0.3;
];
"""
NATIVE_TRIANGLE = (
    '{"buses": 3, "lines": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]], '
    '"measurements": {"flow_from": "all"}}'
)


def _native(old, new):
    assert NATIVE_TRIANGLE.count(old) == 1
    return {"case.json": NATIVE_TRIANGLE.replace(old, new)}


def _matpower(old, new):
    assert MATPOWER_TRIANGLE.count(old) == 1
    return {"case.m": MATPOWER_TRIANGLE.replace(old, new)}


def _sidecar(text):
    return {"case.m": MATPOWER_TRIANGLE, "side.json": text}


# A metered injection at bus 2 of this triangle reads 1e308 + 1e308 = inf.
_TINY_REACTANCES = ((1, 2, "1e-308"), (2, 3, "1e-308"), (1, 3, "0.3"))


def _matpower_case(bus_ids, lines):
    rows = "".join(f"{bus_ids[u - 1]} {bus_ids[v - 1]} 0 {x};\n" for u, v, x in lines)
    buses = "".join(f"{b} 1 0 0;\n" for b in bus_ids)
    return {"case.m": f"mpc.bus = [\n{buses}];\nmpc.branch = [\n{rows}];\n"}


@pytest.mark.parametrize(
    "files, message",
    [
        (_native("[[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]]", "{}"), "lines must be a list"),
        (_native("[2, 3, 1.0]", "[2, 3]"), "lines[1]: expected [from, to, reactance]"),
        (_native("[2, 3, 1.0]", '[2, "3", 1.0]'), "lines[1]: bus id '3' is not an integer"),
        (_native("[2, 3, 1.0]", '[2, 3, "x"]'), "lines[1]: reactance 'x' is not a number"),
        (_native('"all"}', '"all"}, "weights": []'), "weights must be an object"),
        (_native('"all"}', '"all"}, "weights": {"edge_costs": {"one": 1}}'),
         "weights.edge_costs: id 'one' is not an integer"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {"4": 1}}'),
         "weights.node_costs: id 4 out of range 1..3"),
        (_native('"all"}', '"all"}, "weights": {"edge_costs": {"2": 3, "02": 5}}'),
         "weights.edge_costs: id '02' is not an integer in plain digits"),
        (_native('"all"}', '"all"}, "weights": {"edge_costs": {"1_0": 1}}'),
         "weights.edge_costs: id '1_0' is not an integer in plain digits"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {" 2": 1}}'),
         "weights.node_costs: id ' 2' is not an integer in plain digits"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {"+2": 1}}'),
         "weights.node_costs: id '+2' is not an integer in plain digits"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {"\\u0662": 1}}'),
         "weights.node_costs: id '\u0662' is not an integer in plain digits"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {"0": 1}}'),
         "weights.node_costs: id 0 out of range 1..3"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": {"2": "-1"}}'),
         "weights.node_costs[2]: costs must be nonnegative, got -1"),
        (_native('"all"}', '"all"}, "weights": {"edge_costs": 5}'),
         "weights.edge_costs must be an object"),
        (_native('"all"}', '"all"}, "weights": {"node_costs": 1.5}'),
         "weights.node_costs must be an object"),
        ({"case.json": '{"buses": 1, "lines": [], "measurements": {"injection": "all"}}'},
         "metered injection at bus 1, which has no lines"),
        ({"case.json": json.dumps({
            "buses": 3, "lines": [[u, v, float(x)] for u, v, x in _TINY_REACTANCES],
            "measurements": {"flow_from": "all", "flow_to": "all", "injection": "all"}})},
         "metered injection at bus 2, whose lines' susceptances 1/x sum past the float range"),
        (_matpower("mpc.bus", "mpc.buses"), "missing mpc.bus matrix"),
        (_matpower("1 3 0 0;\n2 1 0 0;\n3 1 0 0;\n", "% no buses\n"), "bus matrix is empty"),
        (_matpower("3 1 0 0;", "2 1 0 0;"), "duplicate bus id 2"),
        (_matpower("2 3 0 0.2;", "2 3 0;"), "branch row 2: need at least 4 columns"),
        (_matpower("2 3 0 0.2;", "2 9 0 0.2;"), "branch row 2: unknown bus id 9"),
        (_matpower("2 3 0 0.2;", "2 3 0 x;"), "branch: non-numeric token in row 3: '2 3 0 x'"),
        (_matpower_case((-5, 20, 30), ((1, 2, "0.1"), (2, 3, "0.2"), (1, 3, "0.3"))),
         "bus row 1: bus id -5 is not positive"),
        (_matpower_case((10, 0, 30), ((1, 2, "0.1"), (2, 3, "0.2"), (1, 3, "0.3"))),
         "bus row 2: bus id 0 is not positive"),
        (_matpower_case((7,), ()), "metered injection at bus 7, which has no lines"),
        (_matpower_case((10, 20, 30), _TINY_REACTANCES),
         "metered injection at bus 20, whose lines' susceptances 1/x sum past the float range"),
        (_sidecar('{"measurements": {}, "placement": {}}'), "unknown keys: ['placement']"),
        (_sidecar('{"measurements": {"injection": [1, 7]}}'), "unknown bus id 7"),
        (_sidecar('{"weights": {"node_costs": [1]}}'), "weights.node_costs must be an object"),
        (_sidecar('{"measurements": 5}'), "measurements must be an object"),
        (_sidecar('{"measurements": {"injection": 5}}'),
         'measurements.injection must be a list of bus ids or "all"'),
        (_sidecar('{"measurements": {"injection": [[1]]}}'), "unknown bus id [1]"),
        (_sidecar('{"measurements": {"injection": [true]}}'), "unknown bus id True: not an integer"),
        (_sidecar('{"measurements": {"injection": [1.0]}}'), "unknown bus id 1.0: not an integer"),
        ({**_matpower_case((10, 20, 30), ((1, 2, "0.1"), (2, 3, "0.2"))),
          "side.json": '{"weights": {"node_costs": {"2": 2}}}'},
         "weights.node_costs: unknown bus id 2"),
        ({**_matpower_case((10, 20, 30), ((1, 2, "0.1"), (2, 3, "0.2"))),
          "side.json": '{"weights": {"node_costs": {"020": 2}}}'},
         "weights.node_costs: id '020' is not an integer in plain digits"),
        ({"inst.cut": "nodes 2 3\nsource 1\nsink 2\n"}, "line 1: nodes expects 1 arguments"),
        ({"inst.cut": "nodes 2\nedge 1 2\nsource 1\nsink 2\n"},
         "line 2: edge expects 3 arguments"),
        ({"inst.cut": "nodes 2\nnode 5 1\nsource 1\nsink 2\n"}, "node id 5 out of range"),
    ],
    ids=[
        "native-lines-not-list", "native-short-line", "native-string-bus",
        "native-string-reactance", "native-weights-not-object", "native-weight-id",
        "native-weight-range", "native-weight-leading-zero", "native-weight-underscore",
        "native-weight-space", "native-weight-plus", "native-weight-arabic-digit",
        "native-weight-zero", "native-weight-negative", "native-edge-costs-not-object",
        "native-node-costs-not-object", "native-injection-without-lines",
        "native-injection-past-float-range", "matpower-no-bus",
        "matpower-empty-bus", "matpower-duplicate-bus", "matpower-short-branch",
        "matpower-unknown-bus", "matpower-token", "matpower-negative-bus-id",
        "matpower-zero-bus-id", "matpower-injection-without-lines",
        "matpower-injection-past-float-range", "sidecar-unknown-key",
        "sidecar-unknown-bus", "sidecar-node-costs-not-object",
        "sidecar-measurements-not-object", "sidecar-injection-not-list",
        "sidecar-injection-id-list", "sidecar-injection-id-bool", "sidecar-injection-id-float",
        "sidecar-node-cost-position", "sidecar-node-cost-leading-zero",
        "cut-nodes-arity", "cut-edge-arity", "cut-node-range",
    ],
)
def test_malformed_files_are_input_errors_that_name_the_item(capsys, tmp_path, files, message):
    paths = [tmp_path / name for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text)
    first, bad = paths[0], paths[-1]  # a sidecar follows its case
    argv = ["cut" if first.suffix == ".cut" else "index", str(first)]
    if len(paths) > 1:
        argv += ["--measurements", str(bad)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and message in captured.err, captured.err


def test_too_few_lines_to_connect_is_rejected_before_any_bus_is_built(tmp_path):
    # A connected network of n buses has at least n - 1 lines, so a declared
    # size past that is refused in O(1), before a per-bus list or an "all"
    # placement is built. 30 million buses would take gigabytes: the run is
    # capped at 1 GB of address space, so building them fails fast instead.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "buses": 30_000_000,
        "lines": [[1, 2, 1.0], [2, 3, 1.0]],
        "measurements": {"flow_from": "all", "injection": "all"},
    }))
    capped = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from secindex.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", capped, "index", str(path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"error: {path}: network is not connected\n"


# Cells no bus id may be: bools, floats, and values of no number type.
_NOT_IDS = (True, False, 1.0, 2.5, -0.0, None, "1", [1], {"1": 1})
# Reactances that are not positive finite floats: a float's overflow, an
# int past the float range (either sign), and values of no number type.
_BAD_REACTANCES = (
    0, 0.0, -0.0, -1, -0.5, math.inf, -math.inf, math.nan,
    10**400, -(10**400), 2**1024 - 2**970, True, None, "1.0", [1.0],
)


@st.composite
def _bad_row(draw, buses, row):
    """A ``lines`` row that fails at least one check: ``row`` with one
    member spoiled, or a row of the wrong shape."""
    u, v, x = row
    kind = draw(st.sampled_from(("id", "range", "loop", "reactance", "length", "type")))
    if kind in ("id", "range"):
        bad = draw(st.sampled_from(_NOT_IDS)) if kind == "id" else draw(st.one_of(
            st.integers(max_value=0), st.integers(min_value=buses + 1),
            st.sampled_from((-(2**70), 2**70, 10**30)),
        ))
        return [bad, v, x] if draw(st.booleans()) else [u, bad, x]
    if kind == "loop":
        return [u, u, x]
    if kind == "reactance":
        return [u, v, draw(st.sampled_from(_BAD_REACTANCES))]
    if kind == "length":
        return draw(st.lists(st.integers(1, buses), max_size=5).filter(lambda r: len(r) != 3))
    return draw(st.sampled_from(("row", 5, None, 1.5, True, {"from": 1})))


@st.composite
def _grid_with_bad_rows(draw):
    """A connected native grid of 2 to 8 buses, its ``lines`` rows with
    one or more of them malformed."""
    buses = draw(st.integers(2, 8))
    rows = [[draw(st.integers(1, b - 1)), b, draw(st.sampled_from((0.1, 0.25, 1.0, 2)))]
            for b in range(2, buses + 1)]
    rows += [[draw(st.integers(1, buses)), draw(st.integers(1, buses)), 0.5]
             for _ in range(draw(st.integers(0, 4)))]
    rows = [row for row in rows if row[0] != row[1]]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True)):
        rows[i] = draw(_bad_row(buses, rows[i]))
    return buses, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grid_with_bad_rows())
def test_column_checks_name_the_row_the_per_row_loop_names(grid):
    # The reader's check of the native lines must tell a malformed file
    # exactly what the loop that checks one row at a time tells it: the
    # first failing row and, within it, the first failing check.
    buses, rows = grid
    every = {"flow_from": "all", "flow_to": "all", "injection": "all"}
    text = json.dumps({"buses": buses, "lines": rows, "measurements": every})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(CaseParseError) as expected:
            per_row_lines(path, json.loads(text)["lines"], buses)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["index", path])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == f"error: {expected.value}\n"


def test_column_checks_keep_the_reading_of_valid_rows():
    # Every valid row reads as the per-row loop reads it: ints past 64 bits
    # never reach an array, and an int reactance converts as ``float`` does.
    rows = [[1, 2, 1], [2, 3, 2**1024 - 2**970 - 1], [3, 1, 0.125], [1, 3, 10**20]]
    every = {"flow_from": "all", "flow_to": "all", "injection": "all"}
    case = parse_native_text(json.dumps({"buses": 3, "lines": rows, "measurements": every}))
    assert list(case.net.lines) == per_row_lines("<case>", rows, 3)
    assert all(type(u) is int and type(x) is float for u, _, x in case.net.lines)
    # a bus count past the lines is refused once the rows have been read
    for buses, message in ((10**30, "network is not connected"),
                           (2, "lines[1]: bus id 3 out of range 1..2")):
        with pytest.raises(CaseParseError, match=re.escape(f": {message}") + "$"):
            parse_native_text(json.dumps({"buses": buses, "lines": rows, "measurements": {}}))
