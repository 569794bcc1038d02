import random

from helpers import random_observable_case
from secindex import costly_cut
from secindex.caseio import CaseFile, emit_native, parse_matpower_subset, parse_native
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


def test_cut_command_on_comparison_instance(capsys):
    code, out, _ = run_cli(capsys, "cut", str(case_path("comparison.cut")))
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["objective"] == "8"
    assert lines["source_side"] == "1"
    assert set(lines["sink_side"].split()) == {"2", "3", "4"}
    assert set(lines["charged_nodes"].split()) == {"1", "2", "3"}


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


def test_gadget_command(capsys, tmp_path):
    sat = tmp_path / "sat.clauses"
    sat.write_text("vars 3\n1 2 3\n")
    code, out, _ = run_cli(capsys, "gadget", "--clauses", str(sat))
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


def test_sidecar_rejected_for_native_cases(capsys):
    code, _, err = run_cli(
        capsys,
        "index",
        str(case_path("example4bus.json")),
        "--measurements",
        str(case_path("example4bus.json")),
    )
    assert code == 1 and "sidecar" in err
