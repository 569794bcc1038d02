"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Later criteria reuse attacks collected by earlier ones, so run the
module as a whole.
"""

import random
import time
from pathlib import Path

import numpy as np

from helpers import random_network, random_observable_case
from secindex import (
    WeightAssignment,
    baseline_fold_nodes,
    baseline_ignore_nodes,
    build_3sat_gadget,
    build_auxiliary,
    build_h,
    full_measurement,
    hat_matrix,
    index_all,
    min_cut,
    oracle_continuous,
    oracle_continuous_network,
    solve,
    solve_brute_force,
    solve_fold_nodes,
    solve_ignore_nodes,
    binary_gap_bound,
)
from secindex.caseio import parse_cut_instance, parse_matpower_subset, parse_native
from secindex.cases import path as case_path
from secindex.cli import main as cli_main
from secindex.oracle import attack_cost
from test_costly_cut import random_instance
from test_power_model import WORKED_K, worked_model_published_order

# Attacks produced while running criteria 1, 4, and 5; criterion 6 audits them.
COLLECTED = []


def _stamp(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_worked_example_indices(capsys):
    t0 = time.monotonic()
    case = parse_native(case_path("example4bus.json"))
    report = index_all(case.net, case.meas)
    elapsed = time.monotonic() - t0

    # Reference values keyed by measurement identity; the published listing
    # orders them injection@1, flow 1-2 out, flow 1-2 in, flow 2-4, flow 1-3
    # and reads (2, 3, 3, 1, 2).
    expected = {
        ("injection", 0): 2,
        ("flow_from", 0): 3,
        ("flow_to", 0): 3,
        ("flow_from", 2): 1,
        ("flow_from", 1): 2,
    }
    assert report.by_measurement() == expected
    published_order = [
        ("injection", 0),
        ("flow_from", 0),
        ("flow_to", 0),
        ("flow_from", 2),
        ("flow_from", 1),
    ]
    assert [expected[key] for key in published_order] == [2, 3, 3, 1, 2]
    assert all(e.exact for e in report.entries)
    assert elapsed < 1.0

    # the CLI path reports the same values with exact=true
    code = cli_main(["index", str(case_path("example4bus.json")), "--all"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_target = {(r[1], r[2]): (r[3], r[4]) for r in rows}
    assert by_target[("injection", "1")] == ("2", "true")
    assert by_target[("flow_from", "1")] == ("3", "true")
    assert by_target[("flow_to", "1")] == ("3", "true")
    assert by_target[("flow_from", "3")] == ("1", "true")
    assert by_target[("flow_from", "2")] == ("2", "true")

    for entry in report.entries:
        COLLECTED.append((case.net, case.meas, None, entry))
    with capsys.disabled():
        _stamp(1, f"indices (2,3,3,1,2), {elapsed:.3f}s")


def test_criterion_2_hat_matrix(capsys):
    k = hat_matrix(worked_model_published_order())  # unit weights
    error = np.abs(k - WORKED_K).max()
    assert error <= 1e-9
    assert np.abs(k[3] - np.eye(5)[3]).max() <= 1e-9  # the critical row
    with capsys.disabled():
        _stamp(2, f"entrywise error {error:.2e}")


def test_criterion_3_costly_cut_equivalence(capsys):
    t0 = time.monotonic()
    rng = random.Random(20240803)
    trials = 220
    for trial in range(trials):
        inst = random_instance(rng, symmetric=trial % 2 == 0, max_nodes=12)
        fast = solve(inst)
        slow = solve_brute_force(inst)
        assert fast.objective == slow.objective, trial
        aux = build_auxiliary(inst)
        cut = min_cut(aux.graph, inst.source, inst.sink)
        assert not (set(cut.cut_edges) & aux.big_cost_edges), trial
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _stamp(3, f"{trials} instances, {elapsed:.2f}s")


def test_criterion_4_full_measurement_exactness(capsys):
    t0 = time.monotonic()
    rng = random.Random(20240804)
    networks = 100
    comparisons = 0
    rowset_checks = 0
    for trial in range(networks):
        net = random_network(rng, min_buses=4, max_buses=10, max_lines=15)
        meas = full_measurement(net)
        model = build_h(net, meas)
        report = index_all(net, meas, model=model)
        lines = sorted({e.target for e in report.entries if e.kind != "injection"})
        buses = [e.target for e in report.entries if e.kind == "injection"]
        res = oracle_continuous_network(
            net, meas, edge_targets=lines, node_targets=buses, model=model
        )
        for e in report.entries:
            key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
            assert e.exact
            assert e.index == res[key].optimum, (trial, e.kind, e.target)
            comparisons += 1
            COLLECTED.append((net, meas, model, e))
        # On the smallest systems, also confirm against the direct row-set
        # search so the two oracle implementations certify each other here.
        if net.bus_count <= 6 and rowset_checks < 30:
            for e in report.entries[:3]:
                direct = oracle_continuous(
                    model.h,
                    e.measurement,
                    row_groups=_paired_groups(meas),
                )
                assert direct.optimum == e.index
                rowset_checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        _stamp(4, f"{networks} networks, {comparisons} comparisons, {elapsed:.1f}s")


def _paired_groups(meas):
    order = meas.ordering()
    groups, used = [], set()
    for k, (kind, ident) in enumerate(order):
        if k in used:
            continue
        if kind == "flow_from" and ("flow_to", ident) in order:
            k2 = order.index(("flow_to", ident))
            groups.append((k, k2))
            used.update((k, k2))
        else:
            groups.append((k,))
            used.add(k)
    return groups


def test_criterion_5_bound_on_partial_placements(capsys):
    t0 = time.monotonic()
    rng = random.Random(20240805)
    cases = 100
    gaps = 0
    for trial in range(cases):
        net, meas, model = random_observable_case(rng, min_buses=4, max_buses=10, max_lines=15)
        report = index_all(net, meas, model=model)
        weights = WeightAssignment.from_placement(net, meas)
        bound = binary_gap_bound(net, weights)
        lines = sorted({e.target for e in report.entries if e.kind != "injection"})
        buses = [e.target for e in report.entries if e.kind == "injection"]
        res = oracle_continuous_network(
            net, meas, edge_targets=lines, node_targets=buses, model=model
        )
        for e in report.entries:
            key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
            gap = e.index - res[key].optimum
            assert 0 <= gap <= bound, (trial, e.kind, e.target, gap, bound)
            if e.exact:
                assert gap == 0
            gaps += gap > 0
            COLLECTED.append((net, meas, model, e))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _stamp(5, f"{cases} observable placements, {gaps} strict gaps, {elapsed:.1f}s")


def test_criterion_6_attack_unobservability(capsys):
    assert COLLECTED, "criteria 1, 4, 5 populate the attack pool"
    checked = 0
    for net, meas, model, entry in COLLECTED:
        attack = entry.attack
        assert attack.residual_inf <= 1e-9
        w = WeightAssignment.from_placement(net, meas)
        c, p = w.edge_costs, w.node_costs
        assert attack_cost(net, c, p, attack.delta_theta) == entry.index
        assert entry.measurement in attack.support
        checked += 1
    with capsys.disabled():
        _stamp(6, f"{checked} attacks, residuals <= 1e-9, support costs match")


def test_criterion_7_comparison_instance(capsys):
    inst = parse_cut_instance(case_path("comparison.cut"))
    exact = solve(inst)
    assert exact.objective == 8
    assert exact.source_side == frozenset({0})
    for heuristic in (solve_ignore_nodes, solve_fold_nodes):
        sol = heuristic(inst)
        assert sol.source_side == frozenset({0, 1, 2})
        assert sol.objective == 9
    with capsys.disabled():
        _stamp(7, "exact 8 at {source}; both heuristics pick the cost-9 partition")


def test_criterion_8_118_bus_full_measurement(capsys):
    t0 = time.monotonic()
    case = parse_matpower_subset(case_path("ieee118.m"))
    assert case.net.bus_count == 118
    assert case.net.line_count == 186
    assert case.meas.measurement_count == 118 + 2 * 186 == 490
    model = build_h(case.net, case.meas)
    exact = index_all(case.net, case.meas, model=model)
    ignore = baseline_ignore_nodes(case.net, case.meas, model=model)
    fold = baseline_fold_nodes(case.net, case.meas, model=model)
    assert len(exact.entries) == 490
    for e, i, f in zip(exact.entries, ignore.entries, fold.entries):
        assert e.index == i.index == f.index, (e.kind, e.target)
        assert e.exact
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        _stamp(8, f"490 indices, three methods agree, {elapsed:.1f}s")


def test_criterion_9_gadget_behavior(capsys):
    t0 = time.monotonic()

    def one_in_three_satisfiable(clauses, n):
        for mask in range(1 << n):
            bits = [(mask >> i) & 1 for i in range(n)]
            if all(bits[a - 1] + bits[b - 1] + bits[c - 1] == 1 for (a, b, c) in clauses):
                return True
        return False

    sat_clauses = [(1, 2, 3)]
    assert one_in_three_satisfiable(sat_clauses, 3)
    gadget = build_3sat_gadget(sat_clauses, 3)
    model = build_h(gadget.net, gadget.meas)
    result = oracle_continuous(model.h, gadget.target)
    assert result.optimum == 3 + 1

    unsat_clauses = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert not one_in_three_satisfiable(unsat_clauses, 4)
    gadget = build_3sat_gadget(unsat_clauses, 4)
    model = build_h(gadget.net, gadget.meas)
    result = oracle_continuous(model.h, gadget.target)
    assert result.optimum > 4 + 1

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        _stamp(9, f"satisfiable -> 4, unsatisfiable -> {result.optimum} > 5, {elapsed:.1f}s")


def test_criterion_10_out_of_scope_statement(capsys):
    # Stated explicitly: the 2383-bus timing study is not reproduced here
    # (its case data is not bundled and timings are hardware-bound), and the
    # partially measured 118-bus reference values are not reproduced
    # bit-for-bit (the published random placement is unavailable and the
    # big-M integer program is out of scope; the randomized bound suite in
    # criteria 4-6 covers the same ground). The README carries the notice.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "2383" in text
    assert "big-M" in text or "big M" in text
    with capsys.disabled():
        _stamp(10, "non-reproduced studies documented in README")


def test_readme_library_example_runs(capsys):
    # The python block under README's "Library example" heading, run as
    # written: the worked example's five indices, with their attacks.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "flow_from 1 3 True (0, 3, 4)",
        "flow_from 2 2 True (1, 4)",
        "flow_from 3 1 True (2,)",
        "flow_to 1 3 True (0, 3, 4)",
        "injection 1 2 True (1, 4)",
    ]
