import random
from fractions import Fraction

import pytest

from helpers import random_network, random_observable_case, random_placement
from secindex import (
    InputError,
    MeasurementPlacement,
    PowerNetwork,
    WeightAssignment,
    baseline_fold_nodes,
    baseline_ignore_nodes,
    build_h,
    exactness_condition,
    full_measurement,
    index_all,
    index_edge_target,
    index_node_target,
    oracle_continuous_network,
    binary_gap_bound,
)
from secindex.caseio import parse_native
from secindex.cases import path as case_path
from secindex.oracle import attack_cost


def worked_case():
    case = parse_native(case_path("example4bus.json"))
    return case.net, case.meas


def test_worked_example_full_vector():
    net, meas = worked_case()
    report = index_all(net, meas)
    assert report.by_measurement() == {
        ("injection", 0): 2,
        ("flow_from", 0): 3,
        ("flow_to", 0): 3,
        ("flow_from", 2): 1,
        ("flow_from", 1): 2,
    }
    assert all(e.exact for e in report.entries)
    assert all(e.error_bound == 0 for e in report.entries)
    for e in report.entries:
        assert e.measurement in e.attack.support
        assert len(e.attack.support) == e.index


def test_empty_placement_empty_report():
    net, _ = worked_case()
    report = index_all(net, MeasurementPlacement())
    assert report.entries == ()


def test_two_bus_full_measurement_index_four():
    net = PowerNetwork(bus_count=2, lines=((0, 1, 1.0),))
    meas = full_measurement(net)
    entry = index_edge_target(net, meas, None, 0)
    assert entry.index == 4
    assert entry.exact


def test_derived_weights():
    net, meas = worked_case()
    w = WeightAssignment.from_placement(net, meas)
    assert w.edge_costs == (Fraction(2), Fraction(1), Fraction(1))
    assert w.node_costs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_exactness_clauses():
    # one condition certifies exactness: the gap bound reads zero
    net, meas = worked_case()
    w = WeightAssignment.from_placement(net, meas)
    exact, reason = exactness_condition(net, meas, w)
    assert exact and reason == "node costs never exceed incident edge costs"

    full = full_measurement(net)
    exact, reason = exactness_condition(net, full, WeightAssignment.from_placement(net, full))
    assert exact and reason == "node costs never exceed incident edge costs"

    # every unmetered line has unmetered endpoints -> zero bound clause
    chain = PowerNetwork(
        bus_count=4, lines=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    )
    sparse = MeasurementPlacement(flow_from=(0, 1), injection=(1,))
    ws = WeightAssignment.from_placement(chain, sparse)
    exact, reason = exactness_condition(chain, sparse, ws)
    assert exact and "never exceed" in reason

    # a metered injection whose incident lines are all unmetered
    bad = MeasurementPlacement(flow_from=(0,), injection=(3,))
    wb = WeightAssignment.from_placement(net, bad)
    exact, reason = exactness_condition(net, bad, wb)
    assert not exact and reason == "approximation bound applies"
    assert binary_gap_bound(net, wb) >= 1

    # the condition is the zero bound on custom weights too; derived weights
    # under full measurement (c = 2, p = 1) and every line metered with
    # p <= 1 <= c both satisfy it
    rng = random.Random(2024)
    choices = [Fraction(k, 2) for k in range(5)]
    outcomes = set()
    for _ in range(60):
        net, meas, _ = random_observable_case(rng, max_buses=8, max_lines=12)
        weights = WeightAssignment(
            edge_costs=[rng.choice(choices) for _ in range(net.line_count)],
            node_costs=[rng.choice(choices) for _ in range(net.bus_count)],
        )
        exact, _ = exactness_condition(net, meas, weights)
        assert exact == (binary_gap_bound(net, weights) == 0)
        outcomes.add(exact)

        full = full_measurement(net)
        assert exactness_condition(net, full, WeightAssignment.from_placement(net, full))[0]

        from_end = tuple(i for i in range(net.line_count) if rng.random() < 0.5)
        metered = MeasurementPlacement(
            flow_from=from_end,
            flow_to=tuple(i for i in range(net.line_count) if i not in from_end),
            injection=meas.injection,
        )
        covered = WeightAssignment(
            edge_costs=[rng.choice(choices[2:]) for _ in range(net.line_count)],
            node_costs=[rng.choice(choices[:3]) for _ in range(net.bus_count)],
        )
        assert exactness_condition(net, metered, covered)[0]
        assert exactness_condition(net, metered, WeightAssignment.from_placement(net, metered))[0]
    assert outcomes == {True, False}


def test_binary_gap_bound_values():
    net, meas = worked_case()
    full = full_measurement(net)
    assert binary_gap_bound(net, WeightAssignment.from_placement(net, full)) == 0
    # a metered injection on a bus with no metered incident line contributes 1
    lonely = MeasurementPlacement(flow_from=(0,), injection=(3,))
    assert binary_gap_bound(net, WeightAssignment.from_placement(net, lonely)) == 1


def test_bound_sandwich_on_partial_placements():
    rng = random.Random(555)
    for _ in range(10):
        net, meas, model = random_observable_case(rng, max_buses=8, max_lines=12)
        report = index_all(net, meas, model=model)
        w = WeightAssignment.from_placement(net, meas)
        bound = binary_gap_bound(net, w)
        lines = sorted({e.target for e in report.entries if e.kind != "injection"})
        nodes = [e.target for e in report.entries if e.kind == "injection"]
        res = oracle_continuous_network(
            net, meas, edge_targets=lines, node_targets=nodes, model=model
        )
        for e in report.entries:
            key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
            gap = e.index - res[key].optimum
            assert 0 <= gap <= bound
            if e.exact:
                assert gap == 0


def test_baselines_never_beat_exact():
    rng = random.Random(31415)
    for _ in range(12):
        net = random_network(rng, max_buses=9, max_lines=13)
        meas = random_placement(rng, net)
        if meas.measurement_count == 0:
            continue
        model = build_h(net, meas)
        exact = index_all(net, meas, model=model)
        for baseline in (baseline_ignore_nodes, baseline_fold_nodes):
            heur = baseline(net, meas, model=model)
            for h, e in zip(heur.entries, exact.entries):
                assert h.index >= e.index
                assert not h.exact
                assert h.error_bound is None


def test_zero_node_costs_make_baselines_exact():
    rng = random.Random(1001)
    for _ in range(8):
        net = random_network(rng, max_buses=8, max_lines=12)
        meas = MeasurementPlacement(
            flow_from=tuple(range(net.line_count)), flow_to=(), injection=()
        )
        exact = index_all(net, meas)
        for baseline in (baseline_ignore_nodes, baseline_fold_nodes):
            heur = baseline(net, meas)
            assert heur.indices() == exact.indices()


def test_adding_a_meter_never_lowers_indices():
    rng = random.Random(246)
    for _ in range(10):
        net = random_network(rng, max_buses=8, max_lines=10)
        meas = random_placement(rng, net, density=0.6)
        if meas.measurement_count == 0:
            continue
        base = index_all(net, meas).by_measurement()
        unmetered_lines = [i for i in range(net.line_count) if i not in meas.flow_from]
        unmetered_buses = [b for b in range(net.bus_count) if b not in meas.injection]
        grown = MeasurementPlacement(
            flow_from=meas.flow_from + tuple(unmetered_lines[:1]),
            flow_to=meas.flow_to,
            injection=meas.injection + tuple(unmetered_buses[:1]),
        )
        richer = index_all(net, grown).by_measurement()
        for key, value in base.items():
            assert richer[key] >= value


def test_uniform_reactance_scaling_invariance():
    rng = random.Random(808)
    net = random_network(rng)
    meas = random_placement(rng, net)
    if meas.measurement_count == 0:
        meas = full_measurement(net)
    scaled = PowerNetwork(
        bus_count=net.bus_count,
        lines=tuple((u, v, 4.0 * x) for (u, v, x) in net.lines),
    )
    assert index_all(net, meas).indices() == index_all(scaled, meas).indices()


def test_parallel_lines_count_separately():
    net = PowerNetwork(bus_count=2, lines=((0, 1, 1.0), (0, 1, 2.0)))
    meas = full_measurement(net)
    entry = index_edge_target(net, meas, None, 0)
    # cutting the pair costs both lines' meters plus both bus charges
    assert entry.index == 6


def test_custom_weights_reproduce_weighted_objective():
    net, meas = worked_case()
    weights = WeightAssignment(
        edge_costs=(Fraction(5), Fraction(1, 2), Fraction(3)),
        node_costs=(Fraction(2), Fraction(0), Fraction(1), Fraction(0)),
    )
    report = index_all(net, meas, weights)
    for e in report.entries:
        cost = attack_cost(net, weights.edge_costs, weights.node_costs, e.attack.delta_theta)
        assert cost == e.index


def test_edge_target_requires_metered_end():
    net, meas = worked_case()
    with pytest.raises(InputError):
        index_edge_target(net, meas, None, 1, end="flow_to")


def test_node_target_requires_metered_injection():
    net, meas = worked_case()
    with pytest.raises(InputError):
        index_node_target(net, meas, None, 2)


def test_node_target_tie_prefers_smallest_line():
    # symmetric star: both incident lines give the same value; the attack
    # must separate the endpoints of the lowest-id line
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (0, 2, 1.0)))
    meas = full_measurement(net)
    entry = index_node_target(net, meas, None, 0)
    u, v, _ = net.lines[0]
    assert entry.attack.delta_theta[u] != entry.attack.delta_theta[v]


def test_custom_weights_can_void_full_measurement_exactness():
    # a fully metered system is only auto-certified under its derived costs;
    # a big node charge over cheap lines reopens the binary-continuous gap
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0)))
    meas = full_measurement(net)
    weights = WeightAssignment(
        edge_costs=(Fraction(1), Fraction(1)),
        node_costs=(Fraction(0), Fraction(5), Fraction(0)),
    )
    exact, _ = exactness_condition(net, meas, weights)
    assert not exact
    assert binary_gap_bound(net, weights) == 4
    entry = index_edge_target(net, meas, weights, 0)
    assert not entry.exact
    assert entry.error_bound == 4
