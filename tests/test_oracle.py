import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_network, random_observable_case, random_placement
from secindex import (
    InputError,
    PowerNetwork,
    SizeLimitError,
    WeightAssignment,
    build_h,
    full_measurement,
    index_edge_target,
    oracle_binary,
    oracle_continuous,
    oracle_continuous_network,
)
from secindex.caseio import parse_native
from secindex.cases import path as case_path
from secindex.oracle import attack_cost


def worked_case():
    case = parse_native(case_path("example4bus.json"))
    return case.net, case.meas


def paired_flow_groups(meas):
    """Group the two flow rows of any doubly metered line; they vanish together."""
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


def test_worked_example_indices_via_rowsets():
    net, meas = worked_case()
    model = build_h(net, meas)
    # measured values, keyed by (kind, id): injection@1 -> 2, both ends of
    # line (1,2) -> 3, flow on (2,4) -> 1, flow on (1,3) -> 2
    expected = {
        ("injection", 0): 2,
        ("flow_from", 0): 3,
        ("flow_to", 0): 3,
        ("flow_from", 2): 1,
        ("flow_from", 1): 2,
    }
    for k, label in enumerate(meas.ordering()):
        res = oracle_continuous(model.h, k, relation="equals-one")
        assert res.optimum == expected[label]
        assert abs(model.h[k] @ res.witness - 1.0) < 1e-9
        assert k in res.support


def test_all_zero_constraint_row_is_infeasible():
    h = np.array([[1.0, -1.0], [0.0, 0.0]])
    res = oracle_continuous(h, 1)
    assert not res.feasible
    assert res.optimum is None


def test_row_guard():
    h = np.zeros((41, 3))
    with pytest.raises(SizeLimitError):
        oracle_continuous(h, 0)


def test_weighted_rowset_oracle():
    # one line, both ends metered with uneven weights, no injections
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = oracle_continuous(h, 0, weights=[Fraction(1, 2), Fraction(3, 2)], row_groups=[(0, 1)])
    assert res.optimum == 2  # both rows move together


def test_rejects_bad_groups():
    h = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    with pytest.raises(InputError):
        oracle_continuous(h, 0, row_groups=[(0, 1)])


def test_binary_two_bus_full_measurement():
    net = PowerNetwork(bus_count=2, lines=((0, 1, 1.0),))
    meas = full_measurement(net)
    assert oracle_binary(net, meas, 0).optimum == 4


def test_binary_matches_cut_pipeline():
    rng = random.Random(321)
    for _ in range(25):
        net = random_network(rng, max_buses=8, max_lines=12)
        meas = random_placement(rng, net)
        model = build_h(net, meas)
        weights = None
        for line in range(net.line_count):
            b = oracle_binary(net, meas, line, model=model)
            inst_value = None
            if line in meas.flow_from:
                inst_value = index_edge_target(net, meas, weights, line, model=model).index
            elif line in meas.flow_to:
                inst_value = index_edge_target(
                    net, meas, weights, line, end="flow_to", model=model
                ).index
            if inst_value is not None:
                assert b.optimum == inst_value


def test_binary_at_least_continuous():
    rng = random.Random(654)
    for _ in range(15):
        net, meas, model = random_observable_case(rng, max_buses=8, max_lines=12)
        lines = sorted(set(meas.flow_from) | set(meas.flow_to))
        res = oracle_continuous_network(net, meas, edge_targets=lines, model=model)
        for line in lines:
            assert oracle_binary(net, meas, line, model=model).optimum >= res[("edge", line)].optimum


def test_network_oracle_matches_rowsets():
    rng = random.Random(777)
    compared = 0
    while compared < 60:
        net, meas, model = random_observable_case(rng, max_buses=6, max_lines=8)
        if meas.measurement_count > 18:
            continue
        groups = paired_flow_groups(meas)
        order = meas.ordering()
        lines = sorted({t for kk, t in order if kk != "injection"})
        nodes = [t for kk, t in order if kk == "injection"]
        res = oracle_continuous_network(
            net, meas, edge_targets=lines, node_targets=nodes, model=model
        )
        for k, (kind, ident) in enumerate(order):
            direct = oracle_continuous(model.h, k, relation="equals-one", row_groups=groups)
            key = ("node", ident) if kind == "injection" else ("edge", ident)
            assert direct.optimum == res[key].optimum, (kind, ident)
            compared += 1


def test_network_oracle_witnesses_hit_their_targets():
    rng = random.Random(12)
    net, meas, model = random_observable_case(rng, max_buses=7, max_lines=10)
    order = meas.ordering()
    lines = sorted({t for kk, t in order if kk != "injection"})
    nodes = [t for kk, t in order if kk == "injection"]
    res = oracle_continuous_network(net, meas, edge_targets=lines, node_targets=nodes, model=model)
    w = WeightAssignment.from_placement(net, meas)
    c, p = w.edge_costs, w.node_costs
    for (key_kind, ident), result in res.items():
        assert result.feasible
        witness = result.witness
        assert attack_cost(net, c, p, witness) == result.optimum
        if key_kind == "edge":
            u, v, x = net.lines[ident]
            assert abs((witness[u] - witness[v]) / x - 1.0) < 1e-6
        else:
            k = meas.index_of("injection", ident)
            assert abs(model.h[k] @ witness - 1.0) < 1e-6


def test_deterministic_results():
    net, meas = worked_case()
    model = build_h(net, meas)
    first = oracle_continuous(model.h, 0)
    second = oracle_continuous(model.h, 0)
    assert first.optimum == second.optimum
    assert first.support == second.support
    assert np.array_equal(first.witness, second.witness)
    a = oracle_continuous_network(net, meas, edge_targets=[0, 1, 2], node_targets=[0], model=model)
    b = oracle_continuous_network(net, meas, edge_targets=[0, 1, 2], node_targets=[0], model=model)
    for key in a:
        assert a[key].optimum == b[key].optimum
        assert a[key].support == b[key].support


def test_node_target_requires_metered_injection():
    net, meas = worked_case()
    with pytest.raises(InputError):
        oracle_continuous_network(net, meas, node_targets=[2])


def test_binary_bus_guard():
    lines = tuple((i, i + 1, 1.0) for i in range(22))
    net = PowerNetwork(bus_count=23, lines=lines)
    with pytest.raises(SizeLimitError):
        oracle_binary(net, full_measurement(net), 0)


def test_doubly_constrained_sandwich_on_node_targets():
    # For an injection target, constraining one incident line as well gives
    # a problem squeezed between its edge-only relaxation and the binary
    # restriction, and the minimum over incident lines recovers the
    # injection optimum exactly.
    rng = random.Random(90210)
    for _ in range(4):
        net = random_network(rng, min_buses=4, max_buses=5, max_lines=6)
        meas = full_measurement(net)
        model = build_h(net, meas)
        groups = paired_flow_groups(meas)
        res = oracle_continuous_network(
            net,
            meas,
            edge_targets=list(range(net.line_count)),
            node_targets=list(range(net.bus_count)),
            model=model,
        )
        for bus in range(net.bus_count):
            k = meas.index_of("injection", bus)
            doubles = []
            for line in net.incident_lines(bus):
                u, v, _ = net.lines[line]
                a_e = np.zeros(net.bus_count)
                a_e[u], a_e[v] = 1.0, -1.0
                double = oracle_continuous(
                    model.h, k, relation="nonzero", row_groups=groups, extra_nonzero=a_e
                )
                relaxed = res[("edge", line)].optimum
                binary = oracle_binary(net, meas, line, model=model).optimum
                assert relaxed <= double.optimum <= binary
                doubles.append(double.optimum)
            assert min(doubles) == res[("node", bus)].optimum
