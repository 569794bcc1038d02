import random

import numpy as np
import pytest

from helpers import random_network, random_placement
from secindex import (
    InputError,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    WeightAssignment,
    attack_from_partition,
    bdd_residual,
    build_3sat_gadget,
    build_h,
    estimate,
    full_measurement,
    gadget_assignment_dtheta,
    hat_matrix,
    is_observable,
)
from secindex.caseio import parse_native
from secindex.cases import path as case_path
from secindex.oracle import attack_cost

# The published 4-bus worked example: reduced measurement matrix and the
# unit-weight hat matrix, rows ordered injection@1, flow 1->2 (outgoing),
# flow 1->2 (incoming), flow 2->4, flow 1->3.
WORKED_H2 = np.array(
    [
        [-1, -1, 0],
        [-1, 0, 0],
        [1, 0, 0],
        [1, 0, -1],
        [0, -1, 0],
    ],
    dtype=float,
)
WORKED_K = np.array(
    [
        [0.6, 0.2, -0.2, 0.0, 0.4],
        [0.2, 0.4, -0.4, 0.0, -0.2],
        [-0.2, -0.4, 0.4, 0.0, 0.2],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.4, -0.2, 0.2, 0.0, 0.6],
    ]
)
# Map from the published row order to this package's global measurement
# order (flow_from by line, then flow_to, then injection).
WORKED_PERMUTATION = [4, 0, 3, 2, 1]


def worked_case():
    case = parse_native(case_path("example4bus.json"))
    return case.net, case.meas


def worked_model_published_order() -> ModelMatrix:
    net, meas = worked_case()
    model = build_h(net, meas)
    h = model.h[WORKED_PERMUTATION]
    return ModelMatrix(h, [model.labels[i] for i in WORKED_PERMUTATION], net.bus_count)


def test_worked_example_reduced_matrix():
    model = worked_model_published_order()
    assert np.allclose(model.reduced(), WORKED_H2)


def assert_incident_lines_match_scan(net):
    # node_value's first-minimum tie-break, and with it attack_support,
    # relies on ascending line ids with parallel lines each listed
    for b in range(net.bus_count):
        scan = [i for i, (u, v, _) in enumerate(net.lines) if b in (u, v)]
        assert list(net.incident_lines(b)) == scan


def test_row_sums_zero_on_random_networks():
    rng = random.Random(2)
    for _ in range(20):
        net = random_network(rng)
        meas = random_placement(rng, net)
        model = build_h(net, meas)
        if model.h.size:
            assert np.abs(model.h.sum(axis=1)).max() < 1e-12
        assert_incident_lines_match_scan(net)
    parallel = PowerNetwork(
        bus_count=3, lines=((1, 2, 1.0), (0, 1, 1.0), (1, 0, 2.0), (2, 1, 0.5))
    )
    model = build_h(parallel, full_measurement(parallel))
    assert np.abs(model.h.sum(axis=1)).max() < 1e-12
    assert_incident_lines_match_scan(parallel)
    assert parallel.incident_lines(1) == (0, 1, 2, 3)


def test_empty_placement_gives_zero_rows():
    net, _ = worked_case()
    model = build_h(net, MeasurementPlacement())
    assert model.h.shape == (0, 4)


def test_triangle_full_measurement_structure():
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    model = build_h(net, full_measurement(net))
    laplacian = net.incidence() @ np.diag(net.susceptances()) @ net.incidence().T
    for r, (kind, ident) in enumerate(model.labels):
        row = model.h[r]
        if kind == "injection":
            assert np.allclose(row, laplacian[ident])
        else:
            values = sorted(row[row != 0])
            assert values == [-1.0, 1.0]


def test_observability_worked_example():
    net, meas = worked_case()
    assert is_observable(build_h(net, meas))


def test_observability_two_bus_single_flow():
    net = PowerNetwork(bus_count=2, lines=((0, 1, 1.0),))
    meas = MeasurementPlacement(flow_from=(0,))
    assert is_observable(build_h(net, meas))


def test_observability_fails_on_sparse_path():
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0)))
    meas = MeasurementPlacement(flow_from=(0,))
    assert not is_observable(build_h(net, meas))


def test_estimate_recovers_noiseless_state():
    rng = random.Random(11)
    net = random_network(rng)
    meas = full_measurement(net)
    model = build_h(net, meas)
    theta = np.concatenate(([0.0], np.arange(1, net.bus_count, dtype=float) / 3))
    z = model.h @ theta
    theta_hat, residual = estimate(model, z)
    assert np.abs(theta_hat - theta).max() < 1e-9
    assert np.abs(residual).max() < 1e-9


def test_hat_matrix_worked_example():
    model = worked_model_published_order()
    k = hat_matrix(model)
    assert np.abs(k - WORKED_K).max() < 1e-9


def test_unit_error_on_critical_measurement_is_invisible():
    # Row 4 of I - K vanishes, so an error there never shows in the residual.
    model = worked_model_published_order()
    theta = np.array([0.0, 0.3, -0.2, 0.7])
    z = model.h @ theta
    z[3] += 1.0
    _, residual = estimate(model, z)
    assert abs(residual[3]) < 1e-9


def test_attack_all_ones_is_empty():
    net, meas = worked_case()
    attack = attack_from_partition(net, meas, np.ones(4))
    assert attack.support == ()
    assert np.abs(attack.delta_z).max() < 1e-12


def test_attack_isolating_leaf_bus_touches_one_measurement():
    net, meas = worked_case()
    dtheta = np.zeros(4)
    dtheta[3] = 1.0  # the leaf bus behind the only unprotected flow
    attack = attack_from_partition(net, meas, dtheta)
    assert attack.support == (meas.index_of("flow_from", 2),)


def test_attack_support_cost_matches_partition_objective():
    rng = random.Random(77)
    for _ in range(40):
        net = random_network(rng, max_buses=8)
        meas = random_placement(rng, net)
        model = build_h(net, meas)
        dtheta = np.array([float(rng.random() < 0.5) for _ in range(net.bus_count)])
        attack = attack_from_partition(net, meas, dtheta, model=model)
        w = WeightAssignment.from_placement(net, meas)
        c, p = w.edge_costs, w.node_costs
        assert len(attack.support) == attack_cost(net, c, p, dtheta)


def test_attack_rejects_non_binary():
    net, meas = worked_case()
    with pytest.raises(InputError):
        attack_from_partition(net, meas, np.array([0.0, 0.5, 1.0, 0.0]))


def test_residuals_of_random_attacks():
    rng = random.Random(31)
    for _ in range(25):
        net = random_network(rng)
        meas = random_placement(rng, net)
        model = build_h(net, meas)
        dtheta = np.array([float(rng.random() < 0.5) for _ in range(net.bus_count)])
        attack = attack_from_partition(net, meas, dtheta, model=model)
        assert attack.residual_inf <= 1e-9
        assert np.abs(bdd_residual(model, attack.delta_z)).max() <= 1e-9


def test_network_validation():
    with pytest.raises(InputError):
        PowerNetwork(bus_count=2, lines=((0, 1, 0.0),))
    with pytest.raises(InputError):
        PowerNetwork(bus_count=2, lines=((0, 0, 1.0),))
    with pytest.raises(InputError):
        PowerNetwork(bus_count=4, lines=((0, 1, 1.0),))  # disconnected
    with pytest.raises(InputError):
        PowerNetwork(bus_count=2, lines=((0, 3, 1.0),))


def test_gadget_shape():
    gadget = build_3sat_gadget([(1, 2, 3)], 3)
    n, m = 3, 1
    assert gadget.net.bus_count == n + m + 4
    assert gadget.net.line_count == 2 * n + 4 * m + 4
    assert gadget.meas.measurement_count == (2 * n + m + 1) + (m + 2)
    assert gadget.meas.flow_to == ()
    assert gadget.target == gadget.meas.index_of("flow_from", 0)


def test_gadget_rejects_malformed_clauses():
    with pytest.raises(InputError):
        build_3sat_gadget([(1, 2)], 3)
    with pytest.raises(InputError):
        build_3sat_gadget([(1, 2, 9)], 3)
    with pytest.raises(InputError):
        build_3sat_gadget([], 0)


def test_gadget_satisfying_assignment_reaches_floor():
    clauses = [(1, 2, 3)]
    gadget = build_3sat_gadget(clauses, 3)
    model = build_h(gadget.net, gadget.meas)
    dtheta = gadget_assignment_dtheta(gadget, (1, 0, 0))
    delta_z = model.h @ dtheta
    support = np.flatnonzero(np.abs(delta_z) > 1e-9)
    assert len(support) == 3 + 1
    assert gadget.target in support
    assert np.abs(bdd_residual(model, delta_z)).max() <= 1e-9


def test_gadget_non_solution_assignment_exceeds_floor():
    clauses = [(1, 2, 3)]
    gadget = build_3sat_gadget(clauses, 3)
    model = build_h(gadget.net, gadget.meas)
    dtheta = gadget_assignment_dtheta(gadget, (1, 1, 0))  # two literals true
    delta_z = model.h @ dtheta
    assert (np.abs(delta_z) > 1e-9).sum() > 4


def test_weighted_estimation_recovers_state_and_hides_attacks():
    rng = random.Random(55)
    net = random_network(rng, max_buses=7)
    meas = full_measurement(net)
    model = build_h(net, meas)
    w = np.array([1.0 + rng.random() * 4 for _ in range(model.measurement_count)])
    theta = np.concatenate(([0.0], 0.3 * np.arange(1, net.bus_count)))
    z = model.h @ theta
    theta_hat, residual = estimate(model, z, weights=w)
    assert np.abs(theta_hat - theta).max() < 1e-9
    dtheta = np.array([float(rng.random() < 0.5) for _ in range(net.bus_count)])
    attack = attack_from_partition(net, meas, dtheta, model=model)
    _, residual = estimate(model, attack.delta_z, weights=w)
    assert np.abs(residual).max() < 1e-9  # invisible under any weighting
