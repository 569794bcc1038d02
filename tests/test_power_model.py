import random
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    per_label_build_h,
    random_network,
    random_observable_case,
    random_placement,
    shuffled_lattice,
)
from secindex import (
    InputError,
    InvariantError,
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
from secindex import cli, power_model
from secindex.caseio import CaseFile, emit_native, parse_native
from secindex.cases import path as case_path
from secindex.oracle import attack_cost
from secindex.power_model import RESIDUAL_TOL, check_placement, cut_lines, residual_tolerance

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
    published_row = np.argsort(WORKED_PERMUTATION)  # of each row of the model
    return ModelMatrix(
        model.measurement_count,
        net.bus_count,
        published_row[model.rows],
        model.tails,
        model.heads,
        model.coeffs,
        model.by_line,
        model.adjacency,
    )


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


def test_build_h_table_equals_the_per_label_loop():
    # apply, entries and the Gram assembly sum in table order, so the table
    # built from arrays must equal the per-label loop term for term and bit
    # for bit, not only as a matrix.
    rng = random.Random(15)
    nets = [PowerNetwork(bus_count=2, lines=((1, 0, 0.37),))]
    for _ in range(12):
        net = random_network(rng)
        # odd reactances, whose reciprocals round, and parallel lines, some
        # of them reversed
        lines = [(u, v, rng.uniform(0.01, 1.0)) for (u, v, _) in net.lines]
        for u, v, _ in rng.sample(lines, 3):
            lines.append((v, u, rng.uniform(0.01, 1.0)) if rng.random() < 0.5 else (u, v, 0.3))
        nets.append(PowerNetwork(bus_count=net.bus_count, lines=tuple(lines)))
    for net in nets:
        every_line, every_bus = range(net.line_count), range(net.bus_count)
        placements = [
            full_measurement(net),
            random_placement(rng, net),
            MeasurementPlacement(flow_to=every_line),
            MeasurementPlacement(injection=every_bus),
            MeasurementPlacement(injection=rng.sample(every_bus, 1)),
            MeasurementPlacement(),
        ]
        for meas in placements:
            model, reference = build_h(net, meas), per_label_build_h(net, meas)
            assert model.measurement_count == reference.measurement_count
            for name in ("rows", "tails", "heads", "coeffs", "by_line"):
                got, want = getattr(model, name), getattr(reference, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_triangle_full_measurement_structure():
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    model = build_h(net, full_measurement(net))
    laplacian = net.incidence() @ np.diag(net.susceptances()) @ net.incidence().T
    for r, (kind, ident) in enumerate(full_measurement(net).ordering()):
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


@pytest.mark.parametrize("fit", [estimate, hat_matrix], ids=["estimate", "hat_matrix"])
@pytest.mark.parametrize(
    "weights", [[1.0, 1.0, -1.0, 1.0, 1.0], [1.0]], ids=["negative", "one-entry"]
)
def test_fits_reject_bad_weights(fit, weights):
    # hat_matrix used to return a "projection" under negative weights and to
    # fail in numpy's matmul on a weight vector of the wrong length.
    model = worked_model_published_order()
    args = (np.zeros(5),) if fit is estimate else ()
    with pytest.raises(InputError, match="weights must be positive, one per measurement"):
        fit(model, *args, weights=np.array(weights))


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


def test_untouched_rows_shift_by_exactly_zero():
    # An injection row whose bus meets no cut line adds +-1/x terms that
    # cancel; with reactances such as 0.123 they must cancel exactly rather
    # than leave rounding residue in delta_z.
    rng = random.Random(404)
    for _ in range(40):
        base = random_network(rng)
        net = PowerNetwork(
            bus_count=base.bus_count,
            lines=tuple((u, v, rng.randint(1, 2000) / 1000) for u, v, _ in base.lines),
        )
        dtheta = np.array([float(rng.random() < 0.5) for _ in range(net.bus_count)])
        attack = attack_from_partition(net, full_measurement(net), dtheta)
        untouched = np.delete(attack.delta_z, attack.support)
        assert (untouched == 0.0).all(), untouched[untouched != 0.0]


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


def _scan_connected(bus_count, lines):
    """Whether the lines link every bus, by a search over a neighbour list."""
    near = [[] for _ in range(bus_count)]
    for u, v, _ in lines:
        near[u].append(v)
        near[v].append(u)
    seen, todo = {0}, [0]
    while todo:
        for w in near[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == bus_count


def test_connectivity_matches_a_search_on_random_multigraphs():
    rng = random.Random(18)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 30)
        ids = list(range(n))
        rng.shuffle(ids)
        lines = [(ids[rng.randrange(i)], ids[i], 1.0) for i in range(1, n) if rng.random() < 0.93]
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v:
                lines.append((u, v, 0.5))
        rng.shuffle(lines)
        connected = _scan_connected(n, lines)
        verdicts.add(connected)
        if connected:
            net = PowerNetwork(bus_count=n, lines=tuple(lines))
            assert net.lines == tuple(lines)
        else:
            with pytest.raises(InputError, match="^network is not connected$"):
                PowerNetwork(bus_count=n, lines=tuple(lines))
    assert verdicts == {True, False}


def test_array_networks_validate_like_tuple_networks():
    good = (0, 1, 1.0)
    for bus_count, lines, message in [
        (3, (good, (1, 2, 1.0), (0, 3, 1.0), (1, 1, 1.0)), "line 2: bus id out of range"),
        (3, (good, (1, 2, 1.0), (-1, 2, 1.0)), "line 2: bus id out of range"),
        (3, (good, (2, 2, 0.0), (1, 2, 1.0)), "line 1: self-loop at bus 2"),
        (3, (good, (1, 2, float("nan"))), "line 1: reactance must be positive and finite, got nan"),
        (3, (good, (1, 2, -np.inf)), "line 1: reactance must be positive and finite, got -inf"),
        (3, (good, (1, 2, 0.0)), "line 1: reactance must be positive and finite, got 0.0"),
        (3, (good, (1, 2, 5e-324)), "line 1: reactance 5e-324 is too small: its susceptance 1/x overflows"),
        (3, (good, (1, 2, 2.0**-1024), (2, 0, 0.0)),
         "line 1: reactance 5.562684646268003e-309 is too small: its susceptance 1/x overflows"),
        (4, (good, (1, 0, 1.0), (2, 3, 1.0)), "network is not connected"),
        (5, (good, (1, 2, 1.0)), "network is not connected"),
        (0, (), "bus_count must be positive"),
    ]:
        with pytest.raises(InputError) as built:
            PowerNetwork(bus_count=bus_count, lines=lines)
        assert str(built.value) == message
        with pytest.raises(InputError) as arrays:
            PowerNetwork.from_arrays(bus_count, *(list(zip(*lines)) or ([], [], [])))
        assert str(arrays.value) == message
    # a member past 64 bits fails its own check; one that does not convert
    # raises as it did, but only once every earlier line has passed
    with pytest.raises(InputError, match="^line 1: bus id out of range$"):
        PowerNetwork(bus_count=2, lines=(good, (0, 2**70, 1.0)))
    with pytest.raises(InputError, match="^line 0: self-loop at bus 0$"):
        PowerNetwork(bus_count=2, lines=((0, 0, 1.0), ("a", 1, 1.0)))
    with pytest.raises(ValueError):
        PowerNetwork(bus_count=2, lines=(good, ("a", 1, 1.0), (0, 0, 1.0)))
    # the least reactance whose susceptance is finite
    assert PowerNetwork(bus_count=2, lines=((0, 1, np.nextafter(2.0**-1024, 1.0)),)).line_count == 1


def test_array_network_builds_its_lines_on_first_read():
    lines = ((0, 1, 0.5), (2, 1, 0.25), (0, 2, 2.0), (1, 0, 1.0))
    net = PowerNetwork.from_arrays(3, *(np.array(column) for column in zip(*lines)))
    meas = full_measurement(net)
    model = build_h(net, meas)
    assert "lines" not in vars(net)
    assert net == PowerNetwork(bus_count=3, lines=lines) and net.lines is net.lines
    assert all(type(u) is int and type(x) is float for u, _, x in net.lines)
    assert_incident_lines_match_scan(net)
    assert net.incident_lines(1) == (0, 1, 3)
    assert np.array_equal(model.h, build_h(PowerNetwork(bus_count=3, lines=lines), meas).h)
    incidence = np.zeros((3, 4))
    for idx, (u, v, _) in enumerate(lines):
        incidence[u, idx], incidence[v, idx] = 1.0, -1.0
    assert np.array_equal(net.incidence(), incidence)
    assert net.susceptances().tolist() == [1.0 / x for (_, _, x) in lines]
    with pytest.raises(AttributeError):
        net.no_such_attribute


def test_placements_are_sorted_once_and_checked_by_their_extremes():
    net, _ = worked_case()
    assert MeasurementPlacement(flow_from=range(5), injection=range(4)) == MeasurementPlacement(
        flow_from=(4, 3, 2, 1, 0, 0), injection=[3, 1, 2, 0])
    meas = MeasurementPlacement(flow_from=(1, 3), flow_to=range(2), injection=(2,))
    assert meas.ordering() is meas.ordering()
    assert meas.ordering() == (
        ("flow_from", 1), ("flow_from", 3), ("flow_to", 0), ("flow_to", 1), ("injection", 2))
    with pytest.raises(InputError, match="^injection: negative id$"):
        MeasurementPlacement(injection=(2, -1))
    for bad, message in [
        (MeasurementPlacement(flow_from=(1, 7, 9), flow_to=(8,)), "metered line id 7 out of range"),
        (MeasurementPlacement(flow_from=(1,), flow_to=(6, 8)), "metered line id 6 out of range"),
        (MeasurementPlacement(flow_to=(5,), injection=(4,)), "metered line id 5 out of range"),
        (MeasurementPlacement(injection=range(3, 6)), "metered bus id 4 out of range"),
    ]:
        with pytest.raises(InputError, match=f"^{message}$"):
            check_placement(net, bad)


def test_placement_ids_are_integers_never_truncated():
    # NumPy integers are ids; a float, a bool or a string is refused,
    # never truncated, with its group and the id.
    meas = MeasurementPlacement(flow_from=np.array([3, 1, 1]), injection=(np.int32(2),))
    assert meas == MeasurementPlacement(flow_from=(1, 3), injection=(2,))
    assert {type(i) for i in meas.flow_from + meas.injection} == {int}
    for name, bad in [("flow_from", 1.5), ("flow_from", 2.0), ("injection", True),
                      ("flow_to", np.True_), ("flow_to", "1"), ("injection", np.float64(2.7))]:
        with pytest.raises(InputError, match=f"^{name} id {re.escape(repr(bad))} is not an integer$"):
            MeasurementPlacement(**{name: (0, bad)})


def test_numpy_integer_weights_are_costs():
    weights = WeightAssignment(edge_costs=np.array([1, 2, 3]), node_costs=np.array([1, 1, 1]))
    assert weights == WeightAssignment(edge_costs=(1, 2, 3), node_costs=(1, 1, 1))
    assert {type(c) for c in weights.edge_costs + weights.node_costs} == {int}


def test_weights_keep_nonnegative_ints_and_coerce_the_rest():
    edge = (3, 0, 2)
    weights = WeightAssignment(edge_costs=edge, node_costs=(1, "3/2", 2.0, Fraction(4, 2)))
    assert weights.edge_costs == edge
    assert weights.node_costs == (1, Fraction(3, 2), 2, 2)
    assert [type(p) for p in weights.node_costs] == [int, Fraction, int, int]
    for bad in ((1, -1), (1, True), (1, float("nan"))):
        with pytest.raises(InputError):
            WeightAssignment(edge_costs=bad, node_costs=())


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


def test_index_of_matches_the_ordering():
    rng = random.Random(77)
    for _ in range(20):
        net = random_network(rng)
        meas = random_placement(rng, net)
        order = meas.ordering()
        for k, (kind, ident) in enumerate(order):
            assert meas.index_of(kind, ident) == k
        for kind, ident in (("flow_from", net.line_count), ("injection", -1), ("flow", 0)):
            with pytest.raises(InputError, match=rf"measurement \({kind}, {ident}\) not in placement"):
                meas.index_of(kind, ident)


def test_observability_is_one_rank_of_the_reduced_matrix():
    # reference: the definition, one rank per deleted column
    def per_column(model):
        return all(
            np.linalg.matrix_rank(np.delete(model.h, j, axis=1), tol=1e-9) == model.bus_count - 1
            for j in range(model.bus_count)
        )

    rng = random.Random(1729)
    seen = set()
    for _ in range(300):
        net = random_network(rng, min_buses=2, max_buses=9, max_lines=14)
        meas = random_placement(rng, net, density=rng.uniform(0.1, 0.7))
        if meas.measurement_count == 0:
            continue
        model = build_h(net, meas)
        observable = is_observable(model)
        assert observable == per_column(model)
        seen.add(observable)
    assert seen == {True, False}


def _svd_residual(model, delta_z):
    """Reference: delta_z minus its projection onto the left singular
    vectors of the reduced matrix above the SVD's rank cutoff."""
    h2 = model.reduced()
    u, s, _ = np.linalg.svd(h2, full_matrices=False)
    q = u[:, s > max(h2.shape) * np.finfo(float).eps * s[0]]
    return delta_z - q @ (q.T @ delta_z)


def _guard_cases():
    """Seeded (net, meas, model) cases: observable placements; unobservable
    ones with more rows than rank; triangles whose reactances lie 4 and 12
    decades apart; a 300-bus lattice with shuffled ids, the same lattice with
    one line 12 decades shorter, and the lattice with only every other line
    metered, at both ends, which leaves the metered lines in many
    components."""
    rng = random.Random(2024)
    cases = [random_observable_case(rng) for _ in range(8)]
    unobservable = 0
    while unobservable < 8:
        net = random_network(rng)
        meas = random_placement(rng, net, density=0.3)
        if meas.measurement_count == 0:
            continue
        model = build_h(net, meas)
        if is_observable(model):
            continue
        if np.linalg.matrix_rank(model.reduced()) < meas.measurement_count:
            cases.append((net, meas, model))
            unobservable += 1
    for x in (1e-4, 1e-12):
        net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, x), (0, 2, 1.0)))
        meas = full_measurement(net)
        cases.append((net, meas, build_h(net, meas)))
    lattice = shuffled_lattice(random.Random(300), 15, 20)
    for net in (lattice, _stiff(lattice)):
        meas = full_measurement(net)
        cases.append((net, meas, build_h(net, meas)))
    every_other = tuple(range(0, lattice.line_count, 2))
    meas = MeasurementPlacement(flow_from=every_other, flow_to=every_other)
    cases.append((lattice, meas, build_h(lattice, meas)))
    return cases


def _stiff(net):
    """``net`` with line 0's reactance 12 decades smaller."""
    (u, v, x), *rest = net.lines
    return PowerNetwork(bus_count=net.bus_count, lines=((u, v, 1e-12 * x), *rest))


def test_residual_guard_agrees_with_the_svd_projector():
    nrng = np.random.default_rng(7)
    for net, meas, model in _guard_cases():
        dtheta = nrng.standard_normal(net.bus_count)
        delta_z = model.h @ dtheta
        scale = residual_tolerance(model, dtheta) / RESIDUAL_TOL
        outside = _svd_residual(model, nrng.standard_normal(len(delta_z)))
        outside *= 1e-6 * scale / np.abs(outside).max()
        for dz in (delta_z, delta_z + outside):
            got = bdd_residual(model, dz)
            assert np.abs(got - _svd_residual(model, dz)).max() <= 1e-12 * scale
        assert np.abs(bdd_residual(model, delta_z)).max() <= 1e-12 * scale
        assert np.abs(bdd_residual(model, delta_z + outside)).max() >= 1e-7 * scale
        witness = model.range_basis().residual(delta_z, dtheta[1:] - dtheta[0])
        assert np.linalg.norm(witness) <= 1e-12 * scale


def test_witness_residual_bounds_the_least_squares_residual():
    # For any y, ||dz - H2 y||_2 is at least the least-squares residual's
    # 2-norm, and so its max-norm: the attack's witness, and a witness off
    # by noise for a shift off the column space. On an attack, whose
    # witness residual is rounding, the SVD's rounding is the larger (about
    # 3e-12 max|H| on the stiff lattice, where its rank cutoff is near the
    # small singular values), but stays within the guard's tolerance.
    nrng = np.random.default_rng(13)
    for net, meas, model in _guard_cases():
        dtheta = (nrng.random(net.bus_count) < 0.5).astype(float)
        dtheta[0] = 1.0
        attack = attack_from_partition(net, meas, dtheta, model=model)
        scale = residual_tolerance(model, dtheta) / RESIDUAL_TOL
        assert attack.residual_inf <= 1e-12 * scale
        lsq = np.linalg.norm(bdd_residual(model, attack.delta_z))
        assert lsq <= attack.residual_inf + residual_tolerance(model, dtheta)
        outside = _svd_residual(model, nrng.standard_normal(model.measurement_count))
        outside *= 1e-6 * scale / np.abs(outside).max()
        dz = attack.delta_z + outside
        witness = dtheta[1:] - dtheta[0]
        for y in (witness, witness + 1e-6 * nrng.standard_normal(witness.size)):
            bound = np.linalg.norm(model.range_basis().residual(dz, y))
            assert np.linalg.norm(bdd_residual(model, dz)) <= bound * (1 + 1e-9)
            assert bound >= np.linalg.norm(outside) * (1 - 1e-6)


def test_residual_guard_rejects_a_corruption_outside_the_column_space(monkeypatch):
    # A shift off the column space of the reduced matrix added to
    # H @ dtheta where the attack computes it.
    nrng = np.random.default_rng(11)
    for net, meas, model in _guard_cases():
        dtheta = np.ones(net.bus_count)
        dtheta[-1] = 0.0
        attack_from_partition(net, meas, dtheta, model=model)
        shift = _svd_residual(model, nrng.standard_normal(model.measurement_count))
        shift *= 1e3 * residual_tolerance(model, dtheta) / np.abs(shift).max()
        delta_z, support = model.apply(dtheta, cut_lines(net, dtheta))
        monkeypatch.setattr(model, "apply", lambda *_: (delta_z + shift, support))
        with pytest.raises(InvariantError, match="attack residual"):
            attack_from_partition(net, meas, dtheta, model=model)
        monkeypatch.undo()


def test_residual_guard_rejects_a_corrupted_entry():
    # The guard reads H2 from ``entries``, apart from the term table that
    # ``apply`` sums, so one entry off by 1e-6 max|H| is caught wherever
    # the witness reads its column.
    for net, meas, model in _guard_cases():
        dtheta = np.zeros(net.bus_count)
        dtheta[0] = 1.0  # the witness is -1 at every reduced column
        attack_from_partition(net, meas, dtheta, model=model)
        rows, cols, vals = model.entries
        k = int(np.flatnonzero(cols > 0)[-1])
        vals = vals.copy()
        vals[k] += 1e-6 * model.max_abs_entry
        corrupted = build_h(net, meas)
        corrupted.entries = (rows, cols, vals)
        with pytest.raises(InvariantError, match="attack residual"):
            attack_from_partition(net, meas, dtheta, model=corrupted)


def test_residual_guard_rejects_a_corrupted_entry_of_a_local_fit(monkeypatch):
    # A fit that reads only the witness side's columns sums their entries
    # from the terms at those buses, apart from the per-row sums of
    # ``apply``, so one of those entries off by 1e-6 max|H| is caught too.
    monkeypatch.setattr(power_model, "LOCAL_FIT_TERMS", 0)
    assembled = power_model._entries
    for net, meas, model in _guard_cases():
        dtheta = np.zeros(net.bus_count)
        dtheta[0] = 1.0  # the witness is -1 at every reduced column
        attack_from_partition(net, meas, dtheta, model=model)

        def corrupted(*args):
            rows, cols, vals = assembled(*args)
            k = int(np.flatnonzero(cols > 0)[-1])
            vals = vals.copy()
            vals[k] += 1e-6 * model.max_abs_entry
            return rows, cols, vals

        with monkeypatch.context() as patch:
            patch.setattr(power_model, "_entries", corrupted)
            with pytest.raises(InvariantError, match="attack residual"):
                attack_from_partition(net, meas, dtheta, model=model)


def test_residual_guard_sees_a_corruption_the_size_of_the_attack_below_unit_scale(monkeypatch):
    # Reactance 1e10 puts the entries of H at 1e-10 to 2e-10: flipping the
    # sign of one flow row leaves a residual of about 1.7e-10, the size of
    # the attack itself, which an absolute bound of 1e-9 would let through.
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1e10), (1, 2, 1e10), (0, 2, 1e10)))
    meas = full_measurement(net)
    model = build_h(net, meas)
    dtheta = np.array([1.0, 0.0, 0.0])
    attack_from_partition(net, meas, dtheta, model=model)
    delta_z, support = model.apply(dtheta, cut_lines(net, dtheta))
    flipped = delta_z.copy()
    flipped[0] = -flipped[0]
    assert np.abs(bdd_residual(model, flipped)).max() < RESIDUAL_TOL
    monkeypatch.setattr(model, "apply", lambda *_: (flipped, support))
    with pytest.raises(InvariantError, match="attack residual"):
        attack_from_partition(net, meas, dtheta, model=model)


def test_stiff_and_unobservable_attacks_need_no_dense_matrix(capsys, tmp_path, monkeypatch):
    # The witness certifies the attack, so neither a line 12 decades stiffer
    # nor an unobservable placement sends the guard to a dense matrix or SVD.
    lattice = shuffled_lattice(random.Random(300), 15, 20)
    every_other = tuple(range(0, lattice.line_count, 2))
    cases = [
        (_stiff(lattice), full_measurement(lattice)),
        (lattice, MeasurementPlacement(flow_from=every_other, flow_to=every_other)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(ModelMatrix, "h", property(refuse))
    for i, (net, meas) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(emit_native(CaseFile(net=net, meas=meas, weights=None)))
        for target in (1, meas.measurement_count):
            assert cli.main(["attack", str(path), "--target", str(target)]) == 0
            rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
            assert float(rows["residual_inf_norm"].lstrip(",")) <= 1e-9
