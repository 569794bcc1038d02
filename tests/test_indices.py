import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    benchmark_generate,
    per_bus_gap_bound,
    random_network,
    random_observable_case,
    random_placement,
)
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
    index_target,
    oracle_continuous_network,
    binary_gap_bound,
)
from secindex import cli, costly_cut, mincut, power_model
from secindex.caseio import parse_matpower_subset, parse_native, parse_native_text
from secindex.cases import path as case_path
from secindex import indices as indices_module
from secindex.indices import _SOLVERS, METHODS, _Case, _Engine, cut_instance_for_line
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
    entry = index_target(net, meas, None, meas.index_of("flow_from", 0))
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


def test_binary_gap_bound_equals_the_per_bus_minimum():
    # The bound reads each bus's cheapest line by array ops; it must equal
    # the per-bus Python minimum, exactly and with its type, for int,
    # Fraction and mixed costs, parallel lines, ties and ints past 63 bits.
    rng = random.Random(18)
    costs = (0, 1, 2, 3, Fraction(1, 3), Fraction(3, 2), Fraction(5, 2))
    kinds = set()
    for _ in range(150):
        net = random_network(rng, min_buses=2, max_buses=9)
        weights = WeightAssignment(
            edge_costs=[rng.choice(costs) for _ in range(net.line_count)],
            node_costs=[rng.choice(costs) for _ in range(net.bus_count)],
        )
        bound = binary_gap_bound(net, weights)
        expected = per_bus_gap_bound(net, weights)
        assert bound == expected and type(bound) is type(expected)
        kinds.add((type(bound), bound > 0))
    assert kinds == {(int, False), (int, True), (Fraction, True)}
    # numpy holds the line costs 2**63 and 1 as float64, which rounds.
    path = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0)))
    huge = WeightAssignment(edge_costs=(2**63, 1), node_costs=(2**64 + 7, 2, 2**63 + 1))
    bound = binary_gap_bound(path, huge)
    assert bound == per_bus_gap_bound(path, huge) == 2**64 + 8 and type(bound) is int
    lone = PowerNetwork(bus_count=1, lines=())
    assert binary_gap_bound(lone, WeightAssignment(edge_costs=(), node_costs=(5,))) == 0


def test_integral_weights_give_int_indices_and_bounds():
    # Derived weights are meter counts, so every index, bound and attack
    # cost is an int; one rational weight makes the sums it enters exact
    # Fractions.
    net, _ = worked_case()
    lonely = MeasurementPlacement(flow_from=(0, 1), flow_to=(0,), injection=(0, 3))
    derived = WeightAssignment.from_placement(net, lonely)
    halved = WeightAssignment(derived.edge_costs, derived.node_costs[:3] + (Fraction(3, 2),))
    for weights, kind in ((None, int), (derived, int), (halved, Fraction)):
        report = index_all(net, lonely, weights)
        bound = report.entries[0].error_bound
        assert type(bound) is kind and bound == (1 if kind is int else Fraction(3, 2))
        w = weights or derived
        for e in report.entries:
            assert type(e.index) in (int, kind)
            assert attack_cost(net, w.edge_costs, w.node_costs, e.attack.delta_theta) == e.index


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
    entry = index_target(net, meas, None, meas.index_of("flow_from", 0))
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
        index_target(net, meas, None, meas.index_of("flow_to", 1))


def test_node_target_requires_metered_injection():
    net, meas = worked_case()
    with pytest.raises(InputError):
        index_target(net, meas, None, meas.index_of("injection", 2))


def test_node_target_tie_prefers_smallest_line():
    # symmetric star: both incident lines give the same value; the attack
    # must separate the endpoints of the lowest-id line
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (0, 2, 1.0)))
    meas = full_measurement(net)
    entry = index_target(net, meas, None, meas.index_of("injection", 0))
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
    entry = index_target(net, meas, weights, meas.index_of("flow_from", 0))
    assert not entry.exact
    assert entry.error_bound == 4


def test_engine_derives_each_line_instance_from_one_validated_instance():
    rng = random.Random(3131)
    choices = [Fraction(k, 2) for k in range(5)]
    for draw in range(30):
        net, meas, model = random_observable_case(rng, max_buses=8, max_lines=12)
        custom = WeightAssignment(
            edge_costs=[rng.choice(choices) for _ in range(net.line_count)],
            node_costs=[rng.choice(choices) for _ in range(net.bus_count)],
        )
        for weights in (None, custom):
            state = _Case(net, meas, weights, model)
            w = WeightAssignment.resolve(net, meas, weights)
            lines = list(range(net.line_count))
            rng.shuffle(lines)
            for line in lines:
                inst = state.cut_instance(line)
                ref = cut_instance_for_line(net, w, line)
                for f in dataclasses.fields(ref):
                    assert getattr(inst, f.name) == getattr(ref, f.name), (draw, line, f.name)
                assert inst == ref
                assert inst.int_costs == ref.int_costs
                assert costly_cut.dump_auxiliary(
                    costly_cut.build_auxiliary(inst)
                ) == costly_cut.dump_auxiliary(costly_cut.build_auxiliary(ref))
            # one scaling, shared by every line's instance; the edge triples,
            # which solving never reads, are made on first read, once for the
            # family
            state = _Case(net, meas, weights, model)
            first, last = state.cut_instance(lines[0]), state.cut_instance(lines[-1])
            assert first.int_costs is last.int_costs
            assert costly_cut.solve(first) and costly_cut.solve(last)
            family = (state._instance, first, last)
            assert not any("edges" in vars(inst) for inst in family)
            assert first.edges is last.edges is state._instance.edges
            assert first.edges == cut_instance_for_line(net, w, lines[0]).edges


def test_line_instance_matches_the_one_built_from_edge_triples():
    # ``cut_instance_for_line`` builds from the endpoint arrays and the
    # checked weights; the public constructor, fed each line both ways,
    # must give the same instance, scaling and endpoint arrays.
    rng = random.Random(4141)
    choices = [Fraction(0), Fraction(1, 3), Fraction(1, 2), 1, 2]
    for draw in range(20):
        net, meas, _ = random_observable_case(rng, max_buses=8, max_lines=12)
        for w in (WeightAssignment.from_placement(net, meas), WeightAssignment(
            edge_costs=[rng.choice(choices) for _ in range(net.line_count)],
            node_costs=[rng.choice(choices) for _ in range(net.bus_count)],
        )):
            edges = tuple(
                e for (u, v, _), c in zip(net.lines, w.edge_costs) for e in ((u, v, c), (v, u, c))
            )
            for line in range(net.line_count):
                inst = cut_instance_for_line(net, w, line)
                u, v, _ = net.lines[line]
                ref = costly_cut.CostlyCutInstance(
                    node_count=net.bus_count, edges=edges, node_costs=w.node_costs, source=u, sink=v
                )
                assert inst == ref and inst.int_costs == ref.int_costs, (draw, line)
                assert all(map(np.array_equal, inst.ends, ref.ends))
    with pytest.raises(InputError, match="weight vectors must match"):
        cut_instance_for_line(net, WeightAssignment(edge_costs=[1], node_costs=[]), 0)


def test_derived_instance_checks_its_terminals():
    net, meas = worked_case()
    inst = cut_instance_for_line(net, WeightAssignment.from_placement(net, meas), 0)
    for source, sink in ((0, 4), (-1, 1), (2, 2)):
        with pytest.raises(InputError) as derived:
            inst.with_terminals(source, sink)
        with pytest.raises(InputError) as built:
            dataclasses.replace(inst, source=source, sink=sink)
        assert str(derived.value) == str(built.value)


def test_one_instance_validation_per_sweep(monkeypatch):
    calls = []
    post_init = costly_cut.CostlyCutInstance.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(costly_cut.CostlyCutInstance, "__post_init__", counted)
    case = parse_matpower_subset(case_path("ieee118.m"))
    model = build_h(case.net, case.meas)
    for method in METHODS:
        del calls[:]
        report = index_all(case.net, case.meas, method=method, model=model)
        assert len(report.entries) == 490
        assert len(calls) == 1, method


def test_one_cut_graph_per_engine(monkeypatch):
    # The auxiliary graph and the heuristics' graphs do not depend on the
    # line, so each engine builds and validates its one graph once.
    built = []

    class Counted(costly_cut.DiGraph):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(costly_cut, "DiGraph", Counted)
    case = parse_matpower_subset(case_path("ieee118.m"))
    model = build_h(case.net, case.meas)
    for method in METHODS:
        del built[:]
        report = index_all(case.net, case.meas, method=method, model=model)
        assert len(report.entries) == 490
        assert len(built) == 1, method


def test_index_and_attack_never_build_the_dense_matrix():
    # The cuts, their attacks and the residual guard read the model's table
    # of line-flow terms; the dense matrix is built when ``h`` is first read.
    case = parse_matpower_subset(case_path("ieee118.m"))
    model = build_h(case.net, case.meas)
    assert len(index_all(case.net, case.meas, model=model).entries) == 490
    assert "h" not in model.__dict__
    net = random_network(random.Random(5), min_buses=40, max_buses=60, max_lines=90)
    meas = full_measurement(net)
    model = build_h(net, meas)
    k = meas.index_of("injection", net.bus_count - 1)
    entry = index_target(net, meas, None, k, model=model)
    assert entry.attack.residual_inf <= 1e-9
    assert "h" not in model.__dict__
    assert model.h.shape == (meas.measurement_count, net.bus_count)
    assert "h" in model.__dict__


def _same_entry(a, b):
    assert dataclasses.replace(a, attack=None) == dataclasses.replace(b, attack=None)
    assert a.attack.support == b.attack.support
    assert a.attack.residual_inf == b.attack.residual_inf
    assert np.array_equal(a.attack.delta_theta, b.attack.delta_theta)
    assert np.array_equal(a.attack.delta_z, b.attack.delta_z)


def _desk_cases(seed):
    """The benchmark's seeded verify-desk stream, one case per size class."""
    generate = benchmark_generate()
    for i in range(len(generate.DESK_CLASSES)):
        yield parse_native_text(generate.dump(generate.desk_case(seed, i)).decode())


def test_index_target_is_the_entry_of_the_full_report():
    cases = [(parse_native(case_path("example4bus.json")), METHODS)]
    cases.append((parse_matpower_subset(case_path("ieee118.m")), ("exact",)))
    cases.extend((case, METHODS) for case in _desk_cases(1))
    for case, methods in cases:
        model = build_h(case.net, case.meas)
        for method in methods:
            report = index_all(case.net, case.meas, case.weights, method=method, model=model)
            for k, want in enumerate(report.entries):
                got = index_target(case.net, case.meas, case.weights, k, method=method, model=model)
                _same_entry(got, want)


def test_index_target_rejects_positions_out_of_range():
    net, meas = worked_case()
    for k in (-1, meas.measurement_count, meas.measurement_count + 3):
        with pytest.raises(InputError, match="out of range"):
            index_target(net, meas, None, k)


@pytest.mark.parametrize("ident", [True, np.bool_(False), 1.0, 1.5, "1", None])
def test_measurement_and_line_ids_refuse_bools_and_non_integers(ident):
    net, meas = worked_case()
    weights = WeightAssignment.from_placement(net, meas)
    with pytest.raises(InputError, match="measurement id .* is not an integer"):
        index_target(net, meas, None, ident)
    with pytest.raises(InputError, match="line id .* is not an integer"):
        cut_instance_for_line(net, weights, ident)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_measurement_and_line_ids_are_read_as_ints(kind):
    net, meas = worked_case()
    weights = WeightAssignment.from_placement(net, meas)
    entry = index_target(net, meas, None, kind(2))
    assert type(entry.measurement) is int
    _same_entry(entry, index_target(net, meas, None, 2))
    assert cut_instance_for_line(net, weights, kind(1)) == cut_instance_for_line(net, weights, 1)


def _made_layouts(monkeypatch):
    """Record every residual layout built from here on, in build order."""
    layouts = []
    build = mincut.arc_layout

    def recorded(*args):
        layouts.append(build(*args))
        return layouts[-1]

    monkeypatch.setattr(mincut, "arc_layout", recorded)
    return layouts


def _made(layout):
    return {u for u, arcs in enumerate(layout.adj) if arcs is not None}


@pytest.fixture(scope="module")
def seed1_grid(tmp_path_factory):
    """The benchmark's seed-1 2383-bus grid, as a case file."""
    generate = benchmark_generate()
    path = tmp_path_factory.mktemp("grid") / "grid-1.json"
    path.write_bytes(generate.dump(generate.meshed_grid(1)))
    return str(path)


def test_an_attack_on_a_grid_makes_only_what_its_searches_visit(seed1_grid, tmp_path, monkeypatch):
    # Measurement 2836 of the seed-1 grid is cut locally. The op builds
    # one arc layout, the 7149-node auxiliary graph's; its one flow makes
    # arc tuples only for nodes a search visited, and nothing reads the
    # placement's 11,914 labels whole.
    layouts = _made_layouts(monkeypatch)
    visited = set()
    grow = mincut._grow

    def recorded(adj, to, cap, layout, layer, seen, other, back):
        visited.update(layer)
        out = grow(adj, to, cap, layout, layer, seen, other, back)
        visited.update(seen)
        return out

    def unread(self):
        raise AssertionError("the labels were read whole")

    monkeypatch.setattr(mincut, "_grow", recorded)
    monkeypatch.setattr(power_model.MeasurementPlacement, "ordering", unread)
    out = tmp_path / "attack.csv"
    assert cli.main(["attack", seed1_grid, "--target", "2836", "--out", str(out)]) == 0
    (aux,) = layouts
    assert len(aux.adj) == 7149
    made = _made(aux)
    assert 0 < len(made) < 150 and made <= visited


def test_a_cold_flow_with_the_large_source_side_stays_local(seed1_grid, tmp_path, monkeypatch):
    # Measurement 4968's minimal source side is all but a few of the 7149
    # auxiliary nodes, and its graph serves this one flow: the far side is
    # found from the closed search and the positive-capacity components,
    # not by walking every node.
    layouts = _made_layouts(monkeypatch)
    out = tmp_path / "attack.csv"
    assert cli.main(["attack", seed1_grid, "--target", "4968", "--out", str(out)]) == 0
    aux = layouts[0]
    assert len(aux.adj) == 7149 and len(_made(aux)) < 100
    rows = out.read_text().splitlines()
    touched = sum(r.startswith("delta_z,") and float(r.split(",")[2]) != 0.0 for r in rows)
    assert touched == index_target_count(seed1_grid, 4968)


def test_the_shift_from_the_carried_side_equals_the_source_sides_bit_for_bit():
    # Every line of the bundled 118-bus case under every method: the
    # attack's delta_theta, set from whichever side the cut carries, has
    # the bits of the vector set from the source side, 1.0 there and 0.0
    # elsewhere; the sweep carries source sides and sink sides both.
    case = parse_matpower_subset(case_path("ieee118.m"))
    carried = set()
    for method in METHODS:
        engine = _Engine(_Case(case.net, case.meas, case.weights), method)
        solve = getattr(costly_cut, _SOLVERS[method])
        for line in range(case.net.line_count):
            sol = solve(engine.case.cut_instance(line))
            carried.add((method, sol.is_sink))
            want = np.zeros(case.net.bus_count)
            want[list(sol.source_side)] = 1.0
            _, attack = engine.line_value(line)
            assert attack.delta_theta.tobytes() == want.tobytes(), (method, line)
    assert carried >= {("exact", False), ("exact", True)}


def index_target_count(path, target):
    case = parse_native(path)
    entry = index_target(case.net, case.meas, case.weights, target - 1)
    assert entry.index == len(entry.attack.support)
    return len(entry.attack.support)


def _full_table_attack(model, dtheta):
    """H @ dtheta, its support and the witness residual from every term and
    every entry of ``model``: the sums the attack's local reads must equal."""
    shift = dtheta[model.tails] - dtheta[model.heads]
    flows = model.coeffs * shift
    m = model.measurement_count
    delta_z = np.bincount(model.rows, weights=flows, minlength=m)
    magnitude = np.bincount(model.rows, weights=np.abs(flows), minlength=m)
    support = tuple(np.flatnonzero(np.abs(delta_z) > 1e-9 * magnitude).tolist())
    n = model.bus_count
    keys = np.concatenate((model.rows * n + model.tails, model.rows * n + model.heads))
    keys, slot = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    vals = np.bincount(slot, weights=np.concatenate((model.coeffs, -model.coeffs)))
    keep = cols > 0
    witness = dtheta[1:] - dtheta[0]
    fit = np.bincount(rows[keep], weights=vals[keep] * witness[cols[keep] - 1], minlength=m)
    return delta_z, support, float(np.linalg.norm(delta_z - fit)), float(np.abs(vals).max())


@pytest.mark.parametrize("local", [False, True])
def test_the_attack_from_the_cut_equals_the_full_table_bit_for_bit(monkeypatch, local):
    # Every line of the bundled 118-bus case and of the seeded 500-bus
    # grid: delta_z and its support read from the terms of the cut lines
    # alone (every other term is poisoned with NaN), and the witness
    # residual, fitted from the witness side's columns alone or from every
    # nonzero of H2, and max|H|, equal the sums over the whole table bit
    # for bit, on lines whose smaller side holds the reference bus too.
    monkeypatch.setattr(power_model, "LOCAL_FIT_TERMS", 0 if local else 10**9)
    generate = benchmark_generate()
    grid = parse_native_text(generate.dump(generate.meshed_grid(11, 500)).decode())
    reference_side = 0
    for case in (parse_matpower_subset(case_path("ieee118.m")), grid):
        model = build_h(case.net, case.meas)
        report = index_all(case.net, case.meas, case.weights, model=model)
        assert model.max_abs_entry == _full_table_attack(model, np.zeros(case.net.bus_count))[3]
        tails, heads = case.net.endpoints
        for entry in report.entries[: case.net.line_count]:
            attack = entry.attack
            dtheta = attack.delta_theta
            delta_z, support, residual, _ = _full_table_attack(model, dtheta)
            assert attack.delta_z.tobytes() == delta_z.tobytes()
            assert attack.support == support
            assert attack.residual_inf.hex() == residual.hex()
            cut_lines = np.flatnonzero(dtheta[tails] != dtheta[heads])
            reads_cut = np.isin(model.tails, tails[cut_lines]) & np.isin(model.heads, heads[cut_lines])
            reads_cut |= np.isin(model.tails, heads[cut_lines]) & np.isin(model.heads, tails[cut_lines])
            poisoned = power_model.ModelMatrix(
                model.measurement_count, model.bus_count, model.rows, model.tails,
                model.heads, np.where(reads_cut, model.coeffs, np.nan), model.by_line,
                model.adjacency,
            )
            got_z, got_support = poisoned.apply(dtheta, cut_lines)
            assert got_z.tobytes() == delta_z.tobytes() and got_support == support
            reference_side += 2 * (dtheta == dtheta[0]).sum() < case.net.bus_count
    assert reference_side > 0


def _grid_doc(placed):
    """The benchmark's seed-1 300-bus grid, fully measured or, if
    ``placed``, with 60 % of each measurement kind placed, drawn from one
    seeded generator in the order flow_from, flow_to, injection."""
    doc = benchmark_generate().meshed_grid(1, 300)
    if placed:
        rng = random.Random(60)
        lines, buses = len(doc["lines"]), doc["buses"]
        doc["measurements"] = {
            "flow_from": sorted(rng.sample(range(1, lines + 1), int(0.6 * lines))),
            "flow_to": sorted(rng.sample(range(1, lines + 1), int(0.6 * lines))),
            "injection": sorted(rng.sample(range(1, buses + 1), int(0.6 * buses))),
        }
    return doc


def _parsed(doc):
    return parse_native_text(benchmark_generate().dump(doc).decode())


def test_a_partial_grid_sweep_carries_the_smaller_sides(monkeypatch):
    # The 300-bus grid's partial placement splits the positive-capacity
    # graphs into many components. A flow whose root's components hold
    # most of the graph carries the cut's other side, and one whose
    # components hold at most half finishes the root's search: over one
    # exact and one ignore-nodes sweep they carry 25,313 + 4,845 nodes.
    # Carrying the root's components less the closed set instead carries
    # 145,571 + 98,471 = 244,042; the pin allows a quarter of that.
    case = _parsed(_grid_doc(True))
    carried = 0
    check = mincut._checked_cut

    def counted(g, side, is_sink, flow):
        nonlocal carried
        carried += len(side)
        return check(g, side, is_sink, flow)

    monkeypatch.setattr(mincut, "_checked_cut", counted)
    for method in ("exact", "ignore-nodes"):
        index_all(case.net, case.meas, case.weights, method=method)
    assert 0 < carried <= 244_042 // 4


def _line_instance(case):
    weights = WeightAssignment.resolve(case.net, case.meas, case.weights)
    return cut_instance_for_line(case.net, weights, 0)


def _proof_and_search(inst):
    """What the one-component proof says of ``inst``'s auxiliary graph, and
    how many capacity components the search finds on the same graph."""
    graph = costly_cut.build_auxiliary(inst).graph
    return graph.one_component, len(graph.capacity_components[1])


def _variant(inst, keep=None, charges=None):
    """``inst`` with only the edges ``keep`` marks, or with other charges."""
    tails, heads = inst.ends
    keep = np.ones(len(tails), dtype=bool) if keep is None else keep
    return costly_cut.CostlyCutInstance.from_arrays(
        inst.node_count, tails[keep], heads[keep], [c for c, k in zip(inst.costs, keep) if k],
        inst.node_costs if charges is None else charges, inst.source, inst.sink)


def _broken_premises(inst):
    """The three variants of a line instance that the proof must refuse:
    one charge 0; the reverse of one edge dropped, the edge into a bus
    that has only that line, so that the bus's w node is entered by no
    positive edge; and only the edges within each half of the buses, so
    that the halves are not joined."""
    tails, heads = inst.ends
    n = inst.node_count
    leaf = int(np.flatnonzero(np.bincount(tails, minlength=n) == 1)[0])
    half = np.arange(n) < n // 2
    return (
        _variant(inst, charges=(0,) + inst.node_costs[1:]),
        _variant(inst, keep=heads != leaf),
        _variant(inst, keep=half[tails] == half[heads]),
    )


def test_the_one_component_proof_agrees_with_the_search_on_line_instances():
    # On the line instances of the desk stream (seeds 1 and 7), ieee118 and
    # the 300-bus grid, fully measured and under the 60 % placement, the
    # proof reports one component exactly where the search finds one; on
    # ieee118's variants whose premises break, the search finds several and
    # the proof refuses each.
    generate = benchmark_generate()
    cases = [parse_native_text(generate.dump(generate.desk_case(seed, i)).decode())
             for seed in (1, 7) for i in range(3 * len(generate.DESK_CLASSES))]
    cases += [parse_matpower_subset(case_path("ieee118.m")), _parsed(_grid_doc(False)),
              _parsed(_grid_doc(True))]
    instances = [_line_instance(case) for case in cases]
    instances += _broken_premises(instances[-3])
    seen = set()
    for inst in instances:
        proven, components = _proof_and_search(inst)
        assert proven == (components == 1)
        seen.add(proven)
    assert seen == {False, True}
    assert [_proof_and_search(inst)[0] for inst in instances[-6:]] == [True, True] + [False] * 4


def test_the_one_component_proof_refuses_each_broken_premise():
    # A charge set to 0, a reverse edge dropped, or the instance split in
    # two unjoined halves: each is refused on every line instance whose
    # graph the proof accepts, whatever the search finds.
    generate = benchmark_generate()
    cases = [parse_native_text(generate.dump(generate.desk_case(1, i)).decode())
             for i in range(len(generate.DESK_CLASSES))]
    cases += [parse_matpower_subset(case_path("ieee118.m")), _parsed(_grid_doc(False))]
    proven = 0
    for case in cases:
        inst = _line_instance(case)
        if not costly_cut.build_auxiliary(inst).graph.one_component:
            continue
        proven += 1
        n = inst.node_count
        tails, heads = inst.ends
        half = np.arange(n) < n // 2
        for variant in (
            _variant(inst, charges=inst.node_costs[:-1] + (0,)),
            _variant(inst, keep=np.arange(len(tails)) != 1),
            _variant(inst, keep=half[tails] == half[heads]),
        ):
            assert not costly_cut.build_auxiliary(variant).graph.one_component
    assert proven >= 3


def test_only_graphs_the_proof_refuses_build_components(monkeypatch):
    # The 300-bus grid's sweep, fully measured, is proven one component on
    # every line instance and builds no capacity components; under the
    # 60 % placement the proof is refused and the search builds them. So
    # does both extremes' flow on each variant of the fully measured line
    # instance whose premises break, since one of its two searches is
    # left open.
    calls = []
    components = mincut._components

    def counted(*args):
        calls.append(len(args[0].adj))
        return components(*args)

    monkeypatch.setattr(mincut, "_components", counted)
    for placed, built in ((False, False), (True, True)):
        case = _parsed(_grid_doc(placed))
        calls.clear()
        index_all(case.net, case.meas, case.weights)
        assert bool(calls) == built
    for variant in _broken_premises(_line_instance(_parsed(_grid_doc(False)))):
        calls.clear()
        graph = costly_cut.build_auxiliary(variant).graph
        mincut.min_cut_extremes(graph, variant.source, variant.sink)
        assert calls == [graph.node_count]


def _by_entry(report):
    return {(e.kind, e.target): (e.index, e.exact, e.error_bound) for e in report.entries}


@pytest.mark.parametrize("placed", [False, True])
def test_scaling_every_weight_scales_every_index_and_bound(placed):
    # Every line and bus weight times 3/7 multiplies every index and every
    # error bound by exactly 3/7 and leaves each entry's exactness as it
    # was, on the 300-bus grid; the partial placement runs the bound path.
    case = _parsed(_grid_doc(placed))
    model = build_h(case.net, case.meas)
    weights = WeightAssignment.resolve(case.net, case.meas, case.weights)
    q = Fraction(3, 7)
    scaled = WeightAssignment(
        edge_costs=[q * c for c in weights.edge_costs], node_costs=[q * p for p in weights.node_costs]
    )
    base = _by_entry(index_all(case.net, case.meas, weights, model=model))
    got = _by_entry(index_all(case.net, case.meas, scaled, model=model))
    assert got == {key: (q * h, exact, q * bound) for key, (h, exact, bound) in base.items()}
    assert any(bound > 0 for _, _, bound in base.values()) == placed


@pytest.mark.parametrize("placed", [False, True])
def test_relabeling_the_grid_changes_no_entry(placed):
    # Shuffled bus ids and a shuffled line order on the 300-bus grid: each
    # entry's index, exactness and error bound, matched through the two
    # permutations, are those of the grid as generated.
    doc = _grid_doc(placed)
    rng = random.Random(300)
    n, m = doc["buses"], len(doc["lines"])
    bus = list(range(1, n + 1))
    rng.shuffle(bus)  # bus b is renamed bus[b - 1]
    order = list(range(m))
    rng.shuffle(order)  # new line j is old line order[j]
    line = {old: new for new, old in enumerate(order)}  # 0-based, old -> new
    moved = {
        "buses": n,
        "lines": [[bus[u - 1], bus[v - 1], x] for u, v, x in (doc["lines"][i] for i in order)],
        "measurements": {
            kind: ids if ids == "all" else [bus[i - 1] if kind == "injection" else line[i - 1] + 1 for i in ids]
            for kind, ids in doc["measurements"].items()
        },
    }
    base, got = (_by_entry(index_all(case.net, case.meas)) for case in map(_parsed, (doc, moved)))
    rename = {"flow_from": line.__getitem__, "flow_to": line.__getitem__, "injection": lambda b: bus[b] - 1}
    assert got == {(kind, rename[kind](target)): row for (kind, target), row in base.items()}


@pytest.mark.parametrize("placed", [False, True])
def test_raising_one_weight_raises_no_index_by_more_than_that(placed):
    # One line's cost, or one bus's charge, raised by 1/3 on the 300-bus
    # grid, four seeded picks of each: every partition's objective rises
    # by 0 or 1/3, so no index falls and none rises by more than 1/3.
    case = _parsed(_grid_doc(placed))
    model = build_h(case.net, case.meas)
    weights = WeightAssignment.resolve(case.net, case.meas, case.weights)
    base = index_all(case.net, case.meas, weights, model=model).indices()
    rng = random.Random(1301)
    delta, rose = Fraction(1, 3), 0
    for key, count in (("edge_costs", case.net.line_count), ("node_costs", case.net.bus_count)):
        for pick in rng.sample(range(count), 4):
            costs = list(getattr(weights, key))
            costs[pick] += delta
            raised = dataclasses.replace(weights, **{key: costs})
            got = index_all(case.net, case.meas, raised, model=model).indices()
            assert all(0 <= g - b <= delta for g, b in zip(got, base)), (key, pick)
            rose += sum(g > b for g, b in zip(got, base))
    assert rose > 0


def test_capping_each_charge_at_its_cheapest_line_brackets_every_index():
    # Each bus charge capped at the cost of its cheapest line, found by a
    # scan over the lines, gives a case with no gap. Lowering charges
    # lowers no partition's objective below the capped one's, and raises
    # none by more than the gap bound of the uncapped case, so on the
    # 300-bus grid's partial placement every capped index is at most the
    # index, which is at most the capped index plus that bound.
    case = _parsed(_grid_doc(True))
    model = build_h(case.net, case.meas)
    weights = WeightAssignment.resolve(case.net, case.meas, case.weights)
    cheapest = [None] * case.net.bus_count
    for (u, v, _), cost in zip(case.net.lines, weights.edge_costs):
        for bus in (u, v):
            if cheapest[bus] is None or cost < cheapest[bus]:
                cheapest[bus] = cost
    capped = WeightAssignment(
        edge_costs=weights.edge_costs, node_costs=list(map(min, weights.node_costs, cheapest))
    )
    bound = binary_gap_bound(case.net, weights)
    assert binary_gap_bound(case.net, capped) == 0 < bound
    high = index_all(case.net, case.meas, weights, model=model).indices()
    low = index_all(case.net, case.meas, capped, model=model).indices()
    assert all(lo <= hi <= lo + bound for lo, hi in zip(low, high))
    assert (bound, sum(lo < hi for lo, hi in zip(low, high))) == (62, 460)


def _report_rows(report):
    return [
        (e.kind, e.target, e.index, e.exact, e.error_bound, e.attack.support) for e in report.entries
    ]


@pytest.mark.parametrize("placed", [False, True])
def test_rescaling_the_reactances_changes_no_entry(placed):
    # Each reactance of the 300-bus grid times 10**U(-3, 3), drawn from a
    # seeded generator (reactances then span about 1e-5 to 500): under full
    # measurement and under the partial placement, no entry's index,
    # exactness, error bound or attack support changes, and every attack
    # passes its witness guard again.
    doc = _grid_doc(placed)
    rng = random.Random(1003)
    rescaled = dict(doc, lines=[[u, v, x * 10 ** rng.uniform(-3, 3)] for u, v, x in doc["lines"]])
    base, got = (_report_rows(index_all(c.net, c.meas)) for c in map(_parsed, (doc, rescaled)))
    assert got == base


def _far_poisoned(state, inst, side):
    """Copies of ``state``'s network, weights and model and of the line
    instance ``inst`` in which everything of a line with no end in ``side``
    (its endpoints, reactance, cost and terms) and of a bus off ``side`` and
    off its neighbours (its charge) is spoiled: ids far out of range, and
    None or NaN for values. The indexes built once per network, model and
    instance family (lines by bus, terms by line, instance edges by end)
    are taken from the clean objects, as a sweep builds them once."""
    net, model = state.net, state.model
    tails, heads, x = (np.array(a) for a in net.arrays)
    near_lines = np.zeros(net.line_count, dtype=bool)
    for bus in side:
        near_lines[list(net.incident_lines(bus))] = True
    near_buses = np.zeros(net.bus_count, dtype=bool)
    near_buses[tails[near_lines]] = near_buses[heads[near_lines]] = True
    far = ~near_lines
    spoiled = net.bus_count + 10**6
    tails[far], heads[far], x[far] = spoiled, spoiled, np.nan
    poisoned_net = dataclasses.replace(net)
    poisoned_net.__dict__.update(
        arrays=(tails, heads, x),
        endpoints=(tails, heads),
        columns=tuple(np.where(far, None, a).tolist() for a in (tails, heads, x)),
        adjacency=net.adjacency,
    )
    costs = [None if f else c for f, c in zip(far.tolist(), state.weights.edge_costs)]
    charges = [c if n else None for n, c in zip(near_buses.tolist(), state.weights.node_costs)]
    far_terms = np.ones(len(model.rows), dtype=bool)
    for line in np.flatnonzero(near_lines):
        slots = model.by_line[line]
        far_terms[slots[slots >= 0]] = False
    rows, t_tails, t_heads = model.rows.copy(), model.tails.copy(), model.heads.copy()
    rows[far_terms] = model.measurement_count + 10**6
    t_tails[far_terms] = t_heads[far_terms] = spoiled
    poisoned_model = power_model.ModelMatrix(
        model.measurement_count, model.bus_count, rows, t_tails, t_heads,
        np.where(far_terms, np.nan, model.coeffs), model.by_line, model.adjacency,
    )
    poisoned_model.max_abs_entry = model.max_abs_entry
    ends = [end.copy() for end in inst.ends]
    far_edges = np.repeat(far, 2)
    ends[0][far_edges] = ends[1][far_edges] = spoiled
    poisoned_inst = inst.with_terminals(inst.source, inst.sink)
    poisoned_inst.__dict__.update(
        ends=tuple(ends),
        costs=[None if f else c for f, c in zip(far_edges.tolist(), inst.costs)],
        node_costs=tuple(charges),
    )
    return poisoned_net, costs, charges, poisoned_model, poisoned_inst


@pytest.mark.parametrize("placed", [False, True])
def test_a_lines_attack_cost_check_and_score_read_only_its_cut(monkeypatch, placed):
    # On the 300-bus grid, for lines whose carried side holds no reference
    # bus (bus 0, so the witness moves that side), everything of the lines
    # that meet no bus of the side, and the charges of the buses beyond its
    # neighbours, is spoiled (``_far_poisoned``). The line's attack, built
    # from the cut lines its solution's crossing edges name, with the
    # witness guard on the local fit, its cost check and its partition
    # score, read again from the spoiled copies, equal the clean ones. A
    # whole-case scan reads the spoiled endpoints and fails.
    monkeypatch.setattr(power_model, "LOCAL_FIT_TERMS", 0)
    case = _parsed(_grid_doc(placed))
    state = _Case(case.net, case.meas, case.weights)
    checked = 0
    for line in range(0, case.net.line_count, 7):
        inst = state.cut_instance(line)
        sol = costly_cut.solve(inst)
        if 0 in sol.side:
            continue
        cut = [e >> 1 for e in sol.cut_edges]
        dtheta = np.full(case.net.bus_count, float(sol.is_sink))
        dtheta[list(sol.side)] = float(not sol.is_sink)
        attack = power_model.attack_from_partition(
            case.net, case.meas, dtheta, model=state.model, cut=cut
        )
        net, costs, charges, model, spoiled_inst = _far_poisoned(state, inst, sol.side)
        got = power_model.attack_from_partition(net, case.meas, dtheta, model=model, cut=cut)
        assert got.delta_z.tobytes() == attack.delta_z.tobytes()
        assert got.support == attack.support and got.residual_inf == attack.residual_inf
        assert attack_cost(net, costs, charges, dtheta, cut) == sol.objective
        score = costly_cut.evaluate_partition(spoiled_inst, sol.side, sol.is_sink)
        assert score == (sol.objective, sol.cut_edges, sol.charged_nodes)
        checked += 1
    assert checked >= 20


def test_lines_whose_cuts_carry_one_side_share_one_attack(monkeypatch):
    # On the bundled 118-bus case, 186 line cuts carry 154 distinct sides:
    # the engine builds one attack, and one cost check, per distinct side
    # and cut direction, and gives every line of it the same attack.
    case = parse_matpower_subset(case_path("ieee118.m"))
    sides, built = [], []
    solve = costly_cut.solve
    attack = power_model.attack_from_partition

    def solved(inst):
        sol = solve(inst)
        sides.append((sol.side, sol.is_sink))
        return sol

    def counted(*args, **kwargs):
        built.append(attack(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(costly_cut, "solve", solved)
    monkeypatch.setattr(indices_module, "attack_from_partition", counted)
    engine = _Engine(_Case(case.net, case.meas, case.weights), "exact")
    attacks = [engine.line_value(line)[1] for line in range(case.net.line_count)]
    assert len(sides) == case.net.line_count and len(built) == len(set(sides)) < len(sides)
    by_side = {}
    for key, got in zip(sides, attacks):
        assert by_side.setdefault(key, got) is got


@pytest.mark.parametrize("grid", [False, True])
def test_a_lines_cut_lines_from_its_crossing_edges_are_the_dense_scans(grid):
    # Edges 2i and 2i + 1 of a line instance are line i's two directions,
    # so the attack reads each line's cut lines off its solution's crossing
    # edges. Under every method, on the bundled 118-bus case and on the
    # 300-bus grid's partial placement, those equal the lines whose ends
    # the attack's dense shift moves apart.
    case = _parsed(_grid_doc(True)) if grid else parse_matpower_subset(case_path("ieee118.m"))
    state = _Case(case.net, case.meas, case.weights)
    for method in METHODS:
        solve = getattr(costly_cut, _SOLVERS[method])
        for line in range(case.net.line_count):
            sol = solve(state.cut_instance(line))
            attack, _ = state.attack_of(sol)
            want = power_model.cut_lines(case.net, attack.delta_theta)
            assert [e >> 1 for e in sol.cut_edges] == want, (method, line)
