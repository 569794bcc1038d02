import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    benchmark_generate,
    full_scan_attack_cost,
    random_network,
    random_observable_case,
    random_placement,
)
from secindex import (
    InputError,
    PowerNetwork,
    SizeLimitError,
    WeightAssignment,
    build_3sat_gadget,
    build_h,
    full_measurement,
    index_all,
    index_target,
    is_observable,
    oracle_binary,
    oracle_continuous,
    oracle_continuous_network,
)
from secindex import oracle
from secindex.caseio import parse_native, parse_native_text
from secindex.cases import path as case_path
from secindex.oracle import (
    _UNBOUNDED,
    _connected_partitions,
    _partitions_by_cost,
    attack_cost,
)


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
        res = oracle_continuous(model.h, k)
        assert res.optimum == expected[label]
        assert abs(model.h[k] @ res.witness - 1.0) < 1e-9
        assert k in res.support


@pytest.mark.parametrize(
    "clauses, n_vars, optimum, support",
    [
        ([(1, 2, 3)], 3, 4, (0, 1, 3, 6)),
        ([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 4, 6, (0, 1, 3, 5, 7, 13)),
    ],
    ids=["satisfiable", "unsatisfiable"],
)
def test_gadget_support_is_the_first_feasible_in_search_order(clauses, n_vars, optimum, support):
    # Both gadgets have many optimal row sets of equal cost; the search
    # returns the first feasible one in (cost, index tuple) order.
    gadget = build_3sat_gadget(clauses, n_vars)
    model = build_h(gadget.net, gadget.meas)
    res = oracle_continuous(model.h, gadget.target)
    assert (res.optimum, res.support) == (optimum, support)
    assert abs(model.h[gadget.target] @ res.witness - 1.0) < 1e-9


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


def test_rejects_bad_groups_of_tiny_rows():
    # Proportionality is judged relative to the rows' own size: rows of
    # 1e-11 are no more proportional than the same rows at unit scale.
    h = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]]) * 1e-11
    with pytest.raises(InputError, match="not proportional"):
        oracle_continuous(h, 0, row_groups=[(0, 1), (2,)])
    # zero rows are proportional to any row
    zero = np.zeros((2, 3))
    assert oracle_continuous(zero, 0, row_groups=[(0, 1)]).optimum is None


@pytest.mark.parametrize("reactance", [1.0, 1e9, 1e12])
def test_rowset_oracle_prices_every_row_at_any_reactance(reactance):
    # A full-measurement triangle whose line 0-2 has reactance 1, 1e9 or
    # 1e12. Its flow rows are that small, and the injection rows at buses 0
    # and 2 differ from the neighbouring flow rows only that far down; the
    # zero pattern of a row does not depend on its scale, so each of the
    # nine rows costs 7, as the cut pipeline says.
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1.0), (1, 2, 1.0), (0, 2, reactance)))
    meas = full_measurement(net)
    model = build_h(net, meas)
    assert index_all(net, meas).indices() == (7,) * 9
    for k in range(9):
        res = oracle_continuous(model.h, k)
        assert res.optimum == 7, k
        assert k in res.support and len(res.support) == 7
        assert abs(model.h[k] @ res.witness - 1.0) < 1e-9


@pytest.mark.parametrize("seed", [1750, 2743])
def test_rowset_oracle_answers_every_row_of_an_unobservable_case(seed):
    # Seeded unobservable placements on 9 and 7 buses. On one row of each
    # the witness is 0 up to rounding (about 5e-17) at both ends of a zero
    # row, and a zero-row test scaled by the entries that row reads is
    # itself at rounding level; it is scaled by max |witness| instead.
    # Each row's optimum is the index where that is exact, and at most it
    # where not.
    rng = random.Random(seed)
    net = random_network(rng, max_buses=12, max_lines=14)
    meas = random_placement(rng, net)
    model = build_h(net, meas)
    assert not is_observable(model)
    for k, entry in enumerate(index_all(net, meas, model=model).entries):
        res = oracle_continuous(model.h, k)
        assert abs(model.h[k] @ res.witness - 1.0) < 1e-9
        assert res.optimum == entry.index if entry.exact else res.optimum <= entry.index, k


def test_binary_two_bus_full_measurement():
    net = PowerNetwork(bus_count=2, lines=((0, 1, 1.0),))
    meas = full_measurement(net)
    assert oracle_binary(net, meas, 0).optimum == 4


def test_binary_support_does_not_depend_on_reactance_scale():
    # A reactance of 1e10 puts 1e-10 into its rows of the measurement matrix;
    # the rows the 0/1 witness touches are the same as with unit reactance.
    for x in (1.0, 1e10, 1e-12):
        net = PowerNetwork(bus_count=3, lines=((0, 1, x), (1, 2, 1.0), (0, 2, 1.0)))
        result = oracle_binary(net, full_measurement(net), 0)
        assert result.optimum == 7, x
        assert result.support == (0, 1, 3, 4, 6, 7, 8), x


def test_network_supports_match_the_optimum_at_any_reactance_scale():
    # Under derived weights the optimum counts the rows its witness touches,
    # whether one line's rows hold 1e12 or 1e-12.
    for x in (1e-12, 1.0, 1e9, 1e10, 1e12):
        triangle = PowerNetwork(bus_count=3, lines=((0, 1, x), (1, 2, 1.0), (0, 2, 1.0)))
        mesh = PowerNetwork(
            bus_count=4, lines=((0, 1, x), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0))
        )
        for net in (triangle, mesh):
            results = oracle_continuous_network(
                net,
                full_measurement(net),
                edge_targets=range(net.line_count),
                node_targets=range(net.bus_count),
            )
            for key, res in results.items():
                assert len(res.support) == res.optimum, (x, net.bus_count, key)


def test_binary_matches_cut_pipeline():
    rng = random.Random(321)
    for _ in range(25):
        net = random_network(rng, max_buses=8, max_lines=12)
        meas = random_placement(rng, net)
        model = build_h(net, meas)
        weights = None
        for line in range(net.line_count):
            b = oracle_binary(net, meas, line)
            inst_value = None
            if line in meas.flow_from:
                k = meas.index_of("flow_from", line)
                inst_value = index_target(net, meas, weights, k, model=model).index
            elif line in meas.flow_to:
                k = meas.index_of("flow_to", line)
                inst_value = index_target(net, meas, weights, k, model=model).index
            if inst_value is not None:
                assert b.optimum == inst_value


def test_binary_at_least_continuous():
    rng = random.Random(654)
    for _ in range(15):
        net, meas, model = random_observable_case(rng, max_buses=8, max_lines=12)
        lines = sorted(set(meas.flow_from) | set(meas.flow_to))
        res = oracle_continuous_network(net, meas, edge_targets=lines, model=model)
        for line in lines:
            assert oracle_binary(net, meas, line).optimum >= res[("edge", line)].optimum


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
            direct = oracle_continuous(model.h, k, row_groups=groups)
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


def test_network_oracle_answers_reactances_at_both_ends_of_the_float_range():
    # The triangle with reactances 1e300, 1e-300 and 0.3 under full
    # measurement (fuzz defect 5). A witness that spans 1e300 to 2e300 has
    # a flow over the 1e-300 line past the float range; its cost and
    # support are read from it scaled below 1/2, so every target's optimum
    # is the cut pipeline's exact index, and each witness comes back at the
    # scale that hits its target.
    net = PowerNetwork(bus_count=3, lines=((0, 1, 1e300), (1, 2, 1e-300), (2, 0, 0.3)))
    meas = full_measurement(net)
    res = oracle_continuous_network(
        net, meas, edge_targets=range(net.line_count), node_targets=range(net.bus_count)
    )
    for e in index_all(net, meas).entries:
        key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
        assert res[key].optimum == e.index, key
    assert max(np.abs(r.witness).max() for r in res.values()) >= 1e300
    for line, (u, v, x) in enumerate(net.lines):
        witness = res[("edge", line)].witness
        assert abs((witness[u] - witness[v]) / x - 1.0) < 1e-6


def test_attack_cost_matches_the_full_scan():
    # 0/1 shifts, continuous shifts with equal angles at both ends of some
    # lines, and the partition oracle's witnesses, whose injections cancel,
    # at three reactance scales and on parallel lines.
    rng = random.Random(4711)
    ties = 0
    for trial in range(90):
        base = random_network(rng, max_buses=9, max_lines=14)
        scale = (1.0, 1e-12, 1e10)[trial % 3]
        u, v, x = rng.choice(base.lines)
        lines = tuple((a, b, y * scale) for (a, b, y) in base.lines + ((u, v, 2 * x),))
        net = PowerNetwork(bus_count=base.bus_count, lines=lines)
        c = [Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(net.line_count)]
        p = [Fraction(rng.randint(0, 3), rng.choice((1, 3))) for _ in range(net.bus_count)]
        n = net.bus_count
        shifts = [
            np.array([float(rng.random() < 0.5) for _ in range(n)]),
            np.array([rng.choice((0.0, 0.5, 1.0, -2.0)) for _ in range(n)]),
            np.array([rng.uniform(-1.0, 1.0) for _ in range(n)]),
        ]
        if trial < 12:
            meas = full_measurement(net)
            found = oracle_continuous_network(net, meas, edge_targets=range(net.line_count))
            shifts += [r.witness for r in found.values() if r.feasible]
        for dtheta in shifts:
            ties += sum(dtheta[a] == dtheta[b] != 0 for (a, b, _) in net.lines)
            assert attack_cost(net, c, p, dtheta) == full_scan_attack_cost(net, c, p, dtheta)
    assert ties > 0


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
                    model.h, k, row_groups=groups, extra_nonzero=a_e
                )
                relaxed = res[("edge", line)].optimum
                binary = oracle_binary(net, meas, line).optimum
                assert relaxed <= double.optimum <= binary
                doubles.append(double.optimum)
            assert min(doubles) == res[("node", bus)].optimum


def _connected_set_partitions(net):
    """Independent reference: every labelling in first-occurrence form whose
    groups each induce a connected subgraph."""
    n = net.bus_count
    out = []

    def grow(lab, groups):
        if len(lab) == n:
            if all(_group_connected(net, lab, g) for g in range(groups)):
                out.append(tuple(lab))
            return
        for g in range(groups + 1):
            grow(lab + [g], max(groups, g + 1))

    grow([], 0)
    return out


def _group_connected(net, lab, g):
    members = [b for b in range(net.bus_count) if lab[b] == g]
    seen, stack = {members[0]}, [members[0]]
    while stack:
        bus = stack.pop()
        for ln in net.incident_lines(bus):
            u, v, _ = net.lines[ln]
            other = v if u == bus else u
            if lab[other] == g and other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(members)


def test_capped_enumeration_is_the_full_one_filtered_by_cost():
    rng = random.Random(2718)
    for _ in range(40):
        net = random_network(rng, min_buses=2, max_buses=7, max_lines=10)
        # zero-cost lines are unmetered lines: cutting them is free
        costs = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(net.line_count)]
        endpoints = [(u, v) for (u, v, _) in net.lines]
        total = sum(costs)
        full = _connected_partitions(net.bus_count, endpoints, costs, 0, total + 1)
        assert sorted(r[1] for r in full) == sorted(_connected_set_partitions(net))
        for cost, labels, cut in full:
            assert cut == tuple(i for i, (u, v) in enumerate(endpoints) if labels[u] != labels[v])
            assert cost == sum(costs[i] for i in cut)
        for cap in (0, 1, total // 2, total, total + 1, total + 7):
            capped = _connected_partitions(net.bus_count, endpoints, costs, 0, cap)
            assert capped == [r for r in full if r[0] < cap], cap
        for low, cap in ((1, total + 1), (total // 2, total), (2, 3), (total, total + 1),
                         (total + 1, total + 7), (3, 1)):
            banded = _connected_partitions(net.bus_count, endpoints, costs, low, cap)
            assert banded == [r for r in full if low <= r[0] < cap], (low, cap)
        # the banded scan meets every record once, in (cost, labels) order,
        # and stops short of the cost it is told the scan stops at
        ordered = sorted(full, key=lambda r: r[:2])
        for stop in (None, 0, 1, total // 2, total + 1):
            banded = list(_partitions_by_cost(net.bus_count, endpoints, costs, lambda: stop))
            assert banded == [r for r in ordered if stop is None or r[0] < stop], stop


def _verify_scan(net, meas, weights, model):
    """The arguments of ``verify``'s oracle call: every metered line and
    injection as a target."""
    return dict(
        net=net, meas=meas, weights=weights, model=model,
        edge_targets=sorted(set(meas.flow_from) | set(meas.flow_to)),
        node_targets=list(meas.injection),
    )


def _desk_scans(seed, indices):
    """``verify``'s oracle calls on cases ``indices`` of the benchmark's
    seeded desk stream."""
    generate = benchmark_generate()
    for i in indices:
        case = parse_native_text(generate.dump(generate.desk_case(seed, i)).decode())
        yield _verify_scan(case.net, case.meas, case.weights, build_h(case.net, case.meas))


def _solved(scans):
    return [
        {key: (r.optimum, None if r.witness is None else r.witness.tobytes(), r.support)
         for key, r in oracle_continuous_network(**scan).items()}
        for scan in scans
    ]


def test_network_oracle_equals_one_uncapped_pass(monkeypatch):
    rng = random.Random(4242)
    choices = [Fraction(k, 3) for k in range(7)]
    cases = []
    while len(cases) < 25:
        net, meas, model = random_observable_case(rng, max_buses=8, max_lines=12)
        custom = WeightAssignment(
            edge_costs=[rng.choice(choices) for _ in range(net.line_count)],
            node_costs=[rng.choice(choices) for _ in range(net.bus_count)],
        )
        for weights in (None, custom):
            cases.append(_verify_scan(net, meas, weights, model))

    banded = _solved(cases)
    monkeypatch.setattr(oracle, "_band_caps", lambda costs: iter([sum(costs) + 1]))
    assert _solved(cases) == banded
    assert any(key[0] == "node" for res in banded for key in res)


def test_settling_partitions_by_forced_charges_changes_no_answer(monkeypatch):
    # The scan skips a target whose budget the partition's forced charges
    # already spend, and an injection target at a bus no cut line touches,
    # and bounds the edge targets' shared search by their widest open
    # budget. Without any of that (a search for every target with a
    # positive budget, the shared one unbounded) every optimum, witness
    # byte and support is the same.
    rng = random.Random(25)
    scans = [scan for seed in (1, 7)
             for scan in _desk_scans(seed, sorted(rng.sample(range(237), 24)))]
    pruned = _solved(scans)

    def every_target(cut, flow, edge_best, node_best, endpoints):
        def positive(best, keep):
            budgets = {key: _UNBOUNDED if b is None else b[0] - flow for key, b in best.items()}
            return {key: budget for key, budget in budgets.items() if budget > 0 and keep(key)}

        def is_cut(line):
            u, v = endpoints[line]
            return cut.labels[u] != cut.labels[v]

        return positive(edge_best, is_cut), positive(node_best, lambda bus: True)

    search = oracle._min_injection_dfs

    def unbounded_base(view, p_scaled, budget, required_bus=None):
        if required_bus is None:
            budget = _UNBOUNDED
        return search(view, p_scaled, budget, required_bus)

    monkeypatch.setattr(oracle, "_open_targets", every_target)
    monkeypatch.setattr(oracle, "_min_injection_dfs", unbounded_base)
    assert _solved(scans) == pruned
    assert sum(len(res) for res in pruned) > 300
    assert any(key[0] == "node" and r[0] is not None for res in pruned for key, r in res.items())


def test_the_desk_scan_builds_and_searches_a_quarter_of_the_partitions(monkeypatch):
    # Over the first 79 cases of the seed-1 desk stream, the scan built
    # 15,941 partition views and ran 31,336 injection searches when it
    # built a view for every partition with a target left open and ran
    # each search from there; settled by forced charges first it makes at
    # most a quarter of each.
    made = {"views": 0, "searches": 0}
    view, search = oracle._PartitionView, oracle._min_injection_dfs

    def counted_view(*args):
        made["views"] += 1
        return view(*args)

    def counted_search(*args, **kwargs):
        made["searches"] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "_PartitionView", counted_view)
    monkeypatch.setattr(oracle, "_min_injection_dfs", counted_search)
    _solved(_desk_scans(1, range(79)))
    assert made["views"] <= 15941 // 4
    assert made["searches"] <= 31336 // 4


def test_the_desk_scan_records_only_the_partitions_of_its_bands(monkeypatch):
    # Over the first 79 cases of the seed-1 desk stream, the scan's bands
    # hold 23,498 partitions; the enumerator built 28,228 records when
    # every band started from cost 0 and the records below it were dropped.
    built = []
    enumerate_band = oracle._connected_partitions

    def counted(*args):
        band = enumerate_band(*args)
        built.append(len(band))
        return band

    monkeypatch.setattr(oracle, "_connected_partitions", counted)
    _solved(_desk_scans(1, range(79)))
    assert sum(built) == 23498


def test_null_of_row_is_an_orthonormal_kernel_of_the_row():
    # The shrunk basis spans exactly the part of the old span the row
    # vanishes on: one column fewer, orthonormal, each annihilated by the
    # row, and every column inside the old span.
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 6):
        for lead in (1.0, -1.0, 0.0):
            basis = np.linalg.qr(rng.standard_normal((k + 3, k)))[0]
            row = rng.standard_normal(k + 3)
            restricted = row @ basis
            restricted[0] *= lead
            row = np.linalg.lstsq(basis.T, restricted, rcond=None)[0]  # row @ basis == restricted
            if not np.abs(restricted).max() > 0:
                continue
            kernel = oracle._null_of_row(basis, restricted)
            assert kernel.shape == (k + 3, k - 1)
            assert np.allclose(kernel.T @ kernel, np.eye(k - 1), atol=1e-12)
            assert np.allclose(row @ kernel, 0.0, atol=1e-12)
            assert np.allclose(basis @ (basis.T @ kernel), kernel, atol=1e-12)
