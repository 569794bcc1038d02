import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import full_scan_partition_objective, layout_rows
from secindex import (
    CostlyCutInstance,
    InputError,
    InvariantError,
    SizeLimitError,
    build_auxiliary,
    costly_cut,
    dump_auxiliary,
    evaluate_partition,
    min_cut,
    mincut,
    solve,
    solve_brute_force,
    solve_fold_nodes,
    solve_ignore_nodes,
)
from secindex.caseio import parse_cut_instance
from secindex.cases import path as case_path
from secindex.costly_cut import _plain_graph, as_cost
from secindex.mincut import DiGraph


def random_instance(rng: random.Random, symmetric: bool, max_nodes=12):
    n = rng.randint(3, max_nodes)
    edges = []
    count = rng.randint(1, 2 * n)
    for _ in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        c = Fraction(rng.randint(0, 5))
        edges.append((u, v, c))
        if symmetric:
            edges.append((v, u, c))
    return CostlyCutInstance(
        node_count=n,
        edges=tuple(edges),
        node_costs=tuple(Fraction(rng.randint(0, 5)) for _ in range(n)),
        source=0,
        sink=n - 1,
    )


def test_auxiliary_size_two_nodes_one_edge():
    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, Fraction(1)),), node_costs=(Fraction(1), Fraction(1)),
        source=0, sink=1,
    )
    aux = build_auxiliary(inst)
    assert aux.graph.node_count == 6
    assert len(aux.graph.edges) == 7  # 3|E| + 2n


def test_auxiliary_zero_node_costs():
    inst = CostlyCutInstance(
        node_count=3,
        edges=((0, 1, Fraction(2)), (1, 2, Fraction(1))),
        node_costs=(Fraction(0),) * 3,
        source=0,
        sink=2,
    )
    aux = build_auxiliary(inst)
    chain_edges = aux.graph.edges[: 2 * 3]
    assert all(c == 0 for (_, _, c) in chain_edges)
    # with free nodes the optimum is the plain edge min cut
    plain = DiGraph(node_count=3, edges=((0, 1, 2), (1, 2, 1)))
    assert solve(inst).objective == min_cut(plain, 0, 2).value == 1


def test_single_partition_instance():
    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, Fraction(3)),),
        node_costs=(Fraction(1), Fraction(1)), source=0, sink=1,
    )
    assert solve_brute_force(inst).objective == 5
    assert solve(inst).objective == 5


def test_comparison_instance_golden():
    inst = parse_cut_instance(case_path("comparison.cut"))
    exact = solve(inst)
    assert exact.objective == 8
    assert exact.source_side == frozenset({0})
    assert solve_brute_force(inst).objective == 8
    # both heuristics settle on {source, 1, 2}, whose true cost is 9
    for heuristic in (solve_ignore_nodes, solve_fold_nodes):
        sol = heuristic(inst)
        assert sol.source_side == frozenset({0, 1, 2})
        assert sol.objective == 9
    # their internal objectives on the two candidate partitions
    edge_only = lambda side: sum(
        c for (u, v, c) in inst.edges if u in side and v not in side
    )
    assert edge_only({0}) == 2
    assert edge_only({0, 1, 2}) == 1
    folded = lambda side: sum(
        c + inst.node_costs[u] + inst.node_costs[v]
        for (u, v, c) in inst.edges
        if u in side and v not in side
    )
    assert folded({0}) == 10
    assert folded({0, 1, 2}) == 9


def test_matches_brute_force_on_random_instances():
    rng = random.Random(20240805)
    for trial in range(120):
        inst = random_instance(rng, symmetric=trial % 2 == 0)
        fast = solve(inst)
        slow = solve_brute_force(inst)
        assert fast.objective == slow.objective, (trial, fast.objective, slow.objective)
        # objectives recompute identically from the partitions
        assert evaluate_partition(inst, fast.source_side)[0] == fast.objective
        assert evaluate_partition(inst, slow.source_side)[0] == slow.objective
        # every solver's solution is its side's evaluation, field for field
        for solver in (solve, solve_brute_force, solve_ignore_nodes, solve_fold_nodes):
            sol = solver(inst)
            scored = (sol.objective, sol.cut_edges, sol.charged_nodes)
            assert scored == evaluate_partition(inst, sol.side, sol.is_sink), (trial, solver)


def test_no_protective_edge_in_cut():
    rng = random.Random(5150)
    for _ in range(60):
        inst = random_instance(rng, symmetric=False, max_nodes=8)
        aux = build_auxiliary(inst)
        cut = min_cut(aux.graph, inst.source, inst.sink)
        assert not (set(cut.cut_edges) & aux.big_cost_edges)


def test_solve_refuses_a_cut_through_a_protective_edge(monkeypatch):
    # ``solve`` tests each crossing edge's id against the tripled layout
    # with no call per edge. A minimum cut that is made to cross any one
    # protective edge is refused; one made to cross a cost or charge edge
    # instead passes that test, the side and value being the true ones.
    rng = random.Random(31)
    for _ in range(6):
        inst = random_instance(rng, symmetric=False, max_nodes=6)
        aux = build_auxiliary(inst)
        true = min_cut(aux.graph, inst.source, inst.sink)
        for e in range(len(aux.graph.arrays[0])):
            crossing = dataclasses.replace(true, cut_edges=(e,))
            monkeypatch.setattr(costly_cut, "min_cut", lambda *_: crossing)
            if e in aux.big_cost_edges:
                with pytest.raises(InvariantError, match="protective big-cost edge"):
                    solve(inst)
            else:
                assert solve(inst).objective == Fraction(true.value, inst.int_costs[0])


def test_symmetric_source_sink_swap():
    rng = random.Random(616)
    for _ in range(40):
        inst = random_instance(rng, symmetric=True, max_nodes=9)
        swapped = CostlyCutInstance(
            node_count=inst.node_count,
            edges=inst.edges,
            node_costs=inst.node_costs,
            source=inst.sink,
            sink=inst.source,
        )
        assert solve(inst).objective == solve(swapped).objective


def test_disconnected_node_changes_nothing():
    inst = CostlyCutInstance(
        node_count=3,
        edges=((0, 1, Fraction(2)), (1, 2, Fraction(1))),
        node_costs=(Fraction(1), Fraction(2), Fraction(1)),
        source=0,
        sink=2,
    )
    grown = CostlyCutInstance(
        node_count=4,
        edges=inst.edges,
        node_costs=inst.node_costs + (Fraction(5),),
        source=0,
        sink=2,
    )
    assert solve(inst).objective == solve(grown).objective


def test_isolated_source():
    inst = CostlyCutInstance(
        node_count=3,
        edges=((1, 2, Fraction(4)),),
        node_costs=(Fraction(2), Fraction(1), Fraction(1)),
        source=0,
        sink=2,
    )
    sol = solve(inst)
    assert sol.objective == 0
    assert sol.source_side == frozenset({0})


def test_rational_costs_solved_exactly():
    inst = CostlyCutInstance(
        node_count=3,
        edges=((0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))),
        node_costs=(Fraction(1, 6), Fraction(0), Fraction(0)),
        source=0,
        sink=2,
    )
    sol = solve(inst)
    assert sol.objective == solve_brute_force(inst).objective == Fraction(1, 2)


@pytest.mark.parametrize("value", [3, Fraction(6, 2), "3", "6/2", "3.0", 3.0])
def test_as_cost_gives_an_int_for_an_integral_cost(value):
    cost = as_cost(value)
    assert type(cost) is int and cost == 3


@pytest.mark.parametrize(
    "value, expected",
    [(Fraction(3, 2), Fraction(3, 2)), ("3/2", Fraction(3, 2)), ("0.5", Fraction(1, 2)),
     (0.1, Fraction(1, 10))],
)
def test_as_cost_keeps_a_fraction_for_a_rational_cost(value, expected):
    cost = as_cost(value)
    assert type(cost) is Fraction and cost == expected


@pytest.mark.parametrize(
    "value",
    [True, False, -1, Fraction(-1, 2), "-3", -0.5, math.nan, math.inf, -math.inf, "nan",
     "inf", "1/0", None, [1]],
)
def test_as_cost_rejects_what_is_not_a_finite_nonnegative_number(value):
    with pytest.raises(InputError):
        as_cost(value)


@pytest.mark.parametrize(
    "value, expected",
    [(np.int64(3), 3), (np.int32(3), 3), (np.uint8(3), 3), (np.float64(3.0), 3),
     (np.float32(3.0), 3), (np.float64(0.5), Fraction(1, 2)), (np.float32(0.5), Fraction(1, 2))],
)
def test_as_cost_reads_a_numpy_scalar_as_its_number(value, expected):
    # A NumPy integer as its int, a NumPy floating scalar as its float.
    cost = as_cost(value)
    assert type(cost) is type(expected) and cost == expected


@pytest.mark.parametrize("value", [np.True_, np.False_, np.int64(-1), np.float64("nan"), np.float32("inf")])
def test_as_cost_rejects_a_numpy_bool_or_a_negative_or_unbounded_scalar(value):
    with pytest.raises(InputError):
        as_cost(value)


def test_integral_costs_sum_as_ints_and_rational_ones_exactly():
    # Integral costs never enter Fraction arithmetic; one rational cost
    # promotes the sums it enters, exactly.
    for costs, kind in (((2, "1", 1.0), int), ((2, "1/3", 1.0), Fraction)):
        inst = CostlyCutInstance(
            node_count=3,
            edges=((0, 1, costs[0]), (1, 2, costs[1])),
            node_costs=(0, costs[2], 0),
            source=0,
            sink=2,
        )
        for sol in (solve(inst), solve_brute_force(inst), solve_ignore_nodes(inst)):
            assert type(sol.objective) is kind
        edge, other_edge, charge = map(as_cost, costs)
        assert solve(inst).objective == min(edge, other_edge) + charge


def test_dump_format():
    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, Fraction(1)),), node_costs=(Fraction(1), Fraction(2)),
        source=0, sink=1,
    )
    text = dump_auxiliary(build_auxiliary(inst))
    lines = text.strip().splitlines()
    assert lines[0] == "6"
    assert len(lines) == 1 + 7
    for line in lines[1:]:
        u, v, c = line.split()
        assert 0 <= int(u) < 6 and 0 <= int(v) < 6 and int(c) >= 0


def test_brute_force_guard():
    inst = CostlyCutInstance(
        node_count=23,
        edges=((0, 22, Fraction(1)),),
        node_costs=(Fraction(0),) * 23,
        source=0,
        sink=22,
    )
    with pytest.raises(SizeLimitError):
        solve_brute_force(inst)


def test_evaluate_partition_validates_sides():
    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, Fraction(1)),), node_costs=(Fraction(0), Fraction(0)),
        source=0, sink=1,
    )
    with pytest.raises(InputError):
        evaluate_partition(inst, {1})
    with pytest.raises(InputError, match="node id 2 out of range"):
        evaluate_partition(inst, {0, 2})


def test_evaluate_partition_matches_the_full_scan():
    # Instances derived by ``with_terminals`` and built afresh, with
    # parallel and zero-cost edges, on sides of every size: the small side
    # at the source and at the sink, so the crossing edges are read from
    # either side of the partition.
    rng = random.Random(1789)
    walked = set()
    for trial in range(120):
        n = rng.randint(3, 12)
        edges = []
        for _ in range(rng.randint(1, 3 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, Fraction(rng.choice((0, 0, 1, 2, 5)), rng.choice((1, 3)))))
            if rng.random() < 0.3:
                edges.append((u, v, Fraction(rng.randint(0, 3))))

        def charges():
            return tuple(Fraction(rng.randint(0, 4), rng.choice((1, 2))) for _ in range(n))

        family = CostlyCutInstance(node_count=n, edges=tuple(edges), node_costs=charges(),
                                   source=0, sink=1)
        other = charges()
        for _ in range(4):
            s, t = rng.sample(range(n), 2)
            rest = [x for x in range(n) if x not in (s, t)]
            for inst in (
                family.with_terminals(s, t),
                CostlyCutInstance(node_count=n, edges=tuple(edges), node_costs=other,
                                  source=s, sink=t),
            ):
                for k in (0, len(rest), rng.randint(0, len(rest))):
                    side = {s, *rng.sample(rest, k)}
                    walked.add(2 * len(side) <= n)
                    assert evaluate_partition(inst, side) == full_scan_partition_objective(inst, side)
    assert walked == {True, False}


def test_the_recheck_does_not_lean_on_the_flows_cut_reader(monkeypatch):
    # A cut reader that drops one zero-capacity crossing arc leaves the
    # flow's cut value as it was, so only a recheck that reads the crossing
    # edges on its own still lists edge 0: it costs 0, and its ends are
    # charged through edges 1 and 3, which cross the cut too.
    inst = CostlyCutInstance(
        node_count=3, edges=((0, 2, 0), (0, 1, 1), (1, 2, 10), (0, 2, 1)),
        node_costs=(1, 1, 1), source=0, sink=2,
    )
    read = mincut.crossing_arcs

    def omitting(layout, *side):
        cut = read(layout, *side)
        zero = [e for e in cut if layout.cap[e] == 0]
        return [e for e in cut if e != zero[0]] if zero else cut

    monkeypatch.setattr(mincut, "crossing_arcs", omitting)
    monkeypatch.setattr(costly_cut, "crossing_arcs", omitting, raising=False)
    sol = solve(inst)
    objective, cut_edges, charged = full_scan_partition_objective(inst, sol.source_side)
    assert sol.source_side == {0} and cut_edges == (0, 1, 3)
    assert (sol.objective, sol.cut_edges, sol.charged_nodes) == (objective, cut_edges, charged)


def test_parallel_edges_kept_separately():
    inst = CostlyCutInstance(
        node_count=2,
        edges=((0, 1, Fraction(1)), (0, 1, Fraction(2))),
        node_costs=(Fraction(1), Fraction(1)),
        source=0,
        sink=1,
    )
    sol = solve(inst)
    assert sol.objective == 5  # both parallel edges cut, both endpoints charged
    assert sol.cut_edges == (0, 1)
    assert solve_brute_force(inst).objective == 5


def test_scaling_overflow_rejected():
    from secindex import CapacityOverflowError

    inst = CostlyCutInstance(
        node_count=2,
        edges=((0, 1, Fraction(2**62)),),
        node_costs=(Fraction(2**62), Fraction(0)),
        source=0,
        sink=1,
    )
    with pytest.raises(CapacityOverflowError):
        build_auxiliary(inst)


def _tuple_auxiliary(inst):
    """The auxiliary graph built edge by edge through the public tuple
    constructor, in the order ``build_auxiliary`` documents, and the ids of
    its protective edges."""
    n = inst.node_count
    _, edge_scaled, charges = inst.int_costs
    big = max(charges) + 1
    edges = []
    for i in range(n):
        edges += [(n + i, i, charges[i]), (i, 2 * n + i, charges[i])]
    for (u, v, _), c in zip(inst.edges, edge_scaled):
        edges += [(u, v, c), (u, n + v, big), (2 * n + u, v, big)]
    protective = {e for e in range(2 * n, len(edges)) if (e - 2 * n) % 3}
    return DiGraph(node_count=3 * n, edges=tuple(edges)), protective


def _loop_layout(g):
    """The residual layout built arc by arc from the edge triples."""
    adj = [[] for _ in range(g.node_count)]
    to, cap = [], []
    for i, (u, v, c) in enumerate(g.edges):
        to += [v, u]
        cap += [c, 0]
        adj[u].append(2 * i)
        adj[v].append(2 * i + 1)
    return tuple(map(tuple, adj)), tuple(to), tuple(cap)


def test_array_built_graphs_match_the_tuple_constructor():
    # Rational and zero costs: the auxiliary graph and the heuristics'
    # graphs, built from arrays, hold the edges, protective ids, dump and
    # residual layout that edge-by-edge tuples give.
    rng = random.Random(1717)
    costs = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(7, 4)]
    for trial in range(60):
        base = random_instance(rng, symmetric=trial % 2 == 0)
        n = base.node_count
        edges = tuple((u, v, rng.choice(costs)) for (u, v, _) in base.edges)
        inst = CostlyCutInstance(
            node_count=n, edges=edges,
            node_costs=tuple(rng.choice(costs) for _ in range(n)),
            source=0, sink=n - 1,
        )
        aux = build_auxiliary(inst)
        ref, protective = _tuple_auxiliary(inst)
        assert aux.graph.edges == ref.edges, trial
        assert aux.big_cost_edges == protective, trial
        assert dump_auxiliary(aux) == "".join(
            f"{line}\n" for line in [str(3 * n)] + [f"{u} {v} {c}" for (u, v, c) in ref.edges]
        )
        assert layout_rows(aux.graph) == layout_rows(ref) == _loop_layout(ref), trial
        for fold in (False, True):
            plain = _plain_graph(inst, fold)
            folded = [
                c + inst.node_costs[u] + inst.node_costs[v] if fold else c
                for (u, v, c) in inst.edges
            ]
            scale = math.lcm(*(Fraction(c).denominator for c in folded))
            ref = DiGraph(node_count=n, edges=tuple(
                (u, v, int(c * scale)) for (u, v, _), c in zip(inst.edges, folded)
            ))
            assert plain.edges == ref.edges, (trial, fold)
            assert layout_rows(plain) == _loop_layout(ref), (trial, fold)


def test_instance_from_arrays_checks_like_the_tuple_constructor():
    tails, heads = np.array([0, 1, 2]), np.array([1, 2, 0])
    inst = CostlyCutInstance.from_arrays(3, tails, heads, [1, Fraction(1, 2), 0], (0, 1, 2), 0, 2)
    triple = CostlyCutInstance(
        node_count=3, edges=((0, 1, 1), (1, 2, Fraction(1, 2)), (2, 0, 0)),
        node_costs=(0, 1, 2), source=0, sink=2,
    )
    assert inst == triple
    # the triple constructor sets the endpoint arrays and the costs itself
    assert "ends" in vars(triple) and "costs" in vars(triple)
    assert all(a.tolist() == b.tolist() for a, b in zip(triple.ends, inst.ends))
    assert triple.costs == inst.costs
    for bad_heads in ([1, 3, 0], [1, 1, 0], [1, 2, -1]):
        edges = tuple(zip(tails.tolist(), bad_heads, [1, 1, 1]))
        with pytest.raises(InputError) as built:
            CostlyCutInstance(node_count=3, edges=edges, node_costs=(0, 0, 0), source=0, sink=2)
        with pytest.raises(InputError) as arrays:
            CostlyCutInstance.from_arrays(3, tails, np.array(bad_heads), [1, 1, 1], (0, 0, 0), 0, 2)
        assert str(arrays.value) == str(built.value)
    # an id past 64 bits is out of range, not an OverflowError
    with pytest.raises(InputError, match="edge 1: node id out of range"):
        CostlyCutInstance(node_count=3, edges=((0, 1, 1), (0, 2**70, 1)),
                          node_costs=(0, 0, 0), source=0, sink=2)


def test_a_terminal_the_instance_accepts_is_one_its_solver_accepts():
    # A NumPy integer is taken as its Python int, by the instance, by the
    # instances it derives and by the flow.
    edges = ((0, 1, 2), (1, 2, 1))
    plain = CostlyCutInstance(node_count=3, edges=edges, node_costs=(0, 0, 0), source=0, sink=2)
    inst = CostlyCutInstance(
        node_count=3, edges=edges, node_costs=(0, 0, 0), source=np.int64(0), sink=2,
    )
    assert type(inst.source) is int and inst == plain
    assert solve(inst) == solve(plain)
    derived = plain.with_terminals(np.int32(2), np.int64(0))
    assert (type(derived.source), type(derived.sink)) == (int, int)
    assert solve(derived) == solve(plain.with_terminals(2, 0))
    g = DiGraph(node_count=3, edges=edges)
    assert min_cut(g, np.int64(0), np.int64(2)) == min_cut(g, 0, 2)
    # A bool or a non-integer is refused, saying so, wherever a terminal
    # is given.
    for bad in (True, np.True_, 1.0, "0"):
        with pytest.raises(InputError, match="source id .* is not an integer"):
            min_cut(g, bad, 2)
        with pytest.raises(InputError, match="source id .* is not an integer"):
            CostlyCutInstance(node_count=3, edges=edges, node_costs=(0, 0, 0), source=bad, sink=2)
        with pytest.raises(InputError, match="source id .* is not an integer"):
            plain.with_terminals(bad, 2)


@pytest.mark.parametrize("edge_cost, node_cost", [
    (2**64, 0),  # one scaled cost past 64 bits
    (2**62, 2**62),  # each fits, the total does not
    (0, 2**63 - 1),  # the protective edges' cost, one more than a charge, does not fit
    (Fraction(2**62, 3), Fraction(1, 5)),  # the scaling pushes the total past the limit
])
def test_scaled_capacity_overflow_is_an_input_error(tmp_path, capsys, edge_cost, node_cost):
    from secindex import CapacityOverflowError
    from secindex.cli import main

    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, edge_cost), (1, 0, edge_cost)),
        node_costs=(node_cost, 0), source=0, sink=1,
    )
    with pytest.raises(CapacityOverflowError):
        build_auxiliary(inst)
    with pytest.raises(CapacityOverflowError):
        solve_fold_nodes(dataclasses.replace(inst, node_costs=(node_cost, node_cost)))
    path = tmp_path / "big.cut"
    path.write_text(
        f"nodes 2\nedge 1 2 {edge_cost}\nedge 2 1 {edge_cost}\nnode 1 {node_cost}\n"
        "source 1\nsink 2\n"
    )
    assert main(["cut", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "64-bit limit" in err, err
