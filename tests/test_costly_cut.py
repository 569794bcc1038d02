import random
from fractions import Fraction

import pytest

from secindex import (
    CostlyCutInstance,
    InputError,
    SizeLimitError,
    TwoSidedCutInstance,
    build_auxiliary,
    dump_auxiliary,
    evaluate_partition,
    min_cut,
    solve,
    solve_brute_force,
    solve_fold_nodes,
    solve_ignore_nodes,
)
from secindex.caseio import parse_cut_instance
from secindex.cases import path as case_path
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
        symmetric=symmetric,
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


def test_no_protective_edge_in_cut():
    rng = random.Random(5150)
    for _ in range(60):
        inst = random_instance(rng, symmetric=False, max_nodes=8)
        aux = build_auxiliary(inst)
        cut = min_cut(aux.graph, aux.v_of[inst.source], aux.v_of[inst.sink])
        assert not (set(cut.cut_edges) & aux.big_cost_edges)


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
            symmetric=True,
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


def test_two_sided_degenerates_to_single():
    rng = random.Random(808)
    for _ in range(30):
        inst = random_instance(rng, symmetric=False, max_nodes=8)
        two = TwoSidedCutInstance(
            node_count=inst.node_count,
            edges=inst.edges,
            node_costs_out=inst.node_costs,
            node_costs_in=inst.node_costs,
            source=inst.source,
            sink=inst.sink,
        )
        assert solve(two).objective == solve(inst).objective


def test_two_sided_in_costs_zero_charges_tails_only():
    rng = random.Random(909)
    for _ in range(30):
        base = random_instance(rng, symmetric=False, max_nodes=7)
        two = TwoSidedCutInstance(
            node_count=base.node_count,
            edges=base.edges,
            node_costs_out=base.node_costs,
            node_costs_in=(Fraction(0),) * base.node_count,
            source=base.source,
            sink=base.sink,
        )
        fast = solve(two)
        slow = solve_brute_force(two)
        assert fast.objective == slow.objective
        # hand recomputation: edges plus tail charges only
        side = fast.source_side
        expect = sum(c for (u, v, c) in two.edges if u in side and v not in side)
        expect += sum(
            two.node_costs_out[u]
            for u in side
            if any(u == a and b not in side for (a, b, _) in two.edges)
        )
        assert fast.objective == expect


def test_two_sided_random_against_brute_force():
    rng = random.Random(111)
    for _ in range(40):
        base = random_instance(rng, symmetric=False, max_nodes=8)
        two = TwoSidedCutInstance(
            node_count=base.node_count,
            edges=base.edges,
            node_costs_out=tuple(Fraction(rng.randint(0, 4)) for _ in range(base.node_count)),
            node_costs_in=tuple(Fraction(rng.randint(0, 4)) for _ in range(base.node_count)),
            source=base.source,
            sink=base.sink,
        )
        assert solve(two).objective == solve_brute_force(two).objective


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


def test_symmetric_flag_requires_mirrors():
    with pytest.raises(InputError):
        CostlyCutInstance(
            node_count=2,
            edges=((0, 1, Fraction(1)),),
            node_costs=(Fraction(0), Fraction(0)),
            source=0,
            sink=1,
            symmetric=True,
        )


def test_evaluate_partition_validates_sides():
    inst = CostlyCutInstance(
        node_count=2, edges=((0, 1, Fraction(1)),), node_costs=(Fraction(0), Fraction(0)),
        source=0, sink=1,
    )
    with pytest.raises(InputError):
        evaluate_partition(inst, {1})


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
