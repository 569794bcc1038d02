import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_min_cut_value,
    full_scan_crossing_edges,
    full_search_reach,
    label_classes,
    layout_rows,
    mirrored,
    mutual_reach_classes,
    random_digraph,
)
from secindex import (
    CapacityOverflowError,
    DiGraph,
    InputError,
    cut_value,
    min_cut,
    min_cut_extremes,
)
from secindex.caseio import parse_matpower_subset, parse_native
from secindex.cases import path as case_path
from secindex.costly_cut import CostlyCutInstance, _plain_graph, build_auxiliary
from secindex.indices import cut_instance_for_line
from secindex import cli
from secindex.mincut import MAX_TOTAL_CAPACITY, _checked_cut, _max_flow, _reach, interleave
from secindex.power_model import PowerNetwork, WeightAssignment


def _sink_side(g, cut):
    """The nodes of ``g`` outside the cut's source side."""
    return frozenset(range(g.node_count)) - cut.source_side


def test_single_edge_cut():
    g = DiGraph(node_count=2, edges=((0, 1, 5),))
    sol = min_cut(g, 0, 1)
    assert sol.value == 5
    assert sol.cut_edges == (0,)
    assert sol.source_side == frozenset({0})
    assert _sink_side(g, sol) == frozenset({1})


def test_disconnected_pair():
    g = DiGraph(node_count=2, edges=())
    sol = min_cut(g, 0, 1)
    assert sol.value == 0
    assert sol.cut_edges == ()


def test_cut_value_single_edge():
    g = DiGraph(node_count=2, edges=((0, 1, 5),))
    assert cut_value(g, {0}) == 5
    assert cut_value(g, {0}) == min_cut(g, 0, 1).value


def test_parallel_edges_all_cut():
    g = DiGraph(node_count=2, edges=((0, 1, 2), (0, 1, 3)))
    sol = min_cut(g, 0, 1)
    assert sol.value == 5
    assert sol.cut_edges == (0, 1)


def test_reject_self_loop():
    with pytest.raises(InputError):
        DiGraph(node_count=2, edges=((0, 0, 1),))


def test_reject_negative_capacity():
    with pytest.raises(InputError):
        DiGraph(node_count=2, edges=((0, 1, -1),))


def test_reject_out_of_range_ids():
    with pytest.raises(InputError):
        DiGraph(node_count=2, edges=((0, 2, 1),))
    g = DiGraph(node_count=2, edges=((0, 1, 1),))
    with pytest.raises(InputError):
        min_cut(g, 0, 5)
    with pytest.raises(InputError):
        min_cut(g, 1, 1)


def test_reject_capacity_overflow():
    with pytest.raises(CapacityOverflowError):
        DiGraph(node_count=2, edges=((0, 1, 2**63 - 1), (1, 0, 1)))
    # exactly at the limit is fine
    DiGraph(node_count=2, edges=((0, 1, MAX_TOTAL_CAPACITY),))


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(200):
        g = random_digraph(rng)
        s, t = 0, 7
        sol = min_cut(g, s, t)
        assert sol.value == brute_force_min_cut_value(g, s, t)
        assert sol.value == sum(g.edges[i][2] for i in sol.cut_edges)
        assert cut_value(g, sol.source_side) == sol.value


def test_deterministic_output():
    rng = random.Random(7)
    g = random_digraph(rng)
    assert min_cut(g, 0, 7) == min_cut(g, 0, 7)


def test_monotone_in_capacity():
    rng = random.Random(99)
    for _ in range(50):
        g = random_digraph(rng, nodes=6, edges=10, max_cap=6)
        base = min_cut(g, 0, 5).value
        idx = rng.randrange(len(g.edges))
        u, v, c = g.edges[idx]
        bumped = DiGraph(
            node_count=g.node_count,
            edges=g.edges[:idx] + ((u, v, c + 3),) + g.edges[idx + 1 :],
        )
        assert min_cut(bumped, 0, 5).value >= base


def test_min_cut_below_any_cut_value():
    rng = random.Random(13)
    for _ in range(50):
        g = random_digraph(rng, nodes=7, edges=12)
        sol = min_cut(g, 0, 6)
        side = {0} | {n for n in range(1, 6) if rng.random() < 0.5}
        assert sol.value <= cut_value(g, side)


def test_extremes_share_value_and_nest():
    rng = random.Random(31337)
    for _ in range(100):
        g = random_digraph(rng)
        minimal, maximal = min_cut_extremes(g, 0, 7)
        assert minimal.value == maximal.value
        assert minimal.source_side <= maximal.source_side


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 8)), max_size=14), st.randoms())
def test_flow_equals_cut_property(raw_edges, _rng):
    edges = tuple((u, v, c) for (u, v, c) in raw_edges if u != v)
    g = DiGraph(node_count=6, edges=edges)
    sol = min_cut(g, 0, 5)
    assert sol.value == cut_value(g, sol.source_side)
    sink_side = _sink_side(g, sol)
    assert 0 in sol.source_side and 5 in sink_side
    assert sol.source_side | sink_side == frozenset(range(6))
    assert not (sol.source_side & sink_side)


def test_concurrent_solves_share_graph():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(2718)
    edges = random_digraph(rng, nodes=8, edges=20).edges
    pairs = [(s, t) for s in range(8) for t in range(8) if s != t]
    expected = {p: min_cut(DiGraph(node_count=8, edges=edges), *p) for p in pairs}
    # A graph whose residual layout no flow has built yet: the threads race
    # to build it, then run flows on it side by side.
    g = DiGraph(node_count=8, edges=edges)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda p: (p, min_cut(g, *p)), pairs * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * len(pairs)
    assert all(r == expected[p] for p, r in results)

    # A cold graph of 40 clusters of 10 nodes, each cluster linked to the
    # next by zero-capacity edges, with terminal pairs in 24 clusters spread
    # over it: the threads fill the per-node arc tuples of different
    # regions side by side, and of the same nodes where their flows meet.
    nodes, size = 400, 10
    edges = []
    for base in range(0, nodes, size):
        edges += [(base + u, base + v, c) for u, v, c in random_digraph(rng, size, 30, 9).edges]
        edges += [(base, (base + size) % nodes, 0), ((base + size) % nodes, base, 0)]
    clusters = rng.sample(range(0, nodes, size), 24)
    pairs = [(base + s, base + t) for base in clusters for _ in range(2)
             for s, t in [rng.sample(range(size), 2)]]
    expected = {
        p: (min_cut(DiGraph(node_count=nodes, edges=edges), *p),
            min_cut_extremes(DiGraph(node_count=nodes, edges=edges), *p))
        for p in pairs
    }
    g = DiGraph(node_count=nodes, edges=edges)
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda p: (p, (min_cut(g, *p), min_cut_extremes(g, *p))), pairs * 2, timeout=60
            ))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 2 * len(pairs)
    assert all(r == expected[p] for p, r in results)
    # no flow crosses a zero-capacity link: the clusters without terminals
    # are never read
    made = {u for u, arcs in enumerate(g.residual_layout.adj) if arcs is not None}
    assert made and {u - u % size for u in made} <= set(clusters)
    assert layout_rows(g) == layout_rows(DiGraph(node_count=nodes, edges=edges))


def _split_cases():
    rng = random.Random(4242)
    for _ in range(200):
        yield random_digraph(rng), 0, 7
    # parallel edges, some of them zero, in both directions
    for _ in range(50):
        g = random_digraph(rng, nodes=5, edges=8, max_cap=4)
        yield DiGraph(node_count=5, edges=g.edges + g.edges[:4] + ((0, 4, 0), (0, 4, 0))), 0, 4
    # zero capacities only, and a sink cut off entirely
    yield DiGraph(node_count=4, edges=((0, 1, 0), (1, 2, 0), (2, 3, 0))), 0, 3
    yield DiGraph(node_count=4, edges=((0, 1, 3), (1, 2, 2))), 0, 3
    # a deep path with a shortcut: the first augmenting path is the
    # shortcut; the next needs the whole path, beside a dead-end branch as
    # deep as the sink
    depth = 6
    path_edges = tuple((i, i + 1, 1 + i % 3) for i in range(depth))
    branch = tuple((i, i + 1, 5) for i in range(depth + 1, 2 * depth)) + ((0, depth + 1, 5),)
    for shortcut in (1, 2, 5):
        edges = path_edges + branch + ((0, depth, shortcut),)
        yield DiGraph(node_count=2 * depth + 1, edges=edges), 0, depth
    # the small side at the sink: heavy edges among the other nodes and a
    # few light ones into the sink, so the backward search closes first and
    # the minimal source side is found from the sink side
    for _ in range(60):
        inner = random_digraph(rng, nodes=7, edges=18, max_cap=9).edges
        into_sink = tuple((rng.randrange(7), 7, rng.randint(0, 2)) for _ in range(3))
        yield DiGraph(node_count=8, edges=inner + into_sink), 0, 7


def test_min_cut_is_the_minimal_extreme():
    for g, s, t in _split_cases():
        sol = min_cut(g, s, t)
        assert sol == min_cut_extremes(g, s, t)[0]
        assert sol.value == brute_force_min_cut_value(g, s, t)


def test_augmentations_do_not_grow_with_the_capacities():
    # The classic diamond: an augmenting path through the unit cross edge
    # would leave one more unit each time, so 2 * 10**15 of them. Shortest
    # augmenting paths never use it.
    big = 10**15
    for cross in ((1, 2, 1), (2, 1, 1)):
        edges = ((0, 1, big), (0, 2, big), cross, (1, 3, big), (2, 3, big))
        for order in (edges, edges[::-1]):
            g = DiGraph(node_count=4, edges=order)
            assert min_cut(g, 0, 3).value == 2 * big == brute_force_min_cut_value(g, 0, 3)


class _CountingList:
    """A list that counts the items read from it."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __setitem__(self, i, value):
        self.items[i] = value


def _count_arc_reads(g):
    """Swap the per-node arc list of ``g``'s residual layout for one that
    counts its reads, and return it."""
    layout = g.residual_layout
    counting = _CountingList(layout.adj)
    g.__dict__["residual_layout"] = layout._replace(adj=counting)
    return counting


def _tree_fed_sink(depth, fan_in=5):
    # Source 0 reaches the sink 1 through nodes 2, 3 and 4, with a small cut
    # around {0, 2, 3}. The sink is also fed by an in-tree of the given
    # depth, numbered layer by layer, so trees of different depths share
    # their nodes, edges and edge order near the sink.
    edges = [(0, 2, 5), (0, 3, 5), (2, 1, 1), (3, 1, 1), (2, 4, 1), (4, 1, 1)]
    layer, nxt = [1], 5
    for _ in range(depth):
        children = []
        for parent in layer:
            for _ in range(fan_in):
                edges.append((nxt, parent, 1))
                children.append(nxt)
                nxt += 1
        layer = children
    return DiGraph(node_count=nxt, edges=tuple(edges))


def test_search_reads_only_the_neighbourhood_of_the_cut():
    reads = []
    for depth in (3, 6):
        g = _tree_fed_sink(depth)
        counting = _count_arc_reads(g)
        sol = min_cut(g, 0, 1)
        assert sol.value == 3 and sol.source_side == frozenset({0, 2, 3})
        reads.append((g.node_count, counting.reads))
    (small, small_reads), (large, large_reads) = reads
    assert small < 200 and large > 19000
    assert small_reads == large_reads < 40


def test_a_cold_flow_makes_arc_tuples_only_for_the_nodes_it_reads():
    # The first flow on a graph builds its residual layout; the per-node arc
    # tuples in it are made only for the nodes the searches and the cut
    # readout visit, as many on 19,535 nodes as on 156.
    made = []
    for depth in (3, 6):
        g = _tree_fed_sink(depth)
        assert "residual_layout" not in vars(g)
        sol = min_cut(g, 0, 1)
        assert sol.value == 3 and sol.source_side == frozenset({0, 2, 3})
        adj = g.residual_layout.adj
        assert len(adj) == g.node_count
        made.append((g.node_count, sum(arcs is not None for arcs in adj)))
    (small, small_made), (large, large_made) = made
    assert small < 200 and large > 19000
    assert small_made == large_made < 40


def test_cut_readout_builds_no_grid_sized_set():
    # A source side of 3 among 19,535 nodes: reading its crossing edges
    # allocates in proportion to those 3 nodes' arcs, not to the graph.
    g = _tree_fed_sink(6)
    sol = min_cut(g, 0, 1)
    assert sol.source_side == frozenset({0, 2, 3}) and g.node_count == 19535
    assert sol.side == sol.source_side and not sol.is_sink
    one_set = sys.getsizeof(frozenset(range(g.node_count)))
    tracemalloc.start()
    try:
        assert _checked_cut(g, sol.side, sol.is_sink, sol.value) == sol
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_set


def test_checked_cut_matches_the_full_scan_on_both_extremes():
    # Both canonical cuts of each flow, read from the side each carries and
    # from the other side, against a scan of every edge; parallel and
    # zero-capacity edges included.
    rng = random.Random(2718)
    walked = set()
    for _ in range(150):
        nodes = rng.randint(3, 12)
        base = random_digraph(rng, nodes=nodes, edges=rng.randint(1, 3 * nodes), max_cap=4)
        g = DiGraph(node_count=nodes, edges=base.edges + base.edges[:3] + ((0, 1, 0),))
        s, t = rng.sample(range(nodes), 2)
        for cut in min_cut_extremes(g, s, t):
            sink_side = _sink_side(g, cut)
            walked.add(cut.is_sink)
            assert cut.side == (sink_side if cut.is_sink else cut.source_side)
            assert cut.cut_edges == full_scan_crossing_edges(g.edges, cut.source_side)
            assert cut.value == sum(g.edges[i][2] for i in cut.cut_edges)
            assert _checked_cut(g, cut.side, cut.is_sink, cut.value) == cut
            far = cut.source_side if cut.is_sink else sink_side
            other = _checked_cut(g, far, not cut.is_sink, cut.value)
            assert (other.cut_edges, other.source_side) == (cut.cut_edges, cut.source_side)
    assert walked == {True, False}


def test_a_near_whole_source_side_is_carried_by_its_sink_side():
    # A ring of 20,000 nodes, every arc of capacity 5, with the sink hung
    # off node 1 by two arcs of capacity 1: the minimal source side is the
    # whole ring. Reading the cut from the finished flow carries its sink
    # side instead, and allocates less than one set of the ring's nodes.
    n = 20000
    ring = [(i, (i + 1) % n, 5) for i in range(n)] + [((i + 1) % n, i, 5) for i in range(n)]
    g = DiGraph(node_count=n + 1, edges=tuple(ring + [(1, n, 1), (n, 1, 1)]))
    flow, cap, searches = _max_flow(g, 0, n)
    assert flow == 1 and len(g.labels[1]) == 1  # one label, found before memory is traced
    one_set = sys.getsizeof(frozenset(range(n)))
    tracemalloc.start()
    try:
        sol = _checked_cut(g, *_reach(g, cap, searches, 0), flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_set
    assert (sol.side, sol.is_sink, sol.value, sol.cut_edges) == ({n}, True, 1, (2 * n,))
    assert sol.source_side == frozenset(range(n))
    assert min_cut(g, 0, n) == sol


def test_carried_side_matches_the_full_search_across_capacity_components():
    # Graphs whose positive-capacity edges come in reverse pairs and form
    # several components, so several labels; every ordered pair of
    # terminals, so that a local search ends each way in both directions:
    # with the tree closed (the root's label holds at most half the nodes,
    # or the tree closed first), and with the cut's other side carried: the
    # set found, with the members of every other label.
    rng = random.Random(1729)
    taken = set()
    graphs = 0
    while graphs < 150:
        nodes = rng.randint(3, 10)
        g = mirrored(random_digraph(rng, nodes=nodes, edges=rng.randint(2, 2 * nodes), max_cap=2), rng)
        if len(g.labels[1]) < 2:
            continue
        graphs += 1
        pairs = [(s, t) for s in range(nodes) for t in range(nodes) if s != t]
        _check_reach_of_every_flow(g, pairs, taken)
    assert taken == {(b, k) for b in (0, 1) for k in ("closed", "other side")}


def _tree_fed_by_source(depth, fan_out=5):
    # Source 0 reaches the sink 1 through nodes 2 and 3; the minimum cut
    # consists of the edges 2 -> 1 and 0 -> 3, so the sink side is {1, 3}.
    # The source also feeds an out-tree of the given depth that never
    # reaches the sink, so the source side holds all the other nodes.
    edges = [(0, 2, 5), (2, 1, 1), (0, 3, 1), (3, 1, 5)]
    layer, nxt = [0], 4
    for _ in range(depth):
        children = []
        for parent in layer:
            for _ in range(fan_out):
                edges.append((parent, nxt, 1))
                children.append(nxt)
                nxt += 1
        layer = children
    return DiGraph(node_count=nxt, edges=tuple(edges))


def test_cut_readout_reads_only_the_smaller_side():
    # Where the source side is nearly the whole graph, the cut carries its
    # sink side, and the crossing edges are read from the adjacency lists
    # of the sink side alone. Each edge has its reverse after it, so the
    # graph is labelled and the far side is found locally.
    for depth in (3, 6):
        g = mirrored(_tree_fed_by_source(depth))
        sol = min_cut(g, 0, 1)
        sink_side = _sink_side(g, sol)
        assert sol.value == 2 and sink_side == frozenset({1, 3})
        assert sol.is_sink and sol.side == sink_side
        assert sol.cut_edges == (1, 2)
        counting = _count_arc_reads(g)
        assert _checked_cut(g, sol.side, sol.is_sink, sol.value) == sol
        assert counting.reads == len(sink_side) == 2


def test_bulk_validation_names_the_first_offending_edge():
    good = (0, 1, 1)
    cases = [
        ((good, (0, 2, 1), (1, 1, 1)), "edge 1: node id out of range in (0, 2, 1)"),
        ((good, (1, 1, 1), (0, 1, -1)), "edge 1: self-loop at node 1"),
        ((good, (0, 1, -1), (0, 1, 1.0)), "edge 1: negative capacity -1"),
        ((good, (0, 1, 1.0), (0, 5, 1)),
         "edge 1: endpoints and capacity must be integers, got (0, 1, 1.0)"),
        ((good, (-1, 1, 1)), "edge 1: node id out of range in (-1, 1, 1)"),
    ]
    for edges, message in cases:
        with pytest.raises(InputError) as err:
            DiGraph(node_count=2, edges=edges)
        assert str(err.value) == message
    with pytest.raises(ValueError):
        DiGraph(node_count=2, edges=(good, (0, 1)))
    # a one-shot iterable is read once and judged whole
    with pytest.raises(ValueError):
        DiGraph(node_count=2, edges=(e for e in (good, (0, 1))))
    assert DiGraph(node_count=2, edges=(e for e in (good,))).edges == (good,)


def test_bulk_validation_accepts_every_int():
    import enum

    class Node(enum.IntEnum):
        A = 0
        B = 1

    g = DiGraph(node_count=2, edges=[[0, 1, True], (Node.B, Node.A, 2), (0, 1, False)])
    assert g.edges == ((0, 1, True), (1, 0, 2), (0, 1, False))
    assert all(type(e) is tuple for e in g.edges)
    assert min_cut(g, 0, 1).value == 1
    assert DiGraph(node_count=1, edges=[]).edges == ()


def test_reused_graph_cuts_like_a_fresh_one():
    # Every flow on a graph starts from its cached residual layout; no flow
    # may leave residual capacity behind for the next pair of terminals.
    rng = random.Random(8086)
    for _ in range(40):
        base = random_digraph(rng, nodes=7, edges=14, max_cap=5)
        # parallel copies of some edges, and parallel zero-capacity edges
        edges = base.edges + base.edges[:5] + ((0, 6, 0), (0, 6, 0), (3, 1, 0))
        g = DiGraph(node_count=7, edges=edges)
        layout = g.residual_layout
        for s in range(7):
            for t in range(7):
                if s == t:
                    continue
                assert min_cut(g, s, t) == min_cut(DiGraph(node_count=7, edges=edges), s, t)
                reused = min_cut_extremes(g, s, t)
                assert reused == min_cut_extremes(DiGraph(node_count=7, edges=edges), s, t)
                for cut in reused:
                    assert cut.cut_edges == tuple(sorted(cut.cut_edges))
        assert g.residual_layout is layout
        assert layout.cap[0::2] == [c for (_, _, c) in edges]
        assert not any(layout.cap[1::2])
        # every node was a terminal, so some flow made its arcs: each as
        # the node's rows say, and as a fresh graph's layout lists them
        assert None not in layout.adj
        assert layout_rows(g) == layout_rows(DiGraph(node_count=7, edges=edges))


def _check_reach_of_every_flow(g, pairs, taken):
    # Both residual reaches of each flow, as the solver finds them (locally
    # where a search is left open), against a BFS over every arc: the side
    # each carries is the reach itself or the cut's other side, its
    # complement. Then the public extremes of the same flow, which carry
    # the same sides. ``taken`` gathers, per direction, how a local search
    # ended: with the tree closed and carried, or with the cut's other
    # side carried; a side of the root's own that is not the closed tree
    # is named "components", an outcome no test expects.
    everything = frozenset(range(g.node_count))
    for s, t in pairs:
        flow, cap, searches = _max_flow(g, s, t)
        wants = full_search_reach(g, cap, s), full_search_reach(g, cap, t, back=1)
        carried = []
        for back, want in enumerate(wants):
            tree, layer = searches[back][1:]
            side, is_sink = _reach(g, cap, searches, back)
            assert type(side) is frozenset and type(is_sink) is bool
            own = is_sink == bool(back)
            assert (side if own else everything - side) == want, (s, t, back)
            if layer:
                branch = "closed" if side == set(tree) else "components" if own else "other side"
                taken.add((back, branch))
            carried.append((side, is_sink))
        minimal, maximal = min_cut_extremes(g, s, t)
        assert minimal.value == maximal.value == flow
        assert [(cut.side, cut.is_sink) for cut in (minimal, maximal)] == carried
        assert minimal.source_side == wants[0]
        assert _sink_side(g, maximal) == wants[1]


def _closed_or_not(taken):
    """Per direction, whether a local search ended with the tree closed."""
    return {(back, branch == "closed") for back, branch in taken}


def test_local_reach_matches_the_full_search_on_random_graphs():
    # Every ordered pair of terminals on one shared graph, so every flow
    # but the first runs on a warm graph; parallel and zero-capacity edges.
    # Every other graph has each edge's reverse appended, so it is
    # labelled and an open search may end locally; the others mostly have
    # no labels, and an open search runs to its end.
    rng = random.Random(1618)
    taken = set()
    for trial in range(120):
        nodes = rng.randint(2, 10)
        base = random_digraph(rng, nodes=nodes, edges=rng.randint(0, 3 * nodes), max_cap=4)
        edges = base.edges + base.edges[:3] + tuple((u, v, 0) for (u, v, _) in base.edges[3:6])
        g = DiGraph(node_count=nodes, edges=edges)
        if trial % 2:
            g = mirrored(g, rng)
        pairs = [(s, t) for s in range(nodes) for t in range(nodes) if s != t]
        _check_reach_of_every_flow(g, pairs, taken)
    assert _closed_or_not(taken) == {(0, False), (0, True), (1, False), (1, True)}


def _costly_instance(rng):
    # Zero charges and zero edge costs are common, so the auxiliary graph
    # has nodes no positive-capacity path from a terminal reaches.
    n = rng.randint(3, 9)
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.sample(range(n), 2)
        c = Fraction(rng.choice((0, 0, 1, 2, 3)))
        edges += [(u, v, c), (v, u, c)]
    costs = tuple(Fraction(rng.choice((0, 0, 1, 2))) for _ in range(n))
    return CostlyCutInstance(node_count=n, edges=tuple(edges), node_costs=costs, source=0, sink=1)


def test_local_reach_matches_the_full_search_on_costly_cut_graphs():
    rng = random.Random(3141)
    taken = set()
    capacity_unreachable = 0
    for _ in range(80):
        inst = _costly_instance(rng)
        n = inst.node_count
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        for g in (build_auxiliary(inst).graph, _plain_graph(inst, False), _plain_graph(inst, True)):
            _check_reach_of_every_flow(g, pairs, taken)
            positive = [x for (_, _, c) in g.edges for x in (c, 0)]
            capacity_unreachable += sum(
                len(full_search_reach(g, positive, s)) < g.node_count for s in range(n)
            )
    assert capacity_unreachable > 0
    assert _closed_or_not(taken) == {(0, False), (0, True), (1, False), (1, True)}


def test_local_reach_matches_the_full_search_on_the_bundled_cases():
    # Every line of both cases, on the graph of every method, each shared
    # by all the lines of its case as in a sweep.
    taken = set()
    for case in (parse_matpower_subset(case_path("ieee118.m")), parse_native(case_path("example4bus.json"))):
        weights = WeightAssignment.resolve(case.net, case.meas, case.weights)
        inst = cut_instance_for_line(case.net, weights, 0)
        pairs = [(u, v) for (u, v, _) in case.net.lines]
        for g in (build_auxiliary(inst).graph, _plain_graph(inst, False), _plain_graph(inst, True)):
            _check_reach_of_every_flow(g, pairs, taken)
    assert {back for back, _ in taken} == {0, 1}


def test_far_side_is_found_locally():
    # A second flow on a warm graph, its labels found: the minimal source
    # side beside a deep out-tree of the source, and the maximal one beside
    # a deep in-tree of the sink, each read without walking the tree. Each
    # edge has its reverse after it, so the graph is labelled.
    def minimal(g):
        return min_cut(g, 0, 1)

    def maximal(g):
        return min_cut_extremes(g, 0, 1)[1]

    for make, solve, small_side in (
        (_tree_fed_by_source, minimal, {1, 3}),
        (_tree_fed_sink, maximal, {0, 2, 3, 4}),
    ):
        reads = []
        for depth in (3, 6):
            g = mirrored(make(depth))
            first = solve(g)
            assert min(first.source_side, _sink_side(g, first), key=len) == small_side
            assert g.labels  # found before the reads are counted
            counting = _count_arc_reads(g)
            assert solve(g) == first
            reads.append((g.node_count, counting.reads))
        (small, small_reads), (large, large_reads) = reads
        assert small < 200 and large > 19000
        assert small_reads == large_reads < 40


def _arrays(edges):
    return tuple(np.array(column, dtype=np.int64).reshape(-1) for column in zip(*edges)) or (
        np.zeros(0, dtype=np.int64),) * 3


def test_array_graphs_validate_like_tuple_graphs():
    good = (0, 1, 1)
    for edges in [
        (good, (0, 2, 1), (1, 1, 1)),
        (good, (1, 1, 1), (0, 1, -1)),
        (good, (0, 1, -1)),
        (good, (-1, 1, 1)),
        (good, (2, 0, 3)),
    ]:
        with pytest.raises(InputError) as built:
            DiGraph(node_count=2, edges=edges)
        with pytest.raises(InputError) as arrays:
            DiGraph.from_arrays(2, *_arrays(edges))
        assert str(arrays.value) == str(built.value)
    with pytest.raises(CapacityOverflowError):
        DiGraph.from_arrays(2, *_arrays(((0, 1, 2**62), (1, 0, 2**62), (0, 1, 2**62))))
    g = DiGraph.from_arrays(2, *_arrays(((0, 1, 2**62), (1, 0, 2**62 - 1))))
    assert g.edges == ((0, 1, 2**62), (1, 0, 2**62 - 1))
    assert g == DiGraph(node_count=2, edges=g.edges)


def test_members_past_64_bits_fail_their_own_check():
    # The tuple constructor stores its edges in int64 arrays; a member that
    # does not fit still fails the check it fails today, not with OverflowError.
    good = (0, 1, 1)
    cases = [
        ((good, (0, 2**70, 1)), InputError, "edge 1: node id out of range in (0, 1180591620717411303424, 1)"),
        ((good, (-2**70, 1, 1)), InputError, "edge 1: node id out of range in (-1180591620717411303424, 1, 1)"),
        ((good, (0, 1, -2**70)), InputError, "edge 1: negative capacity -1180591620717411303424"),
        ((good, (0, 1, 2**64)), CapacityOverflowError, "total capacity 18446744073709551617"),
        ((good, (1, 0, 2**64), (1, 1, 1)), InputError, "edge 2: self-loop at node 1"),
    ]
    for edges, error, message in cases:
        with pytest.raises(error) as err:
            DiGraph(node_count=2, edges=edges)
        assert str(err.value).startswith(message), err.value


def test_array_graph_builds_its_edges_on_first_read():
    edges = ((0, 1, 3), (1, 2, 4), (2, 0, 5))
    g = DiGraph.from_arrays(3, *_arrays(edges))
    assert "edges" not in vars(g)
    assert min_cut(g, 0, 2).value == 3 and cut_value(g, {0}) == 3
    assert "edges" not in vars(g)
    assert g.edges == edges and g.edges is g.edges
    with pytest.raises(AttributeError):
        g.no_such_attribute


def test_capacity_components_are_the_mutual_reach_classes():
    # A graph whose positive-capacity edges come in reverse pairs has
    # labels, and they are the classes of nodes that reach each other along
    # those edges, with no positive edge between two of them; a graph whose
    # positive edges do not has none.
    rng = random.Random(2024)
    labelled = 0
    for trial in range(80):
        g = random_digraph(rng, nodes=rng.randint(2, 9), edges=rng.randint(1, 20), max_cap=2)
        if trial % 2:
            g = mirrored(g, rng)
        positive = [(u, v) for u, v, c in g.edges if c]
        paired = sorted(positive) == sorted((v, u) for u, v in positive)
        assert (g.labels is not None) == paired, trial
        if g.labels is None:
            continue
        labelled += 1
        assert label_classes(g) == mutual_reach_classes(g), trial
        label = g.labels[0]
        assert all(label[u] == label[v] for u, v in positive)
    assert labelled >= 40


def _timed(run, repeat=2):
    """The best wall time of ``repeat`` calls of ``run``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_a_cold_flow_on_a_long_chain_takes_linear_time():
    # A directed chain of 20,000 nodes whose first edge is the cut: the
    # search from the sink stays open. The chain's edges do not come in
    # reverse pairs, so the graph has no labels, and the sink's search is
    # run to its end, a node a layer.
    n = 20000
    caps = np.full(n - 1, 2, dtype=np.int64)
    caps[0] = 1

    def cold_flow():
        g = DiGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), caps)
        minimal, maximal = min_cut_extremes(g, 0, n - 1)
        assert minimal.source_side == maximal.source_side == {0}
        assert g.labels is None

    assert _timed(cold_flow) < 0.75


def test_attacks_on_a_radial_grid_take_linear_time(tmp_path, capsys):
    # A radial network of 2383 buses, a feeder of 800 in a line with short
    # laterals. Fully measured, its auxiliary graph has 3 * 2383 nodes; with
    # the injection at bus 1 unmetered, bus 1 has charge 0 and no w or z
    # node, so two fewer. Either way the line instance labels the graph one
    # component, and each attack's flow, whose root search stays open,
    # grows the closed set locally. Each op takes about 0.02 s on a 2-vCPU
    # host either way.
    rng = random.Random("radial")
    lines = []
    for b in range(1, 2383):
        parent = b - 1 if b < 800 or rng.random() >= 0.3 else rng.randrange(800)
        lines.append([parent + 1, b + 1, round(rng.uniform(0.01, 0.5), 4)])
    labels = DiGraph.__dict__["labels"]
    for injection, nodes in (("all", 7149), (list(range(2, 2384)), 7147)):
        doc = {"buses": 2383, "lines": lines,
               "measurements": {"flow_from": "all", "flow_to": "all", "injection": injection}}
        case = tmp_path / "radial.json"
        case.write_text(json.dumps(doc))
        built = []

        def counted(g):
            found = labels.func(g)
            built.append((g.node_count, len(found[1])))
            return found

        spy = cached_property(counted)
        spy.__set_name__(DiGraph, "labels")
        last = 2 * len(lines) + (2383 if injection == "all" else len(injection))
        for target in (1200, 3882, 5764, last):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(DiGraph, "labels", spy)
                assert _timed(lambda: cli.main(["attack", str(case), "--target", str(target)]), 1) < 0.5
            capsys.readouterr()
        assert built == [(nodes, 1)] * 4


def test_layout_sorted_as_narrow_keys_equals_the_int64_layout():
    # The arc tails are sorted as the narrowest unsigned type that holds a
    # node id (uint8, uint16, uint32 across these counts); a stable sort of
    # the same keys gives the permutation the int64 keys gave.
    rng = np.random.default_rng(18)
    for node_count in (255, 256, 257, 65535, 65536, 65537):
        tails = rng.integers(0, node_count, 3000)
        heads = (tails + rng.integers(1, node_count, 3000)) % node_count
        tails[:2], heads[:2] = (0, node_count - 1), (node_count - 1, 0)
        g = DiGraph.from_arrays(node_count, tails, heads, rng.integers(0, 9, 3000))
        adj, to, cap = layout_rows(g)
        arcs = np.argsort(interleave(tails, heads), kind="stable").tolist()
        ends = np.cumsum(np.bincount(interleave(tails, heads), minlength=node_count)).tolist()
        assert adj == tuple(tuple(arcs[a:b]) for a, b in zip([0, *ends], ends))
        assert to == tuple(interleave(heads, tails).tolist())
        assert cap == tuple(interleave(g.arrays[2], np.zeros(3000, dtype=np.int64)).tolist())
        # A network's lines by bus are sorted the same way; a shuffled path
        # through every bus keeps the network connected.
        path = rng.permutation(node_count)
        ends = np.concatenate((path[:-1], tails)), np.concatenate((path[1:], heads))
        net = PowerNetwork.from_arrays(node_count, *ends, np.ones(len(ends[0])))
        lines, starts = net.adjacency
        at = interleave(*ends)
        assert lines.tolist() == (np.argsort(at, kind="stable") >> 1).tolist()
        assert starts.tolist() == [0, *np.cumsum(np.bincount(at, minlength=node_count)).tolist()]


# Each record built from rows given as triples, three rows on three nodes,
# and from the same rows as arrays: the flow graph, the network and the
# cut instance. The first row is good; ``row`` is the second.
_RECORDS = {
    "graph": (lambda rows: DiGraph(node_count=3, edges=rows),
              lambda tails, heads: DiGraph.from_arrays(3, tails, heads, np.ones(2, dtype=np.int64))),
    "network": (lambda rows: PowerNetwork(bus_count=3, lines=rows),
                lambda tails, heads: PowerNetwork.from_arrays(3, tails, heads, np.ones(2))),
    "instance": (lambda rows: CostlyCutInstance(node_count=3, edges=rows, node_costs=(0, 0, 0),
                                                source=0, sink=2),
                 lambda tails, heads: CostlyCutInstance.from_arrays(3, tails, heads, [1, 1], (0, 0, 0), 0, 2)),
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(1.0), True, np.True_, "1"], ids=repr)
def test_a_float_bool_or_string_id_is_refused_at_both_doors(record, bad):
    # Never truncated or read as a number: from triples, the row is named;
    # as an array, one whose dtype is not an integer one is refused.
    triples, arrays = _RECORDS[record]
    for row in ((bad, 2, 1), (1, bad, 1)):
        with pytest.raises(InputError, match=r"^(edge|line) 1: ") as err:
            triples(((0, 1, 1), row))
        assert repr(bad) in str(err.value)
    with pytest.raises(InputError, match="ids must be integers"):
        arrays(np.array([bad, bad]), np.array([1, 2]))
    with pytest.raises(InputError, match="ids must be integers"):
        arrays(np.array([0, 1]), np.array([bad, bad]))


def test_a_numpy_integer_id_or_count_is_read_as_its_int():
    rows = ((np.int64(0), np.int32(1), 1), (np.uint8(1), 2, 1))
    records = [
        DiGraph(node_count=np.int64(3), edges=rows).edges,
        PowerNetwork(bus_count=np.int16(3), lines=rows).lines,
        CostlyCutInstance(node_count=np.int64(3), edges=rows, node_costs=(0, 0, 0), source=0, sink=2).edges,
    ]
    for built in records:
        assert built == ((0, 1, 1), (1, 2, 1))
        assert {type(i) for u, v, _ in built for i in (u, v)} == {int}
    assert type(PowerNetwork(bus_count=np.int16(3), lines=rows).bus_count) is int
    tails, heads = np.array([0, 1], dtype=np.int32), np.array([1, 2], dtype=np.uint16)
    for _, arrays in _RECORDS.values():
        arrays(tails, heads)
    # a one-bus network has no lines, and NumPy makes [] a float array
    assert PowerNetwork.from_arrays(1, [], [], []).line_count == 0


def test_a_row_that_does_not_read_is_named_once_the_earlier_rows_pass():
    inst = dict(node_count=3, node_costs=(0, 0, 0), source=0, sink=2)
    with pytest.raises(InputError, match="^edge 0: self-loop at node 0$"):
        CostlyCutInstance(edges=((0, 0, 1), (0, 1, "x")), **inst)
    with pytest.raises(InputError, match="^edge 1: cannot parse cost 'x'$"):
        CostlyCutInstance(edges=((0, 1, 1), (0, 1, "x"), (2, 2, 1)), **inst)
    # a reactance past the float range is an input error naming its line
    with pytest.raises(InputError, match="^line 0: int too large to convert to float$"):
        PowerNetwork(bus_count=2, lines=((0, 1, 2**2000),))


@pytest.mark.parametrize("build", [
    lambda count: PowerNetwork(bus_count=count, lines=((0, 1, 1.0), (1, 2, 1.0))),
    lambda count: DiGraph(node_count=count, edges=((0, 1, 1),)),
    lambda count: CostlyCutInstance(node_count=count, edges=((0, 1, 1),), node_costs=(0, 0, 0),
                                    source=0, sink=1),
], ids=["network", "graph", "instance"])
@pytest.mark.parametrize("count", [3.0, "3", True, np.float64(3.0), None], ids=repr)
def test_a_count_that_is_not_an_integer_is_refused_at_construction(build, count):
    with pytest.raises(InputError, match=r"^(bus|node)_count must be an integer, got "):
        build(count)
