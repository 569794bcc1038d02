"""Shared generators for randomized cross-checks."""

from __future__ import annotations

import functools
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

from secindex import (
    CaseParseError,
    DiGraph,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    build_h,
    is_observable,
)
from secindex.mincut import _arcs
from secindex.power_model import FLOW_FROM, INJECTION

REACTANCE_CHOICES = (0.25, 0.5, 1.0, 1.0, 2.0)


@functools.cache
def benchmark_generate():
    """The benchmark's case generators (``perfbench/generate.py``), loaded
    from the checkout: the seeded grids and desk stream it times."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_generate", Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def random_digraph(rng: random.Random, nodes=8, edges=16, max_cap=10) -> DiGraph:
    out = []
    for _ in range(edges):
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        while v == u:
            v = rng.randrange(nodes)
        out.append((u, v, rng.randint(0, max_cap)))
    return DiGraph(node_count=nodes, edges=tuple(out))


def brute_force_min_cut_value(g: DiGraph, source: int, sink: int) -> int:
    free = [i for i in range(g.node_count) if i not in (source, sink)]
    best = None
    for mask in range(1 << len(free)):
        side = {source}
        for j, node in enumerate(free):
            if (mask >> j) & 1:
                side.add(node)
        value = sum(c for (u, v, c) in g.edges if u in side and v not in side)
        if best is None or value < best:
            best = value
    return best


def full_scan_crossing_edges(edges, source_side) -> tuple[int, ...]:
    """Ids of the edges ``(u, v, ...)`` leaving ``source_side``, by a scan
    of every edge: the reference for the cut readers that walk one side."""
    side = frozenset(source_side)
    return tuple(i for i, (u, v, *_) in enumerate(edges) if u in side and v not in side)


def full_search_reach(g: DiGraph, cap, root: int, back: int = 0) -> frozenset[int]:
    """The nodes ``root`` reaches (``back`` 0), or the nodes that reach
    ``root`` (``back`` 1), in the residual network of ``g`` whose arc 2i is
    edge i and arc 2i + 1 its reverse, with capacities ``cap``: a BFS over
    every arc, the reference for the solver's local searches."""
    out = [[] for _ in range(g.node_count)]
    for i, (u, v, _) in enumerate(g.edges):
        for arc, tail, head in ((2 * i, u, v), (2 * i + 1, v, u)):
            if cap[arc]:
                if back:
                    out[head].append(tail)
                else:
                    out[tail].append(head)
    seen, todo = {root}, [root]
    while todo:
        for v in out[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return frozenset(seen)


def mirrored(g: DiGraph, rng: random.Random | None = None) -> DiGraph:
    """``g`` with the reverse of each of its edges appended, in edge order:
    at the edge's capacity, or, given ``rng``, at a random capacity that is
    positive exactly where the edge's is. The positive edges of the result
    come in reverse pairs, so it has component labels."""
    back = [(v, u, c if rng is None or not c else rng.randint(1, 3)) for u, v, c in g.edges]
    return DiGraph(node_count=g.node_count, edges=g.edges + tuple(back))


def mutual_reach_classes(g: DiGraph) -> set[frozenset[int]]:
    """The classes of nodes of ``g`` that reach each other along
    positive-capacity edges: per node not yet classed, the nodes it
    reaches that also reach it, by a search each way over every edge."""
    out = [[] for _ in range(g.node_count)]
    into = [[] for _ in range(g.node_count)]
    for u, v, c in g.edges:
        if c:
            out[u].append(v)
            into[v].append(u)

    def reach(root, nxt):
        seen, todo = {root}, [root]
        while todo:
            for v in nxt[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    classes, classed = set(), set()
    for u in range(g.node_count):
        if u not in classed:
            found = frozenset(reach(u, out) & reach(u, into))
            classes.add(found)
            classed |= found
    return classes


def label_classes(g: DiGraph) -> set[frozenset[int]] | None:
    """The node sets of ``g``'s labels, or None for a graph with none. The
    members are checked to hold every node once, in its own label,
    ascending."""
    if g.labels is None:
        return None
    label, members = g.labels
    assert sorted(u for nodes in members.values() for u in nodes) == list(range(g.node_count))
    assert all(list(nodes) == sorted(nodes) for nodes in members.values())
    assert all(label[u] == k for k, nodes in members.items() for u in nodes)
    return set(map(frozenset, members.values()))


def layout_rows(g: DiGraph):
    """``g``'s residual layout as ``(arcs per node, heads, capacities)``,
    every node's arcs read through ``mincut._arcs``, which makes the ones
    no flow has read yet. Each node's arcs must equal its compressed row,
    and so must every arc tuple a flow made before; arc 2i's head must be
    edge i's head in the graph's own ``arrays``, and arc 2i+1's its tail;
    and equal heads must be one object."""
    layout = g.residual_layout
    made = list(layout.adj)
    rows = tuple(_arcs(layout, u) for u in range(g.node_count))
    starts = layout.starts
    assert len(starts) == g.node_count + 1 and starts[-1] == len(layout.arcs)
    for u, row in enumerate(rows):
        assert type(row) is tuple and row == tuple(layout.arcs[starts[u]:starts[u + 1]])
        assert made[u] is None or made[u] == row
    tails, heads, _ = g.arrays
    assert layout.to[0::2] == heads.tolist() and layout.to[1::2] == tails.tolist()
    ids = {}
    assert all(ids.setdefault(v, v) is v for v in layout.to)
    return rows, tuple(layout.to), tuple(layout.cap)


def full_scan_partition_objective(inst, source_side):
    """``evaluate_partition`` by a scan of every edge and every node."""
    cut_edges = full_scan_crossing_edges(inst.edges, source_side)
    charged = {inst.edges[i][end] for i in cut_edges for end in (0, 1)}
    objective = sum((inst.edges[i][2] for i in cut_edges), Fraction(0))
    for node in range(inst.node_count):
        objective += inst.node_costs[node] * (node in charged)
    return objective, cut_edges, frozenset(charged)


def full_scan_attack_cost(net, edge_costs, node_costs, dtheta, tol=1e-9):
    """``oracle.attack_cost`` by a scan of every line and every bus."""
    theta = [float(t) for t in dtheta]
    total = Fraction(0)
    inj = [0.0] * net.bus_count
    mag = [0.0] * net.bus_count
    for (u, v, x), c in zip(net.lines, edge_costs):
        delta = theta[u] - theta[v]
        if delta != 0:
            total += c
            flow = delta / x
            inj[u] += flow
            inj[v] -= flow
            mag[u] += abs(flow)
            mag[v] += abs(flow)
    for bus, p in enumerate(node_costs):
        if abs(inj[bus]) > tol * mag[bus]:
            total += p
    return total


def per_label_build_h(net: PowerNetwork, meas: MeasurementPlacement) -> ModelMatrix:
    """``build_h`` by a loop over the labels, one tuple per term: the
    reference for the table built from index arrays."""
    labels = meas.ordering()
    terms = []
    by_line = [[-1] * 4 for _ in range(net.line_count)]
    for r, (kind, ident) in enumerate(labels):
        if kind == INJECTION:
            for i in net.incident_lines(ident):
                u, v, x = net.lines[i]
                by_line[i][2 if u == ident else 3] = len(terms)
                terms.append((r, ident, v if u == ident else u, 1.0 / x))
        else:
            u, v, x = net.lines[ident]
            by_line[ident][0 if kind == FLOW_FROM else 1] = len(terms)
            terms.append((r, u, v, 1.0 / x if kind == FLOW_FROM else -1.0 / x))
    columns = zip(*terms) if terms else [()] * 4
    return ModelMatrix(len(labels), net.bus_count, *columns, by_line, net.adjacency)


def per_row_lines(source, rows, buses):
    """The native ``lines`` rows checked one row at a time, every check of a
    row before the next row: the reference for ``caseio``'s check of the
    native ``lines``. Returns the 0-based (from, to, reactance) lines, or
    raises the CaseParseError that names the first failing row."""

    def fail(msg):
        raise CaseParseError(f"{source}: {msg}")

    lines = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            fail(f"lines[{i}]: expected [from, to, reactance]")
        u, v, x = row
        for end in (u, v):
            if not isinstance(end, int) or isinstance(end, bool):
                fail(f"lines[{i}]: bus id {end!r} is not an integer")
            if not (1 <= end <= buses):
                fail(f"lines[{i}]: bus id {end} out of range 1..{buses}")
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            fail(f"lines[{i}]: reactance {x!r} is not a number")
        if u == v:
            fail(f"lines[{i}]: self-loop at bus {u}")
        if not 0 < x < math.inf:
            fail(f"lines[{i}]: reactance must be positive and finite, got {x}")
        try:
            lines.append((u - 1, v - 1, float(x)))
        except OverflowError:
            fail(f"lines[{i}]: reactance is an integer too large for a float")
    return lines


def per_bus_gap_bound(net, weights):
    """``binary_gap_bound`` by a Python ``min`` over each bus's lines."""
    total = 0
    for bus in range(net.bus_count):
        incident = net.incident_lines(bus)
        if incident:
            worst = weights.node_costs[bus] - min(weights.edge_costs[ln] for ln in incident)
            if worst > 0:
                total += worst
    return total


def random_network(rng: random.Random, min_buses=4, max_buses=10, max_lines=15) -> PowerNetwork:
    n = rng.randint(min_buses, max_buses)
    lines = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        lines.append((order[i], order[rng.randrange(i)], rng.choice(REACTANCE_CHOICES)))
    budget = min(max_lines - (n - 1), n)
    extra = rng.randint(0, max(budget, 0))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:extra]:
        lines.append((u, v, rng.choice(REACTANCE_CHOICES)))
    return PowerNetwork(bus_count=n, lines=tuple(lines))


def random_placement(rng: random.Random, net: PowerNetwork, density=0.5) -> MeasurementPlacement:
    m = net.line_count
    return MeasurementPlacement(
        flow_from=tuple(i for i in range(m) if rng.random() < density),
        flow_to=tuple(i for i in range(m) if rng.random() < density),
        injection=tuple(b for b in range(net.bus_count) if rng.random() < density),
    )


def random_observable_case(rng: random.Random, **kwargs):
    """Keep drawing (network, placement) pairs until observable."""
    while True:
        net = random_network(rng, **kwargs)
        meas = random_placement(rng, net)
        if meas.measurement_count == 0:
            continue
        model = build_h(net, meas)
        if is_observable(model):
            return net, meas, model


def shuffled_lattice(rng: random.Random, rows: int, cols: int) -> PowerNetwork:
    """A rows x cols lattice of buses, every lattice edge a line with a
    reactance in [0.01, 0.5], its bus ids shuffled so that the id order
    says nothing of the lattice."""
    ids = list(range(rows * cols))
    rng.shuffle(ids)
    lines = []
    for r in range(rows):
        for c in range(cols):
            here = ids[r * cols + c]
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    lines.append((here, ids[rr * cols + cc], round(rng.uniform(0.01, 0.5), 4)))
    return PowerNetwork(bus_count=rows * cols, lines=tuple(lines))
