"""Integer-capacity directed graphs and an exact s-t max-flow / min-cut solver.

Capacities are nonnegative integers, so flow values and cut values are
computed exactly. The solver finds one maximum flow per call by shortest
augmenting paths, each found by a BFS from both terminals that expands the
side with the smaller frontier, and stops once either side closes; it reads
only the nodes its searches visit, not the whole graph. ``min_cut`` returns
the canonical minimum cut whose source side is the set of nodes reachable
from the source in the residual network: the unique inclusion-minimal
source side over all minimum cuts, so the returned partition does not
depend on augmentation order or algorithm choice. The cut's crossing edges
are read from the arcs of the smaller side, so that step costs time in
proportion to the smaller side's degree.
``min_cut_extremes`` returns that cut and the inclusion-maximal one (the
complement of the nodes that still reach the sink) from the same flow.
``DiGraph`` validates its edges in one pass that names the first offending
edge. A graph builds its residual layout (arcs per node, arc heads, arc
capacities) once, on its first flow; each flow then copies only the
capacity list and runs on the copy, so many flows between different
terminals share one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityOverflowError, InputError, InvariantError

# Total capacity must stay inside signed 64-bit range. Python integers do
# not wrap, but the bound keeps instances portable and is checked up front.
MAX_TOTAL_CAPACITY = 2**63 - 1


@dataclass(frozen=True)
class DiGraph:
    """Directed graph with nonnegative integer edge capacities.

    Node ids run from 0 to ``node_count - 1``. Parallel edges are kept as
    distinct entries (their indices matter for cut extraction); self-loops
    are rejected. Instances are immutable and safe to share across threads:
    the residual layout is cached as tuples no flow writes to, and each flow
    works on its own copy of the capacities.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not isinstance(self.node_count, int) or self.node_count <= 0:
            raise InputError(f"node_count must be a positive integer, got {self.node_count!r}")
        normalized, total = _checked_edges(self.node_count, self.edges)
        if total > MAX_TOTAL_CAPACITY:
            raise CapacityOverflowError(
                f"total capacity {total} exceeds the 64-bit limit {MAX_TOTAL_CAPACITY}"
            )
        object.__setattr__(self, "edges", normalized)

    @cached_property
    def residual_layout(self):
        """``(adj, to, cap)``: arc 2i is edge i, arc 2i+1 its reverse with
        capacity 0; ``to[a]`` is the head of arc ``a`` and ``adj[u]`` lists
        the arcs leaving node u in ascending order. Built on first use."""
        edges = self.edges
        to = [0] * (2 * len(edges))
        cap = [0] * (2 * len(edges))
        to[0::2] = [v for (_, v, _) in edges]
        to[1::2] = [u for (u, _, _) in edges]
        cap[0::2] = [c for (_, _, c) in edges]
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, (u, v, _) in enumerate(edges):
            adj[u].append(2 * i)
            adj[v].append(2 * i + 1)
        return tuple(map(tuple, adj)), tuple(to), tuple(cap)

    def check_node(self, node: int, what: str = "node") -> None:
        if not isinstance(node, int) or not (0 <= node < self.node_count):
            raise InputError(f"{what} id {node!r} out of range [0, {self.node_count})")


def _checked_edges(node_count, edges):
    """The edges as triples and their total capacity; the first edge that
    fails a check is named in the error."""
    normalized = []
    total = 0
    for idx, edge in enumerate(edges):
        u, v, c = edge
        if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
            raise InputError(f"edge {idx}: endpoints and capacity must be integers, got {edge!r}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InputError(f"edge {idx}: node id out of range in {edge!r}")
        if u == v:
            raise InputError(f"edge {idx}: self-loop at node {u}")
        if c < 0:
            raise InputError(f"edge {idx}: negative capacity {c}")
        total += c
        normalized.append((u, v, c))
    return tuple(normalized), total


@dataclass(frozen=True)
class CutSolution:
    """An s-t cut: node partition, exact value, and the crossing edge indices."""

    source_side: frozenset[int]
    sink_side: frozenset[int]
    value: int
    cut_edges: tuple[int, ...]


def min_cut(g: DiGraph, source: int, sink: int) -> CutSolution:
    """Compute a minimum s-t cut of ``g`` with the canonical minimal source side.

    The value equals the maximum flow from source to sink; ``cut_edges`` are
    the indices of edges crossing source side -> sink side, and their
    capacities sum to the value exactly.
    """
    flow, _, reachable = _max_flow(g, source, sink)
    return _checked_cut(g, frozenset(reachable), flow)


def min_cut_extremes(g: DiGraph, source: int, sink: int) -> tuple[CutSolution, CutSolution]:
    """The two canonical minimum cuts from one maximum flow.

    First the inclusion-minimal source side (forward residual reachability
    from the source, the cut ``min_cut`` returns), then the
    inclusion-maximal one (complement of the nodes that can still reach the
    sink in the residual network). They coincide when the minimum cut is
    unique.
    """
    flow, residual, reachable = _max_flow(g, source, sink)
    co_reaching = _residual_co_reaching(*residual, sink)
    return (
        _checked_cut(g, frozenset(reachable), flow),
        _checked_cut(g, frozenset(range(g.node_count)).difference(co_reaching), flow),
    )


def cut_value(g: DiGraph, source_side) -> int:
    """Sum of capacities of edges leaving ``source_side``."""
    side = set()
    for node in source_side:
        g.check_node(node)
        side.add(node)
    return sum(c for (u, v, c) in g.edges if u in side and v not in side)


def _max_flow(g: DiGraph, source: int, sink: int):
    """Check the terminals and find a maximum flow on a copy of the graph's
    residual capacities. Returns the flow value, the residual network
    ``(adj, to, cap)`` and the source's residual reachable set, which must
    exclude the sink.

    Each round grows a BFS forward from the source and one backward into
    the sink, a whole layer at a time, always on the side with the smaller
    frontier. Where they meet they join into a shortest augmenting path
    (Edmonds-Karp), so the number of rounds does not depend on the
    capacities; the round pushes its bottleneck and the next starts afresh.
    Once either search closes, no augmenting path is left. If the forward
    one closed, what it reached is the reachable set; if the backward one
    closed first, the forward search runs on to the end. A round reads only
    the nodes its two searches visit, so a small minimal source side is
    found without reading the rest of the graph.
    """
    g.check_node(source, "source")
    g.check_node(sink, "sink")
    if source == sink:
        raise InputError("source and sink must differ")

    adj, to, cap = g.residual_layout
    cap = list(cap)
    flow = 0
    while True:
        # node -> the residual arc that found it (-1 for the terminals):
        # forward, the arc into it; backward, the arc out of it to the sink
        fwd, bwd = {source: -1}, {sink: -1}
        f_layer, b_layer = [source], [sink]
        meet = -1
        while meet < 0 and f_layer and b_layer:
            if len(f_layer) <= len(b_layer):
                f_layer, meet = _grow(adj, to, cap, f_layer, fwd, bwd, 0)
            else:
                b_layer, meet = _grow(adj, to, cap, b_layer, bwd, fwd, 1)
        if meet < 0:
            break
        flow += _augment(to, cap, fwd, bwd, meet)

    while f_layer:
        f_layer, _ = _grow(adj, to, cap, f_layer, fwd, (), 0)
    if sink in fwd:
        raise InvariantError("sink reachable in residual network after max flow")
    return flow, (adj, to, cap), fwd.keys()


def _grow(adj, to, cap, layer, seen, other, back):
    """Expand one BFS layer of the residual network, forward (``back`` 0)
    or backward (``back`` 1: arc e is read as the residual arc e ^ 1 into
    the layer's node). Returns the next layer and -1, or, at the first node
    the ``other`` search has seen, the arc joining the two searches."""
    nxt = []
    for u in layer:
        for e in adj[u]:
            if cap[e ^ back] and to[e] not in seen:
                v = to[e]
                if v in other:
                    return nxt, e ^ back
                seen[v] = e ^ back
                nxt.append(v)
    return nxt, -1


def _augment(to, cap, fwd, bwd, meet) -> int:
    """Push the bottleneck of the path source -> tail(meet) -> head(meet) ->
    sink that the two search trees spell out."""
    path = [meet]
    e = fwd[to[meet ^ 1]]
    while e >= 0:
        path.append(e)
        e = fwd[to[e ^ 1]]
    e = bwd[to[meet]]
    while e >= 0:
        path.append(e)
        e = bwd[to[e]]
    aug = min([cap[e] for e in path])
    for e in path:
        cap[e] -= aug
        cap[e ^ 1] += aug
    return aug


def _checked_cut(g: DiGraph, side: frozenset[int], flow: int) -> CutSolution:
    # The crossing edges, read from the smaller side's arcs: the forward
    # (even) arcs out of the source side, or the reverse (odd) arcs at the
    # sink side whose head is on the source side, each the mirror of the
    # crossing forward arc e ^ 1. Either way the time is linear in the
    # smaller side's degree, not the graph's size.
    adj, to, cap = g.residual_layout
    other = frozenset(range(g.node_count)) - side
    if len(side) <= len(other):
        cut_arcs = [e for u in side for e in adj[u] if not e & 1 and to[e] not in side]
    else:
        cut_arcs = [e ^ 1 for u in other for e in adj[u] if e & 1 and to[e] in side]
    cut_arcs.sort()
    cut_edges = tuple(e >> 1 for e in cut_arcs)
    cut_cap = sum(cap[e] for e in cut_arcs)
    if cut_cap != flow:
        raise InvariantError(
            f"max-flow/min-cut mismatch: flow {flow}, crossing capacity {cut_cap}"
        )
    return CutSolution(source_side=side, sink_side=other, value=flow, cut_edges=cut_edges)


def _residual_co_reaching(adj, to, cap, t):
    """The nodes with a positive-capacity residual path into t."""
    seen, layer = {t: -1}, [t]
    while layer:
        layer, _ = _grow(adj, to, cap, layer, seen, (), 1)
    return seen.keys()
