"""Integer-capacity directed graphs and an exact s-t max-flow / min-cut solver.

Capacities are nonnegative integers, so flow values and cut values are
computed exactly. The solver (Dinic's algorithm) finds one maximum flow per
call. ``min_cut`` returns the canonical minimum cut whose source side is the
set of nodes reachable from the source in the residual network: the unique
inclusion-minimal source side over all minimum cuts, so the returned
partition does not depend on augmentation order or algorithm choice.
``min_cut_extremes`` returns that cut and the inclusion-maximal one (the
complement of the nodes that still reach the sink) from the same flow.
``DiGraph`` validates its edges in whole-list passes and falls back to an
edge-by-edge pass only to name the first offending edge. A graph builds its
residual layout (arcs per node, arc heads, arc capacities) once, on its
first flow; each flow then copies only the capacity list and runs on the
copy, so many flows between different terminals share one graph.
"""

from __future__ import annotations

import operator
from collections import deque
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
        edges = tuple(self.edges)
        checked = _checked_in_bulk(self.node_count, edges)
        if checked is None:
            checked = _checked_edge_by_edge(self.node_count, edges)
        normalized, total = checked
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


# Exact types the bulk pass accepts; any other ``int`` subclass is judged
# by the edge-by-edge pass, which accepts every ``isinstance(x, int)``.
_INT_TYPES = frozenset((int, bool))


def _checked_in_bulk(node_count, edges):
    """The edges as triples and their total capacity when every edge passes
    every check, decided by whole-list passes; ``None`` when any check (or
    the unpacking itself) fails, so the edge-by-edge pass can name the first
    offending edge."""
    try:
        normalized = tuple([(u, v, c) for u, v, c in edges])
    except (TypeError, ValueError):
        return None
    if not normalized:
        return normalized, 0
    tails, heads, caps = zip(*normalized)
    if not (
        _INT_TYPES.issuperset(map(type, tails + heads + caps))
        and min(tails) >= 0
        and min(heads) >= 0
        and max(tails) < node_count
        and max(heads) < node_count
        and not any(map(operator.eq, tails, heads))
        and min(caps) >= 0
    ):
        return None
    return normalized, sum(caps)


def _checked_edge_by_edge(node_count, edges):
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
        _checked_cut(g, frozenset(range(g.node_count)) - co_reaching, flow),
    )


def cut_value(g: DiGraph, source_side) -> int:
    """Sum of capacities of edges leaving ``source_side``."""
    side = set()
    for node in source_side:
        g.check_node(node)
        side.add(node)
    return sum(c for (u, v, c) in g.edges if u in side and v not in side)


def _max_flow(g: DiGraph, source: int, sink: int):
    """Check the terminals and run Dinic's algorithm on a copy of the graph's
    residual capacities. Returns the flow value, the residual network
    ``(adj, to, cap)`` and the source's residual reachable set, which must
    exclude the sink."""
    g.check_node(source, "source")
    g.check_node(sink, "sink")
    if source == sink:
        raise InputError("source and sink must differ")

    n = g.node_count
    adj, to, cap = g.residual_layout
    cap = list(cap)
    flow = 0
    while True:
        level = _bfs_levels(n, adj, to, cap, source, sink)
        if level is None:
            break
        flow += _blocking_flow(adj, to, cap, level, source, sink)

    reachable = _residual_reachable(adj, to, cap, source)
    if sink in reachable:
        raise InvariantError("sink reachable in residual network after max flow")
    return flow, (adj, to, cap), reachable


def _checked_cut(g: DiGraph, side: frozenset[int], flow: int) -> CutSolution:
    # Walk the forward (even) arcs out of the source side: the crossing
    # edges, found in time linear in the side's degree, not the graph's size.
    adj, to, cap = g.residual_layout
    cut_arcs = sorted(
        e for u in side for e in adj[u] if not e & 1 and to[e] not in side
    )
    cut_edges = tuple(e >> 1 for e in cut_arcs)
    cut_cap = sum(cap[e] for e in cut_arcs)
    if cut_cap != flow:
        raise InvariantError(
            f"max-flow/min-cut mismatch: flow {flow}, crossing capacity {cut_cap}"
        )
    return CutSolution(
        source_side=side,
        sink_side=frozenset(range(g.node_count)) - side,
        value=flow,
        cut_edges=cut_edges,
    )


def _bfs_levels(n, adj, to, cap, s, t):
    """BFS levels of the residual network, or ``None`` when t is unreachable.

    The search stops once t is labelled: every node closer to s than t
    already has its level by then, and a node no closer than t cannot lie
    on a shortest augmenting path.
    """
    level = [-1] * n
    level[s] = 0
    queue = deque([s])
    pop, push = queue.popleft, queue.append
    while queue:
        u = pop()
        next_level = level[u] + 1
        for e in adj[u]:
            v = to[e]
            if cap[e] > 0 and level[v] < 0:
                level[v] = next_level
                if v == t:
                    return level
                push(v)
    return None


def _blocking_flow(adj, to, cap, level, s, t) -> int:
    """Push shortest augmenting paths until the level graph has none left.

    Iterative DFS; ``it`` keeps per-node scan positions so dead edges are
    never revisited within a phase, and a dead end leaves the level graph.
    After a push the search resumes at the tail of the first edge the push
    saturated: the path up to it is still live, so this finds the same next
    path as a restart from s would.
    """
    it = [0] * len(adj)
    pushed = 0
    path: list[int] = []
    u = s
    while True:
        if u == t:
            aug = min([cap[e] for e in path])
            for e in path:
                cap[e] -= aug
                cap[e ^ 1] += aug
            pushed += aug
            for j, e in enumerate(path):
                if cap[e] == 0:
                    break
            del path[j:]
            u = to[e ^ 1]
            continue
        arcs = adj[u]
        end = len(arcs)
        want = level[u] + 1
        i = it[u]
        while i < end:
            e = arcs[i]
            if cap[e] > 0 and level[to[e]] == want:
                break
            i += 1
        it[u] = i
        if i < end:
            path.append(e)
            u = to[e]
        elif path:
            level[u] = -1
            e = path.pop()
            u = to[e ^ 1]
            it[u] += 1
        else:
            return pushed


def _residual_reachable(adj, to, cap, s) -> set[int]:
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in adj[u]:
            v = to[e]
            if cap[e] > 0 and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _residual_co_reaching(adj, to, cap, t) -> set[int]:
    # Nodes with a positive-capacity residual path into t: walk residual
    # edges backwards (edge e enters to[e], its tail is to[e ^ 1]).
    seen = {t}
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            u = to[e]
            # adj[v] holds residual arcs incident to v; e ^ 1 is the arc
            # u -> v, usable when it still has capacity.
            if cap[e ^ 1] > 0 and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen
