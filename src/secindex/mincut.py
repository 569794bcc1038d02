"""Integer-capacity directed graphs and an exact s-t max-flow / min-cut solver.

Capacities are nonnegative integers, so flow values and cut values are
computed exactly. The solver finds one maximum flow per call by shortest
augmenting paths, each found by a BFS from both terminals that expands the
side with the smaller frontier, and stops once either side closes; it reads
only the nodes its searches visit, not the whole graph. A cut is given by
its source side alone; the sink side is every other node. ``min_cut``
returns the canonical minimum cut whose source side is the set of nodes
reachable from the source in the residual network: the unique
inclusion-minimal source side over all minimum cuts, so the returned
partition does not depend on augmentation order or algorithm choice.
``min_cut_extremes`` returns that cut and the inclusion-maximal one, whose
sink side is the set of nodes that still reach the sink, from the same
flow. Where the search from the other terminal closed first, each of these
sets is found locally from the closed one: a graph neighbour of the closed
side joins it when a search from it closes before meeting the terminal's
search, and the nodes the terminal does not reach even through positive
capacities, which need not border the closed side, come from the strongly
connected components of the graph's positive-capacity edges, built once per
graph. The cut's crossing edges are read from the arcs of the smaller side,
so that step costs time in proportion to the smaller side's degree; the
sink side is built only where it is the one walked.
``DiGraph`` holds its edges as three int64 arrays (tails, heads,
capacities), given directly (``DiGraph.from_arrays``) or made from edge
triples, and validates them in one vectorized pass that names the first
offending edge; a graph built from arrays makes its edge triples only if
they are read. A graph builds its residual layout once, on its first
flow, by a stable sort of the arcs by tail: the arc ids in that order with
each node's start offset (compressed sparse rows), the arc heads and the
arc capacities, as flat lists. A node's own arc tuple, which the flow's
inner loop indexes fastest, is cut from those rows the first time a search
visits the node, so a flow that stays near its terminals pays for the
nodes it reads, not for the graph. Each flow copies only the capacity list
and runs on the copy, so many flows between different terminals share one
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityOverflowError, InputError, InvariantError

# Total capacity must stay inside signed 64-bit range. Python integers do
# not wrap, but the bound keeps instances portable and is checked up front.
MAX_TOTAL_CAPACITY = 2**63 - 1


class ResidualLayout(NamedTuple):
    """A graph's residual arcs, as the flow reads them.

    Flat lists, which no flow writes to but ``adj``. ``to[a]`` is the head
    of arc ``a`` and ``cap[a]`` its capacity before any flow. The arcs
    leaving node u, ascending, are ``arcs[starts[u]:starts[u + 1]]``
    (compressed sparse rows). ``adj[u]`` is that slice as a tuple once a
    search has read node u, and None before: a node's arc tuple is made the
    first time a search visits it (``_arcs``), so a flow whose searches
    stay near the terminals makes a handful, not one per node. Filling an
    entry is idempotent: threads that race on one store equal tuples."""

    adj: list[tuple[int, ...] | None]
    arcs: list[int]
    starts: list[int]
    to: list[int]
    cap: list[int]


@dataclass(frozen=True)
class DiGraph:
    """Directed graph with nonnegative integer edge capacities.

    Node ids run from 0 to ``node_count - 1``. Parallel edges are kept as
    distinct entries (their indices matter for cut extraction); self-loops
    are rejected. ``DiGraph(node_count, edges)`` takes the edges as
    ``(tail, head, capacity)`` triples; ``DiGraph.from_arrays`` takes them
    as three int64 arrays and builds ``edges`` on first read. Either way the
    edges are held as the arrays ``arrays`` and validated there, by
    ``__post_init__``. Instances are immutable in content and safe to
    share across threads: the capacity components and the residual
    layout's arcs, heads and capacities are cached where no flow writes to
    them, and each flow works on its own copy of the capacities. The one
    thing a flow writes is the layout's per-node arc tuple, on the node's
    first visit; that fill is idempotent, since racing threads build and
    store equal tuples from the same slice, so a reader sees either None
    (and builds the tuple itself) or a tuple equal to its own.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_arrays(cls, node_count: int, tails, heads, caps) -> DiGraph:
        """The graph whose edge i runs ``tails[i] -> heads[i]`` with
        capacity ``caps[i]``, three int64 arrays that the graph keeps and
        nothing may write to."""
        g = cls.__new__(cls)
        object.__setattr__(g, "node_count", node_count)
        object.__setattr__(g, "arrays", (tails, heads, caps))
        g.__post_init__()
        return g

    def __post_init__(self):
        if not isinstance(self.node_count, int) or self.node_count <= 0:
            raise InputError(f"node_count must be a positive integer, got {self.node_count!r}")
        if "arrays" in vars(self):
            tails, heads, caps = self.arrays
            triples, type_error = None, ""
        else:
            items, triples, type_error = _int_triples(self.edges)
            tails, heads, caps = _columns(triples)
            object.__setattr__(self, "edges", tuple(triples))
            object.__setattr__(self, "arrays", (tails, heads, caps))
        failure = _first_failure(self.node_count, tails, heads, caps)
        if failure is not None:
            idx, check = failure
            if triples is None:
                edge = u, _, c = int(tails[idx]), int(heads[idx]), int(caps[idx])
            else:
                edge, (u, _, c) = items[idx], triples[idx]
            raise InputError(f"edge {idx}: " + _EDGE_CHECKS[check].format(edge=edge, u=u, c=c))
        if type_error:
            raise InputError(type_error)
        # the tuple path sums exactly: ``_columns`` may have clamped a capacity
        total = _total(caps) if triples is None else sum(c for (_, _, c) in triples)
        if total > MAX_TOTAL_CAPACITY:
            raise CapacityOverflowError(
                f"total capacity {total} exceeds the 64-bit limit {MAX_TOTAL_CAPACITY}"
            )

    def __getattr__(self, name):
        # Only reached for attributes not set: ``edges`` of a graph built
        # from arrays, made on first read.
        if name != "edges" or "arrays" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = tuple(zip(*(a.tolist() for a in self.arrays)))
        object.__setattr__(self, "edges", edges)
        return edges

    @cached_property
    def residual_layout(self) -> ResidualLayout:
        """The graph's arcs for the flow: arc 2i is edge i, arc 2i+1 its
        reverse with capacity 0. Built on first use by a stable sort of the
        arcs by tail; the tails are sorted as the narrowest unsigned type
        that holds every node id, which NumPy radix-sorts, to the same
        permutation. See ``ResidualLayout``."""
        n = self.node_count
        tails, heads, caps = self.arrays
        arc_tails = interleave(tails, heads)
        arcs = np.argsort(arc_tails.astype(np.min_scalar_type(n)), kind="stable")
        # every arc into a node holds that node's one id object, not a fresh
        # int from ``tolist``: a node has many arcs, and the flow reads only ids
        ids = np.array(range(n), dtype=object)
        cap = [0] * len(arc_tails)
        cap[0::2] = caps.tolist()
        return ResidualLayout(
            adj=[None] * n,
            arcs=arcs.tolist(),
            starts=[0, *np.cumsum(np.bincount(arc_tails, minlength=n)).tolist()],
            to=ids[interleave(heads, tails)].tolist(),
            cap=cap,
        )

    @cached_property
    def capacity_components(self):
        """``(comp, members, succ, pred)``: the strongly connected components
        of the positive-capacity edges. ``comp[u]`` is node u's component,
        ``members[c]`` the nodes of component c, and ``succ[c]`` /
        ``pred[c]`` the components a positive-capacity edge leads to from c
        / into c. Built on first use, by Tarjan's algorithm."""
        n = self.node_count
        tails, heads, caps = self.arrays
        positive = caps > 0
        tails, heads = tails[positive], heads[positive]
        flat = heads[np.argsort(tails, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
        heads_of = [flat[start:end] for start, end in zip([0, *ends], ends)]
        order, low, comp = [-1] * n, [0] * n, [-1] * n
        members: list[frozenset[int]] = []
        stack: list[int] = []
        count = 0
        for root in range(n):
            if order[root] >= 0:
                continue
            order[root] = low[root] = count
            count += 1
            stack.append(root)
            work = [(root, iter(heads_of[root]))]
            while work:
                u, rest = work[-1]
                for v in rest:
                    if order[v] < 0:
                        order[v] = low[v] = count
                        count += 1
                        stack.append(v)
                        work.append((v, iter(heads_of[v])))
                        break
                    if comp[v] < 0 and order[v] < low[u]:
                        low[u] = order[v]
                else:
                    work.pop()
                    if work and low[u] < low[work[-1][0]]:
                        low[work[-1][0]] = low[u]
                    if low[u] == order[u]:
                        group = [stack.pop()]
                        while group[-1] != u:
                            group.append(stack.pop())
                        for w in group:
                            comp[w] = len(members)
                        members.append(frozenset(group))
        succ = [set() for _ in members]
        pred = [set() for _ in members]
        of = np.array(comp)
        across = of[tails] != of[heads]
        for a, b in zip(of[tails[across]].tolist(), of[heads[across]].tolist()):
            succ[a].add(b)
            pred[b].add(a)
        return tuple(comp), tuple(members), tuple(map(tuple, succ)), tuple(map(tuple, pred))

    def check_node(self, node: int, what: str = "node") -> None:
        if not isinstance(node, int) or not (0 <= node < self.node_count):
            raise InputError(f"{what} id {node!r} out of range [0, {self.node_count})")


# What an edge that fails each check of ``_first_failure`` is told, in
# the order the checks are made.
_EDGE_CHECKS = (
    "node id out of range in {edge!r}",
    "self-loop at node {u}",
    "negative capacity {c}",
)


def _int_triples(edges):
    """The edges as given, those before the first whose members are not all
    ints as triples, and the error that one raises ("" if none)."""
    items = list(edges)
    triples = []
    for idx, edge in enumerate(items):
        u, v, c = edge
        if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
            return items, triples, (
                f"edge {idx}: endpoints and capacity must be integers, got {edge!r}"
            )
        triples.append((u, v, c))
    return items, triples, ""


def _columns(triples):
    """Tails, heads and capacities of int triples as three int64 arrays. A
    member past the 64-bit range is stored as -1 (an id, out of range) or as
    the limit (a capacity, whose exact total then exceeds it), which keeps
    every check's verdict."""
    try:
        table = np.array(triples, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        table = np.array(
            [(*(x if 0 <= x <= MAX_TOTAL_CAPACITY else -1 for x in (u, v)),
              min(max(c, -1), MAX_TOTAL_CAPACITY)) for (u, v, c) in triples],
            dtype=np.int64,
        ).reshape(-1, 3)
    return tuple(np.ascontiguousarray(table.T))


def _first_failure(node_count, tails, heads, caps):
    """``(index, check)`` of the first edge that fails a check, ``check``
    indexing ``_EDGE_CHECKS``: node ids in range, no self-loop, capacity
    nonnegative; None when every edge passes."""
    return first_failure(np.stack((
        (tails < 0) | (tails >= node_count) | (heads < 0) | (heads >= node_count),
        tails == heads,
        caps < 0,
    )))


def first_failure(fails) -> tuple[int, int] | None:
    """``(item, check)`` of the first item that fails a check, ``fails`` a
    (checks, items) boolean array whose rows are the checks in the order
    each item is put through them; None when every item passes."""
    failed = fails.any(axis=0)
    if not failed.any():
        return None
    idx = int(failed.argmax())
    return idx, int(fails[:, idx].argmax())


def _total(caps) -> int:
    """Exact sum of nonnegative int64 capacities: their high and low 32-bit
    halves are summed apart, so no partial sum wraps."""
    return (int((caps >> 32).sum()) << 32) + int((caps & 0xFFFFFFFF).sum())


def interleave(*columns):
    """Equal-length arrays merged element by element: ``columns[0][0],
    columns[1][0], ..., columns[0][1], columns[1][1], ...``."""
    return np.column_stack(columns).ravel()


@dataclass(frozen=True)
class CutSolution:
    """An s-t cut: its source side (the sink side is every other node),
    exact value, and the crossing edge indices."""

    source_side: frozenset[int]
    value: int
    cut_edges: tuple[int, ...]


def min_cut(g: DiGraph, source: int, sink: int) -> CutSolution:
    """Compute a minimum s-t cut of ``g`` with the canonical minimal source side.

    The value equals the maximum flow from source to sink; ``cut_edges`` are
    the indices of edges crossing source side -> sink side, and their
    capacities sum to the value exactly.
    """
    flow, *residual = _max_flow(g, source, sink)
    return _checked_cut(g, frozenset(_reach(g, *residual, 0)), flow)


def min_cut_extremes(g: DiGraph, source: int, sink: int) -> tuple[CutSolution, CutSolution]:
    """The two canonical minimum cuts from one maximum flow.

    First the inclusion-minimal source side (forward residual reachability
    from the source, the cut ``min_cut`` returns), then the
    inclusion-maximal one (complement of the nodes that can still reach the
    sink in the residual network). They coincide when the minimum cut is
    unique.
    """
    flow, *residual = _max_flow(g, source, sink)
    minimal = frozenset(_reach(g, *residual, 0))
    maximal = frozenset(range(g.node_count)).difference(_reach(g, *residual, 1))
    return _checked_cut(g, minimal, flow), _checked_cut(g, maximal, flow)


def cut_value(g: DiGraph, source_side) -> int:
    """Sum of capacities of edges leaving ``source_side``."""
    inside = np.zeros(g.node_count, dtype=bool)
    for node in source_side:
        g.check_node(node)
        inside[node] = True
    tails, heads, caps = g.arrays
    return int(caps[inside[tails] & ~inside[heads]].sum())


def _max_flow(g: DiGraph, source: int, sink: int):
    """Check the terminals and find a maximum flow on a copy of the graph's
    residual capacities. Returns the flow value, the residual capacities,
    the last round's two searches as ``(root, tree, frontier)`` (forward
    from the source, then backward into the sink) and whether the graph had
    served a flow before this one.

    Each round grows a BFS forward from the source and one backward into
    the sink, a whole layer at a time, always on the side with the smaller
    frontier. Where they meet they join into a shortest augmenting path
    (Edmonds-Karp), so the number of rounds does not depend on the
    capacities; the round pushes its bottleneck and the next starts afresh.
    Once either search closes, no augmenting path is left, and the closed
    search is its terminal's whole residual reach; ``_reach`` finds the
    other terminal's from there. A round reads only the nodes its two
    searches visit.
    """
    g.check_node(source, "source")
    g.check_node(sink, "sink")
    if source == sink:
        raise InputError("source and sink must differ")

    # the first flow on a graph is the one that builds its residual layout
    warm = "residual_layout" in vars(g)
    adj, arcs, starts, to, cap = g.residual_layout
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
                f_layer, meet = _grow(adj, arcs, starts, to, cap, f_layer, fwd, bwd, 0)
            else:
                b_layer, meet = _grow(adj, arcs, starts, to, cap, b_layer, bwd, fwd, 1)
        if meet < 0:
            return flow, cap, ((source, fwd, f_layer), (sink, bwd, b_layer)), warm
        flow += _augment(to, cap, fwd, bwd, meet)


def _reach(g: DiGraph, cap, searches, warm, back):
    """The nodes the source reaches in the residual network (``back`` 0),
    or the nodes that reach the sink (``back`` 1), from the searches of a
    flow's last round; the search from that terminal is the tree here.

    A closed tree is the answer. Otherwise the other search closed, on a
    set of nodes the tree's root cannot reach, and the rest of that set is
    found locally (Picard and Queyranne, 1980). Each graph neighbour y of
    the set so far is tested by a search from y in the other direction
    that never enters the set, against the tree, which persists across
    tests and grows a whole layer at a time; the smaller frontier grows.
    If they meet, the root reaches y and y joins the tree. If y's search
    closes, all it found joins the set, and their neighbours are tested in
    turn. If the tree closes first, it is the answer. A node the root
    reaches only through the positive-capacity graph's other nodes need not
    border the set, so the answer is the root's reach in that graph
    (``DiGraph.capacity_components``) less the set. A graph's first flow
    grows the tree to the end instead: it costs less than building the
    components, which a graph that serves one flow never repays.
    """
    root, tree, layer = searches[back]
    other, near, _ = searches[1 - back]
    layout = g.residual_layout
    adj, arcs, starts, to, _ = layout
    if layer and not warm:
        while layer:
            layer, _ = _grow(adj, arcs, starts, to, cap, layer, tree, (), back)
    if layer:
        comp, members, *links = g.capacity_components
        bound = _reached_components(links[back], comp[root])
        region = dict.fromkeys(near, -1)
        todo = [to[e] for u in near for e in adj[u] or _arcs(layout, u)]
        while todo and layer:
            y = todo.pop()
            if y in region or y in tree or comp[y] not in bound:
                continue
            region[y] = -1
            found, probe, met = [y], [y], False
            while not met and probe and layer:
                if len(probe) <= len(layer):
                    probe, meet = _grow(adj, arcs, starts, to, cap, probe, region, tree, 1 - back)
                    found += probe
                    met = meet >= 0
                else:
                    layer, _ = _grow(adj, arcs, starts, to, cap, layer, tree, (), back)
                    met = not region.keys().isdisjoint(layer)
            if met:
                for v in found:
                    del region[v]
                if y not in tree:
                    tree[y] = -1
                    layer.append(y)
            elif not probe:
                todo.extend(to[e] for u in found for e in adj[u] or _arcs(layout, u))
    if layer:
        reached = frozenset().union(*map(members.__getitem__, bound)).difference(region)
    else:
        reached = tree.keys()
    if other in reached:
        raise InvariantError("sink reachable in residual network after max flow")
    return reached


def _reached_components(links, start):
    """The components reachable from ``start`` along ``links``."""
    seen, todo = {start}, [start]
    while todo:
        for c in links[todo.pop()]:
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return seen


def _arcs(layout, u):
    """The arcs leaving node u, ascending: ``layout.adj[u]``, made from the
    node's slice of ``layout.arcs`` on its first read. Callers read
    ``adj[u] or _arcs(layout, u)``, so a node already made costs no call."""
    adj, arcs, starts, _, _ = layout
    out = adj[u]
    if out is None:
        out = adj[u] = tuple(arcs[starts[u]:starts[u + 1]])
    return out


def _grow(adj, arcs, starts, to, cap, layer, seen, other, back):
    """Expand one BFS layer of the residual network, forward (``back`` 0)
    or backward (``back`` 1: arc e is read as the residual arc e ^ 1 into
    the layer's node). Returns the next layer and -1, or, at the first node
    the ``other`` search has seen, the arc joining the two searches. This
    is the flow's inner loop: it reads each node's arcs as ``_arcs`` does,
    inline, and takes the layout's lists one by one, since unpacking the
    ``ResidualLayout`` record, a tuple subclass, on every call takes the
    interpreter's generic path."""
    nxt = []
    for u in layer:
        out = adj[u]
        if out is None:
            out = adj[u] = tuple(arcs[starts[u]:starts[u + 1]])
        for e in out:
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
    # smaller side's degree, not the graph's size. The sink side is built
    # only when it is the one walked.
    layout = g.residual_layout
    adj, to, cap = layout.adj, layout.to, layout.cap
    if 2 * len(side) <= g.node_count:
        cut_arcs = [e for u in side for e in adj[u] or _arcs(layout, u)
                    if not e & 1 and to[e] not in side]
    else:
        other = frozenset(range(g.node_count)).difference(side)
        cut_arcs = [e ^ 1 for u in other for e in adj[u] or _arcs(layout, u)
                    if e & 1 and to[e] in side]
    cut_arcs.sort()
    cut_edges = tuple(e >> 1 for e in cut_arcs)
    cut_cap = sum(cap[e] for e in cut_arcs)
    if cut_cap != flow:
        raise InvariantError(
            f"max-flow/min-cut mismatch: flow {flow}, crossing capacity {cut_cap}"
        )
    return CutSolution(source_side=side, value=flow, cut_edges=cut_edges)
