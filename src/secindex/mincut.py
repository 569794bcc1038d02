"""Integer-capacity directed graphs and an exact s-t max-flow / min-cut solver.

Capacities are nonnegative integers, so flow values and cut values are
computed exactly. The solver finds one maximum flow per call by shortest
augmenting paths, each found by a BFS from both terminals that expands the
side with the smaller frontier, and stops once either side closes; it reads
only the nodes its searches visit, not the whole graph. A cut is given by
one side, the one the flow has in hand, and a flag saying which side it
is; the other side is every other node. ``min_cut``
returns the canonical minimum cut whose source side is the set of nodes
reachable from the source in the residual network: the unique
inclusion-minimal source side over all minimum cuts, so the returned
partition does not depend on augmentation order or algorithm choice.
``min_cut_extremes`` returns that cut and the inclusion-maximal one, whose
sink side is the set of nodes that still reach the sink, from the same
flow. Where the search from the other terminal closed first, the
terminal reaches no node outside the components its own reaches among the
strongly connected components of the graph's positive-capacity edges,
built once per graph by one vectorized forward-backward search, with
Tarjan's algorithm for the nodes it leaves. If those hold at most half the
graph's nodes, the terminal's search is run to its end and carried.
Otherwise the closed set is grown locally, a graph neighbour joining it
when a search from it closes before meeting the terminal's search, and
the cut is carried by its other side: that set, with every node of a
component the terminal does not reach; on a graph whose positive
capacities join every node, the set alone. The cut's crossing edges are
read from the arcs of the side carried (``crossing_arcs``), so that step
costs time in proportion to that side's degree.
``DiGraph`` holds its edges as three int64 arrays (tails, heads,
capacities), given directly (``DiGraph.from_arrays``) or read from edge
triples by ``read_triples``, the one reader of rows given as triples that
the package's records share, and validates them in one vectorized pass
that names the first offending edge; a graph built from arrays makes its
edge triples only if they are read (``view_on_first_read``). A graph
builds its residual layout once, on its first flow (``arc_layout``). What
is built per graph is a handful of arrays and two lists: a stable sort of
the arcs by tail (compressed sparse rows, ``rows_by``), the
arcs' heads in that order, and, indexed by arc, the capacities and the
heads as the nodes' one id objects. A node's arc tuple, what the flow's
inner loop reads per node, is sliced from the sorted arcs the first time
a search visits the node, so a flow that stays near its terminals makes
tuples for the nodes it reads, not for the graph. Each flow copies only
the capacity list and runs on the copy, so many flows between different
terminals share one graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityOverflowError, InputError, InvariantError

# Total capacity must stay inside signed 64-bit range. Python integers do
# not wrap, but the bound keeps instances portable and is checked up front.
MAX_TOTAL_CAPACITY = 2**63 - 1
# ``DiGraph.capacity_components`` leaves a graph of at most this many nodes
# to Tarjan's algorithm: a search and Tarjan's algorithm cost about the same
# on the 354-node auxiliary graph of the bundled 118-bus case.
TARJAN_NODES = 512
# Its vectorized search goes on only while it takes this many nodes a step
# on average, past a first TARJAN_NODES. A step (a BFS layer, some ten NumPy
# calls) costs about what Tarjan's algorithm in Python spends on five to
# ten nodes; a thinner search stops and leaves its nodes to Tarjan's
# algorithm, so a deep graph costs little more than Tarjan's algorithm
# alone.
STEP_NODES = 32


class ResidualLayout(NamedTuple):
    """A graph's residual arcs, as the flow reads them.

    Arrays no flow writes to: ``arcs``, the arc ids stably sorted by tail,
    so that the arcs leaving node u, ascending, are
    ``arcs[starts[u]:starts[u + 1]]`` (compressed sparse rows); and
    ``heads``, the head of each arc in that order. Lists: ``cap[a]``, the
    capacity of arc a before any flow; ``to[a]``, the head of arc a as the
    head's one id object, so that a search's ``seen`` lookups hit on
    identity, made for every arc with the layout; and ``adj[u]``, node u's
    arcs as a tuple, which holds None until a search first reaches u
    (``_arcs``), so a flow whose searches stay near the terminals makes a
    handful of tuples, not one per node."""

    adj: list[tuple[int, ...] | None]
    to: list[int]
    cap: list[int]
    arcs: np.ndarray
    starts: np.ndarray
    heads: np.ndarray


@dataclass(frozen=True)
class DiGraph:
    """Directed graph with nonnegative integer edge capacities.

    Node ids run from 0 to ``node_count - 1``. Parallel edges are kept as
    distinct entries (their indices matter for cut extraction); self-loops
    are rejected. ``DiGraph(node_count, edges)`` takes the edges as
    ``(tail, head, capacity)`` triples (``read_triples``: ids by ``as_id``,
    capacities by ``operator.index``), kept as Python ints;
    ``DiGraph.from_arrays`` takes them as three int64 arrays and builds
    ``edges`` on first read. Either way the
    edges are held as the arrays ``arrays`` and validated there, by
    ``__post_init__``. Instances are immutable in content and safe to
    share across threads: the capacity components and the residual
    layout's arcs, heads and capacities are cached where no flow writes to
    them, and each flow works on its own copy of the capacities. The one
    thing a flow writes is a node's arc tuple in the layout's ``adj``, on
    the node's first visit; that fill is idempotent, since racing threads
    build and store equal tuples from the same slice of the arc order, so
    a reader sees either None (and builds the tuple itself) or a tuple
    equal to its own.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_arrays(cls, node_count: int, tails, heads, caps) -> DiGraph:
        """The graph whose edge i runs ``tails[i] -> heads[i]`` with
        capacity ``caps[i]``, three int64 arrays that the graph keeps and
        nothing may write to; id arrays of another dtype are refused
        (``id_array``)."""
        g = cls.__new__(cls)
        object.__setattr__(g, "node_count", node_count)
        object.__setattr__(g, "arrays", (id_array(tails, "node"), id_array(heads, "node"), caps))
        g.__post_init__()
        return g

    def __post_init__(self):
        n = as_count(self.node_count, "node_count")
        if n <= 0:
            raise InputError(f"node_count must be a positive integer, got {n!r}")
        object.__setattr__(self, "node_count", n)
        rows = error = None
        if "arrays" in vars(self):
            tails, heads, caps = self.arrays
        else:
            rows = tuple(self.edges)
            *columns, error = read_triples(rows, n, "edge", "node", operator.index)
            object.__setattr__(self, "edges", tuple(zip(*columns)))
            tails, heads = (np.array(ids, dtype=np.int64) for ids in columns[:2])
            caps = _capacity_array(columns[2])
            object.__setattr__(self, "arrays", (tails, heads, caps))
        failure = first_failure(n, tails, heads, caps < 0)
        if failure is not None:
            idx, check = failure
            u, _, c = self.edges[idx]
            edge = self.edges[idx] if rows is None else rows[idx]
            raise InputError(f"edge {idx}: " + _EDGE_CHECKS[check].format(edge=edge, u=u, c=c))
        if error is not None:
            # reading stopped at the row that failed, the one after those kept
            idx = len(self.edges)
            raise InputError(
                f"edge {idx}: endpoints and capacity must be integers, got {rows[idx]!r}")
        # the triples sum exactly: ``_capacity_array`` may have clamped a capacity
        total = _total(caps) if rows is None else sum(c for (_, _, c) in self.edges)
        if total > MAX_TOTAL_CAPACITY:
            raise CapacityOverflowError(
                f"total capacity {total} exceeds the 64-bit limit {MAX_TOTAL_CAPACITY}"
            )

    def __getattr__(self, name):
        # Only reached for attributes not set: ``edges`` of a graph built
        # from arrays, made on first read.
        return view_on_first_read(
            self, name, "edges", lambda g: tuple(zip(*(a.tolist() for a in g.arrays))))

    @cached_property
    def residual_layout(self) -> ResidualLayout:
        """The graph's arcs for the flow (``arc_layout``), built on first
        use."""
        return arc_layout(self.node_count, *self.arrays)

    @cached_property
    def capacity_components(self):
        """``(comp, members, succ, pred)``: the strongly connected components
        of the positive-capacity edges. ``comp[u]`` is node u's component,
        ``members[c]`` the nodes of component c, and ``succ[c]`` /
        ``pred[c]`` the components a positive-capacity edge leads to from c
        / into c. Built on first use (``_components``)."""
        tails, heads, caps = self.arrays
        positive = caps > 0
        tails, heads = tails[positive], heads[positive]
        comp, count = _components(self.residual_layout, positive, tails, heads)
        order, starts = (a.tolist() for a in rows_by(comp, count))
        members = tuple(frozenset(order[a:b]) for a, b in zip(starts, starts[1:]))
        succ = [set() for _ in members]
        pred = [set() for _ in members]
        across = comp[tails] != comp[heads]
        for a, b in zip(comp[tails[across]].tolist(), comp[heads[across]].tolist()):
            succ[a].add(b)
            pred[b].add(a)
        return tuple(comp.tolist()), members, tuple(map(tuple, succ)), tuple(map(tuple, pred))


def as_id(value, what: str) -> int:
    """``value`` as a Python int, a NumPy integer included; a bool or a
    non-integer is refused as a ``what`` id."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise InputError(f"{what} id {value!r} is not an integer")
    return operator.index(value)


def as_count(value, what: str) -> int:
    """``value``, the count ``what`` of a record, as a Python int by the
    rule of ``as_id``; the record checks its own least count."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def check_node(node, node_count: int, what: str = "node") -> int:
    """``node`` as an id (``as_id``) checked to be below ``node_count``."""
    index = as_id(node, what)
    if not 0 <= index < node_count:
        raise InputError(f"{what} id {index} out of range [0, {node_count})")
    return index


def check_terminals(node_count: int, source, sink) -> tuple[int, int]:
    """The terminals as Python ints, checked: node ids, and distinct."""
    source = check_node(source, node_count, "source")
    sink = check_node(sink, node_count, "sink")
    if source == sink:
        raise InputError("source and sink must differ")
    return source, sink


def id_array(ids, what: str) -> np.ndarray:
    """``ids``, the ``what`` ids at one end of a record's rows, as an
    integer array; an array of another dtype is refused, not truncated,
    unless it is empty (NumPy makes ``[]`` a float array)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(f"{what} ids must be integers, got an array of {ids.dtype}")
    return ids if ids.size else ids.astype(np.int64)


def read_triples(rows, count: int, what: str, node: str, convert):
    """The rows ``(tail, head, value)`` of a record of ``count`` nodes,
    read once, in order, up to the first that fails: the ids through
    ``as_id`` as ``node`` ids, as two lists, an id outside [0, count) read
    as -1, which fits any array and is still out of range; the values
    through the record's ``convert``, as a list; and the failure of that
    first row as an ``InputError`` naming it as ``what`` i, or None. The
    record raises it once every earlier row has passed its own checks."""
    tails, heads, values = [], [], []
    for idx, row in enumerate(rows):
        try:
            u, v, value = row
            u, v, value = as_id(u, node), as_id(v, node), convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            return tails, heads, values, InputError(f"{what} {idx}: {exc}")
        tails.append(u if 0 <= u < count else -1)
        heads.append(v if 0 <= v < count else -1)
        values.append(value)
    return tails, heads, values, None


def view_on_first_read(record, name: str, view: str, make):
    """What a record's ``__getattr__`` returns, which Python calls only for
    an attribute not set: for ``view``, the rows of a record built from
    arrays, ``make(record)``, kept from this first read on; any other
    ``name`` is missing."""
    if name != view:
        raise AttributeError(f"{type(record).__name__!r} object has no attribute {name!r}")
    rows = make(record)
    object.__setattr__(record, view, rows)
    return rows


def _capacity_array(caps):
    """Int capacities as an int64 array, one past the 64-bit range stored
    as -1 or as the limit, which keeps every check's verdict: the exact
    total of a capacity past the limit exceeds it too."""
    try:
        return np.array(caps, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(c, -1), MAX_TOTAL_CAPACITY) for c in caps], dtype=np.int64)


# What an edge that fails each check of ``DiGraph.__post_init__`` is told,
# in the order the checks are made.
_EDGE_CHECKS = (
    "node id out of range in {edge!r}",
    "self-loop at node {u}",
    "negative capacity {c}",
)


def first_failure(count: int, tails, heads, *checks) -> tuple[int, int] | None:
    """``(row, check)`` of the first row of a record that fails a check, in
    the order each row is put through them: check 0, both ids in [0,
    count); check 1, no self-loop; then the record's own ``checks``, one
    boolean array each, True where a row fails. None when every row
    passes."""
    fails = np.stack(((tails < 0) | (tails >= count) | (heads < 0) | (heads >= count),
                      tails == heads, *checks))
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
    out = np.empty((len(columns[0]), len(columns)), dtype=np.result_type(*columns))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out.reshape(-1)


def arc_layout(node_count: int, tails, heads, caps) -> ResidualLayout:
    """The residual arcs of the graph whose edge i runs ``tails[i] ->
    heads[i]`` with capacity ``caps[i]``: arc 2i is edge i, arc 2i+1 its
    reverse with capacity 0. The arcs are stably sorted by tail, as the
    narrowest unsigned type that holds every node id, which NumPy
    radix-sorts, to the same permutation. See ``ResidualLayout``."""
    arc_heads = interleave(heads, tails)
    cap = [0] * len(arc_heads)
    cap[0::2] = caps.tolist()
    arcs, starts = rows_by(interleave(tails, heads), node_count)
    return ResidualLayout(
        adj=[None] * node_count,
        to=np.arange(node_count).astype(object)[arc_heads].tolist(),
        cap=cap,
        arcs=arcs,
        starts=starts,
        heads=arc_heads[arcs],
    )


def rows_by(keys, n):
    """``(order, starts)``: the positions of ``keys``, ids below ``n``,
    stably sorted by key, and where each key's run starts, so that the
    positions of key k are ``order[starts[k]:starts[k + 1]]`` (compressed
    sparse rows). The keys are sorted as the narrowest unsigned type that
    holds every id, which NumPy radix-sorts, to the same permutation."""
    order = np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))


def gather(values, starts, keys):
    """``(counts, rows)``: the rows ``values[starts[k]:starts[k + 1]]`` of
    each of ``keys``, an id array, possibly empty, one after another as
    one array, and the length of each."""
    lo = starts[keys]
    counts = starts[keys + 1] - lo
    ends = np.cumsum(counts)
    total = ends[-1] if len(ends) else 0
    return counts, values[np.repeat(lo + counts - ends, counts) + np.arange(total)]


def _components(layout, positive, tails, heads):
    """Each node's strongly connected component of the positive edges
    ``tails -> heads`` (``positive`` marks them among the graph's edges),
    numbered from 0, and the count. On a graph of more than
    ``TARJAN_NODES`` nodes, the component of node 0 is found first, as the
    set of nodes it reaches that also reach it, by one search along the
    edges and their reverses at once (forward-backward reach, Fleischer,
    Hendrickson & Pinar, 2000); on the auxiliary graph of a fully measured
    grid, that is every node. The search is vectorized, a BFS layer per
    step, so its cost grows with the graph's depth: a radial network's
    takes a layer per bus or two. It is dropped once it has taken fewer
    than ``STEP_NODES`` nodes a step (``_thin``). Tarjan's algorithm in
    Python numbers the nodes the search has not taken."""
    n = len(layout.adj)
    comp = np.full(n, -1, dtype=np.intp)
    count = 0
    nodes = np.arange(n)
    if n > TARJAN_NODES:
        both = _spread(_positive_rows(layout, positive), [0, n])
        if both is not None:
            own = both[:n] & both[n:]
            comp[own], count = 0, 1
            left = ~own
            # the positive edges among the nodes left, as local ids
            nodes = np.flatnonzero(left)
            inner = left[tails] & left[heads]
            local = np.empty(n, dtype=np.intp)
            local[nodes] = np.arange(len(nodes))
            tails, heads = local[tails[inner]], local[heads[inner]]
    if len(nodes):
        order, starts = rows_by(tails, len(nodes))
        far, starts = heads[order].tolist(), starts.tolist()
        comp[nodes], count = _tarjan([far[a:b] for a, b in zip(starts, starts[1:])], count)
    return comp, count


def _positive_rows(layout, positive):
    """Compressed rows ``(values, starts)`` of the positive edges read off
    the residual layout's arcs, for a search that spreads both ways at
    once: node u's row u lists
    the heads of its positive edges, its row n + u, shifted by n, the tails
    of the positive edges into it (the heads of their mirror arcs); both in
    edge order."""
    n = len(layout.adj)
    arcs = layout.arcs
    live = positive[arcs >> 1]
    odd = (arcs & 1).astype(bool)
    out, into = live & ~odd, live & odd
    out_ends = np.concatenate(([0], np.cumsum(out)))[layout.starts]
    in_ends = np.concatenate(([0], np.cumsum(into)))[layout.starts] + out_ends[-1]
    return (np.concatenate((layout.heads[out], layout.heads[into] + n)),
            np.concatenate((out_ends[:-1], in_ends)))


def _thin(steps, taken):
    """Whether a vectorized search that has made ``steps`` steps and taken
    ``taken`` nodes is to stop: past a first TARJAN_NODES nodes, it took
    fewer than STEP_NODES a step."""
    return steps * STEP_NODES > taken + TARJAN_NODES


def _spread(rows, roots):
    """The nodes that ``roots``, a list of them, reach along the compressed
    rows ``rows`` (``(values, starts)``, as ``gather`` reads them), as a
    mask; a BFS that takes one whole layer per step. None if its layers
    turn thin."""
    seen = np.zeros(len(rows[1]) - 1, dtype=bool)
    seen[roots] = True
    layer = np.array(roots)
    last = np.empty(len(seen), dtype=np.intp)  # a node's last place in a layer
    steps, taken = 0, len(layer)
    while len(layer):
        if _thin(steps, taken):
            return None
        steps += 1
        _, nxt = gather(*rows, layer)
        nxt = nxt[~seen[nxt]]
        place = np.arange(len(nxt))
        last[nxt] = place
        layer = nxt[last[nxt] == place]
        seen[layer] = True
        taken += len(layer)
    return seen


def _tarjan(heads_of, count):
    """Tarjan's algorithm on the graph of nodes 0 .. len(heads_of) - 1
    whose edges out of node u lead to ``heads_of[u]``: each node's
    component, numbered from ``count``, and the next number."""
    n = len(heads_of)
    order, low, comp = [-1] * n, [0] * n, [-1] * n
    stack = []
    seen = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, iter(heads_of[root]))]
        while work:
            u, rest = work[-1]
            for v in rest:
                if order[v] < 0:
                    order[v] = low[v] = seen
                    seen += 1
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
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == u:
                            break
                    count += 1
    return comp, count


def source_side_of(side, is_sink: bool, node_count: int) -> frozenset[int]:
    """The source side of a cut of ``node_count`` nodes given by ``side``,
    its sink side if ``is_sink``, else its source side."""
    return frozenset(range(node_count)).difference(side) if is_sink else frozenset(side)


@dataclass(frozen=True)
class CutSolution:
    """An s-t cut by the one of its sides the flow had in hand: ``side``,
    the sink side if ``is_sink`` and else the source side (the other side
    is every other node of the ``node_count``), with the exact value and
    the crossing edge indices. ``source_side`` is built from them on first
    read."""

    side: frozenset[int]
    is_sink: bool
    node_count: int
    value: int
    cut_edges: tuple[int, ...]

    @cached_property
    def source_side(self) -> frozenset[int]:
        return source_side_of(self.side, self.is_sink, self.node_count)


def min_cut(g: DiGraph, source: int, sink: int) -> CutSolution:
    """Compute a minimum s-t cut of ``g`` with the canonical minimal source side.

    The value equals the maximum flow from source to sink; ``cut_edges`` are
    the indices of edges crossing source side -> sink side, and their
    capacities sum to the value exactly.
    """
    flow, cap, searches = _max_flow(g, source, sink)
    return _checked_cut(g, *_reach(g, cap, searches, 0), flow)


def min_cut_extremes(g: DiGraph, source: int, sink: int) -> tuple[CutSolution, CutSolution]:
    """The two canonical minimum cuts from one maximum flow.

    First the inclusion-minimal source side (forward residual reachability
    from the source, the cut ``min_cut`` returns), then the
    inclusion-maximal one (complement of the nodes that can still reach the
    sink in the residual network). They coincide when the minimum cut is
    unique.
    """
    flow, cap, searches = _max_flow(g, source, sink)
    minimal, maximal = (_reach(g, cap, searches, back) for back in (0, 1))
    return _checked_cut(g, *minimal, flow), _checked_cut(g, *maximal, flow)


def cut_value(g: DiGraph, source_side) -> int:
    """Sum of capacities of edges leaving ``source_side``."""
    inside = np.zeros(g.node_count, dtype=bool)
    for node in source_side:
        inside[check_node(node, g.node_count)] = True
    tails, heads, caps = g.arrays
    return int(caps[inside[tails] & ~inside[heads]].sum())


def _max_flow(g: DiGraph, source: int, sink: int):
    """Check the terminals and find a maximum flow on a copy of the graph's
    residual capacities. Returns the flow value, the residual capacities
    and the last round's two searches as ``(root, tree, frontier)``
    (forward from the source, then backward into the sink).

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
    source, sink = check_terminals(g.node_count, source, sink)
    layout = g.residual_layout
    adj, to = layout.adj, layout.to
    cap = list(layout.cap)
    flow = 0
    while True:
        # node -> the residual arc that found it (-1 for the terminals):
        # forward, the arc into it; backward, the arc out of it to the sink
        fwd, bwd = {source: -1}, {sink: -1}
        f_layer, b_layer = [source], [sink]
        meet = -1
        while meet < 0 and f_layer and b_layer:
            if len(f_layer) <= len(b_layer):
                f_layer, meet = _grow(adj, to, cap, layout, f_layer, fwd, bwd, 0)
            else:
                b_layer, meet = _grow(adj, to, cap, layout, b_layer, bwd, fwd, 1)
        if meet < 0:
            return flow, cap, ((source, fwd, f_layer), (sink, bwd, b_layer))
        flow += _augment(to, cap, fwd, bwd, meet)


def _reach(g: DiGraph, cap, searches, back):
    """The cut whose source side is the nodes the source reaches in the
    residual network (``back`` 0), or whose sink side is the nodes that
    reach the sink (``back`` 1), from the searches of a flow's last round,
    as ``(side, is_sink)``: one side of the cut as a frozenset, and whether
    it is the sink side. The search from that terminal is the tree here,
    and the side returned is the one the searches have in hand.

    A closed tree is the answer. Otherwise the other search closed, on a
    set of nodes the root cannot reach, and the root reaches only the
    components its own reaches in the positive-capacity graph
    (``DiGraph.capacity_components``). If those hold at most half the
    graph's nodes, the tree is grown to its end. Else the set grows locally
    (Picard and Queyranne, 1980): each graph neighbour y of it in a reached
    component is tested by a search from y in the other direction that
    never enters the set, against the tree, which persists across tests and
    grows a layer at a time; the smaller frontier grows. If they meet, y
    joins the tree; if y's search closes, all it found joins the set, and
    their neighbours are tested in turn. If the tree closes, it is the
    answer; if the candidates run out, the cut's other side is: the set,
    with every node of a component the root cannot reach. A closed search
    has expanded every node it holds, so their arcs are made.
    """
    root, tree, layer = searches[back]
    other, near, _ = searches[1 - back]
    if layer:
        layout = g.residual_layout
        adj, to = layout.adj, layout.to
        comp, members, *links = g.capacity_components
        bound = _reached_components(links[back], comp[root])
        unreached = list(map(members.__getitem__, set(range(len(members))) - bound))
        if 2 * sum(map(len, unreached)) >= g.node_count:
            while layer:
                layer, _ = _grow(adj, to, cap, layout, layer, tree, (), back)
        region = dict.fromkeys(near, -1)
        todo = [to[e] for u in near for e in adj[u]] if layer else ()
        while todo and layer:
            y = todo.pop()
            if y in region or y in tree or comp[y] not in bound:
                continue
            region[y] = -1
            found, probe, met = [y], [y], False
            while not met and probe and layer:
                if len(probe) <= len(layer):
                    probe, meet = _grow(adj, to, cap, layout, probe, region, tree, 1 - back)
                    found += probe
                    met = meet >= 0
                else:
                    layer, _ = _grow(adj, to, cap, layout, layer, tree, (), back)
                    met = not region.keys().isdisjoint(layer)
            if met:
                for v in found:
                    del region[v]
                if y not in tree:
                    tree[y] = -1
                    layer.append(y)
            elif not probe:
                todo.extend(to[e] for u in found for e in adj[u])
    side = frozenset(region).union(*unreached) if layer else frozenset(tree)
    if (other in side) != bool(layer):
        raise InvariantError("sink reachable in residual network after max flow")
    return side, bool(back) != bool(layer)


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
    """The arcs leaving node u, ascending, sliced from the arc order and
    stored as ``layout.adj[u]``; threads that race on a node store equal
    tuples. Callers read ``adj[u] or _arcs(layout, u)``, so a node already
    made costs no call."""
    starts = layout.starts
    out = layout.adj[u] = tuple(layout.arcs[starts[u]:starts[u + 1]].tolist())
    return out


def _grow(adj, to, cap, layout, layer, seen, other, back):
    """Expand one BFS layer of the residual network, forward (``back`` 0:
    arc e leaves the layer's node) or backward (``back`` 1: arc e is read
    as the residual arc e ^ 1 into the layer's node). Returns the next
    layer and -1, or, at the first node the ``other`` search has seen, the
    arc joining the two searches. A node's arc tuple is made on its first
    visit (``_arcs``). This is the flow's inner loop: each direction has a
    loop of its own, which reads the head of an arc with residual capacity
    once, and it takes the layout's lists one by one, since unpacking the
    ``ResidualLayout`` record, a tuple subclass, on every call takes the
    interpreter's generic path."""
    nxt = []
    if back:
        for u in layer:
            out = adj[u]
            if out is None:
                out = _arcs(layout, u)
            for e in out:
                if cap[e ^ 1]:
                    v = to[e]
                    if v not in seen:
                        if v in other:
                            return nxt, e ^ 1
                        seen[v] = e ^ 1
                        nxt.append(v)
        return nxt, -1
    for u in layer:
        out = adj[u]
        if out is None:
            out = _arcs(layout, u)
        for e in out:
            if cap[e]:
                v = to[e]
                if v not in seen:
                    if v in other:
                        return nxt, e
                    seen[v] = e
                    nxt.append(v)
    return nxt, -1


def _augment(to, cap, fwd, bwd, meet) -> int:
    """Push the bottleneck of the path source -> tail(meet) -> head(meet)
    -> sink that the two search trees spell out, walked by the arcs' heads:
    forward, the head of an arc's mirror is its tail."""
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


def crossing_arcs(layout: ResidualLayout, side, is_sink: bool) -> list[int]:
    """The arcs 2i of the edges i that cross a cut from its source side to
    its sink side, ascending, read from the arcs of ``side``, the cut's
    sink side if ``is_sink`` and else its source side: the arcs out of
    ``side`` whose head is not in it, forward (even) ones out of a source
    side, reverse (odd) ones out of a sink side, each of them the mirror
    e ^ 1 of a crossing forward arc. The time is linear in the degree of
    ``side``, not in the graph's size."""
    adj, to = layout.adj, layout.to
    odd = int(is_sink)
    cut = [
        e ^ odd
        for u in side
        for e in adj[u] or _arcs(layout, u)
        if e & 1 == odd and to[e] not in side
    ]
    cut.sort()
    return cut


def _checked_cut(g: DiGraph, side: frozenset[int], is_sink: bool, flow: int) -> CutSolution:
    # The crossing edges, read from the arcs of the side carried; their
    # capacities must add up to the flow.
    layout = g.residual_layout
    cap = layout.cap
    cut_arcs = crossing_arcs(layout, side, is_sink)
    cut_cap = sum([cap[e] for e in cut_arcs])
    if cut_cap != flow:
        raise InvariantError(
            f"max-flow/min-cut mismatch: flow {flow}, crossing capacity {cut_cap}"
        )
    return CutSolution(
        side=side,
        is_sink=is_sink,
        node_count=g.node_count,
        value=flow,
        cut_edges=tuple([e >> 1 for e in cut_arcs]),
    )
