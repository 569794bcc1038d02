"""Min cut with costly nodes, solved exactly through an auxiliary graph.

The problem: partition the nodes of a directed graph into a source side and
a sink side, paying the cost of every edge crossing source -> sink plus a
one-time charge for every node incident to a crossing edge (tails on the
source side, heads on the sink side). The reduction triples each node i into
a chain w_i -> v_i -> z_i whose two edges both carry the node charge: a
tail pays it on v_i -> z_i, a head on w_i -> v_i, and no node is both. It
protects the chain with edges of cost strictly larger than any node charge,
so a standard integer min cut on the auxiliary graph yields the optimum; the
partition of the original nodes is read off the v layer. Edges are directed;
an undirected instance lists each edge in both directions, and no solver
needs to know that it does.

Rational costs are scaled to integers by the LCM of their denominators
(``scale_to_int``, the package's one scaling helper), so optimality is
exact; where every cost is already an int the scale is 1 and the costs are
taken as given. The scaling happens once per instance (``int_costs``); the
instances ``CostlyCutInstance.with_terminals`` derives for other terminal
pairs share it, together with the already validated edges and charges, so
a sweep over many terminal pairs validates and scales its costs once.
``solve_brute_force`` is the exhaustive verifier. The two classical
approximations (dropping node charges, and folding node charges into
incident edges) report the true objective of whatever partition they
select. None of the graphs cut here depends on the terminals: the
auxiliary graph ``solve`` cuts and the edge-only graph each approximation
cuts are built and validated once per family of instances, on first use,
and shared with every instance ``with_terminals`` derives. Each is built
as arrays, block by block in its documented edge order, from the
instance's endpoint arrays (``ends``) and its scaled costs, and handed to
``DiGraph.from_arrays``; no per-edge tuple is made. Both constructors
set ``ends`` and the cost list ``costs``: an instance built from edge
triples reads them from the triples (``mincut.read_triples``, costs
through ``as_cost``) when it is checked, and one built
by ``CostlyCutInstance.from_arrays`` is given them, together with a cost
list already checked, and is itself checked on the arrays; it makes its
``edges`` triples, which no solver reads, only on first read, once per
family. A flow on a shared graph copies only its capacities, so a sweep
over many terminal pairs pays the graph's set-up once. A solution carries
the side of the partition its cut carried, the source side or the sink
side, as the flow found it, and every solver builds it in one place
(``_scored``), from ``evaluate_partition``, which rechecks every cut in
exact rational arithmetic; it finds the crossing edges by walking the side
over the instance's own edges by end, sorted once per family, not through
any graph a solver cuts, so the recheck shares no cut reader with the
solvers it checks, and reads only the edges at the side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapacityOverflowError, InputError, InvariantError, SizeLimitError
from .mincut import (
    MAX_TOTAL_CAPACITY,
    DiGraph,
    as_count,
    check_terminals,
    first_failure,
    id_array,
    interleave,
    min_cut,
    min_cut_extremes,
    read_triples,
    source_side_of,
    view_on_first_read,
)

BRUTE_FORCE_MAX_NODES = 22
_BRUTE_CHUNK = 1 << 16


def as_cost(value) -> int | Fraction:
    """Coerce a cost to an exact nonnegative number: an int when it is
    integral, else a Fraction.

    Accepts int, Fraction, strings like "3/2" or "0.5", and finite floats
    (read as their decimal literal, so 0.1 becomes 1/10): 3, Fraction(6, 2),
    "6/2" and 3.0 all give the int 3. A NumPy integer is read as its int
    and a NumPy floating scalar as its float; a bool is refused. Integral
    costs thus add and compare as ints, and a sum promotes to a Fraction
    exactly when a term is one.
    """
    if isinstance(value, (bool, np.bool_)):
        raise InputError(f"cost must be a number, got {value!r}")
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise InputError(f"cost must be finite, got {value!r}")
        value = str(float(value))
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse cost {value!r}") from exc
    if isinstance(value, Fraction):
        cost = value.numerator if value.denominator == 1 else value
    elif hasattr(value, "__index__"):
        cost = operator.index(value)
    else:
        raise InputError(f"cost must be a number, got {value!r}")
    if cost < 0:
        raise InputError(f"costs must be nonnegative, got {cost}")
    return cost


def _check_structure(inst):
    """Check an instance's node count, terminals, edge node ids and
    self-loops, naming the first offending edge with its first failing
    check (``first_failure``); the terminals are kept as Python ints."""
    n = inst.node_count
    if n < 2:
        raise InputError("instance needs at least source and sink")
    inst.__dict__["source"], inst.__dict__["sink"] = check_terminals(n, inst.source, inst.sink)
    failure = first_failure(n, *inst.ends)
    if failure is not None:
        idx, check = failure
        problem = f"self-loop at node {int(inst.ends[0][idx])}" if check else "node id out of range"
        raise InputError(f"edge {idx}: {problem}")


def _int_costs(inst):
    """``(scale, edge costs, node charges)`` of an instance, every cost
    times ``scale`` as a tuple of ints."""
    scale, groups = scale_to_int(inst.costs, inst.node_costs)
    return (scale, *map(tuple, groups))


def _edge_triples(inst):
    """The ``edges`` of an instance built from arrays, made once per family."""
    return tuple(zip(*(end.tolist() for end in inst.ends), inst.costs))


@dataclass(frozen=True)
class CostlyCutInstance:
    """A directed graph with edge costs, per-node charges, and two terminals.

    Construction checks node ids, self-loops, costs and terminals once,
    and either constructor leaves the endpoint arrays ``ends`` and the
    edge costs ``costs`` set: built from ``edges`` triples, the instance
    reads them from the triples, kept with Python int ids, and names its
    first row that does not read only once every earlier row has passed
    the checks above; ``from_arrays`` is given them, with
    costs already checked, and makes its ``edges`` triples only if they
    are read, once for the instance and every instance ``with_terminals``
    derives."""

    node_count: int
    edges: tuple[tuple[int, int, int | Fraction], ...]
    node_costs: tuple[int | Fraction, ...]
    source: int
    sink: int

    @classmethod
    def from_arrays(cls, node_count, tails, heads, costs, node_costs, source, sink):
        """The instance whose edge i runs ``tails[i] -> heads[i]`` at cost
        ``costs[i]``. The costs and charges are kept as given, so they must
        be ``as_cost`` results already, as a ``WeightAssignment``'s are, and
        nothing may write to them or to the arrays; the node ids,
        self-loops and terminals are checked on the arrays, and an id
        array whose dtype is not an integer one is refused (``id_array``)."""
        inst = cls.__new__(cls)
        inst.__dict__.update(
            node_count=node_count,
            costs=costs,
            node_costs=tuple(node_costs),
            source=source,
            sink=sink,
            ends=(id_array(tails, "node"), id_array(heads, "node")),
        )
        inst.__post_init__()
        return inst

    def __post_init__(self):
        n = self.__dict__["node_count"] = as_count(self.node_count, "node_count")
        error = None
        if "ends" not in vars(self):  # built from edge triples
            *columns, error = read_triples(self.edges, n, "edge", "node", as_cost)
            self.__dict__.update(
                edges=tuple(zip(*columns)),
                ends=tuple(np.array(ids, dtype=np.int64) for ids in columns[:2]),
                costs=columns[2],
                node_costs=tuple(as_cost(p) for p in self.node_costs),
            )
        if len(self.node_costs) != n:
            raise InputError(f"expected {n} node costs, got {len(self.node_costs)}")
        _check_structure(self)
        if error is not None:
            raise error
        # The graphs cut for this instance, its edges by end and its edge
        # triples, by recipe; built on first use and shared with every
        # instance ``with_terminals`` derives, since they do not depend on
        # the terminals.
        object.__setattr__(self, "_graphs", {})

    def __getattr__(self, name):
        # Only reached for attributes not set: ``edges`` of an instance
        # built from arrays, made on first read and kept for its family.
        return view_on_first_read(
            self, name, "edges", lambda inst: _shared_graph(inst, _edge_triples))

    int_costs = cached_property(_int_costs)

    def with_terminals(self, source: int, sink: int) -> CostlyCutInstance:
        """The same instance between other terminals.

        The result shares this instance's validated edges and charges, its
        integer scaling, the graphs cut for it (the auxiliary graph and
        the heuristics' graphs), its edges by end and its edge triples;
        only the terminals are checked.
        """
        return self._between(*check_terminals(self.node_count, source, sink))

    def _between(self, source: int, sink: int) -> CostlyCutInstance:
        """``with_terminals`` for terminals the caller has checked: distinct
        node ids of this instance, as Python ints. The derived instance is
        one update of this instance's attributes, with its integer scaling,
        so that every derived instance shares it."""
        derived = object.__new__(type(self))
        vars(derived).update(vars(self), source=source, sink=sink, int_costs=self.int_costs)
        return derived


@dataclass(frozen=True)
class CostlyCutSolution:
    """A partition by one of its sides: ``side``, the sink side if
    ``is_sink`` and else the source side (the other side is every other
    node of the ``node_count``), as the cut that found it carried it, with
    its exact objective, crossing edges, and charged nodes.
    ``source_side`` is built from them on first read."""

    side: frozenset[int]
    is_sink: bool
    node_count: int
    objective: int | Fraction
    cut_edges: tuple[int, ...]
    charged_nodes: frozenset[int]

    @cached_property
    def source_side(self) -> frozenset[int]:
        return source_side_of(self.side, self.is_sink, self.node_count)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """The tripled graph (instance node i is its node v_i = i); its
    capacities are the costs times the instance's ``int_costs`` scale. From
    edge 2n on, each instance edge adds three edges, the last two of them
    protective."""

    graph: DiGraph

    @cached_property
    def big_cost_edges(self) -> frozenset[int]:
        """The ids of the protective edges, built on first read."""
        first, count = 2 * (self.graph.node_count // 3), len(self.graph.arrays[0])
        return frozenset(range(first + 1, count, 3)) | frozenset(range(first + 2, count, 3))


def scale_to_int(*groups):
    """Least common denominator of every cost in ``groups``, and each
    group multiplied by it as a list of ints. Where every cost is an int,
    as ``as_cost`` makes every integral one, that is 1 and the groups as
    given, found without touching each cost's denominator."""
    if all(set(map(type, group)) <= {int} for group in groups):
        return 1, [list(group) for group in groups]
    scale = math.lcm(*(c.denominator for group in groups for c in group))
    return scale, [[c.numerator * (scale // c.denominator) for c in group] for group in groups]


def _shared_graph(inst, build, *args):
    """``build(inst, *args)``, made once per family of instances sharing
    edges and charges and kept in the family's graph dict."""
    key = (build, *args)
    graph = inst._graphs.get(key)
    if graph is None:
        graph = inst._graphs[key] = build(inst, *args)
    return graph


def build_auxiliary(inst: CostlyCutInstance) -> AuxiliaryGraph:
    """The tripled auxiliary graph of a costly-cut instance.

    Node i of the instance is v_i = i, w_i = n + i and z_i = 2n + i. Edges:
    w_i -> v_i and v_i -> z_i per node, each carrying its charge, then per
    instance edge u -> v its cost v_u -> v_v and the two protective edges
    v_u -> w_v and z_u -> v_v. The graph does not depend on the terminals:
    it is built on the first call and shared by every instance
    ``with_terminals`` derives.
    """
    return _shared_graph(inst, _tripled)


def _tripled(inst) -> AuxiliaryGraph:
    # Each block of edges is built as columns, one row per node or per
    # instance edge, and interleaved row by row: the edge order listed above.
    n = inst.node_count
    _, edge_scaled, charges = inst.int_costs
    tails, heads = inst.ends
    m = len(tails)
    costs, charges, big = _capacities(edge_scaled, charges, [max(charges) + 1])
    bigs = np.repeat(big, m)
    nodes = np.arange(n, dtype=np.int64)
    graph = DiGraph.from_arrays(
        3 * n,
        np.concatenate((interleave(n + nodes, nodes), interleave(tails, tails, 2 * n + tails))),
        np.concatenate((interleave(nodes, 2 * n + nodes), interleave(heads, n + heads, heads))),
        np.concatenate((interleave(charges, charges), interleave(costs, bigs, bigs))),
    )
    return AuxiliaryGraph(graph=graph)


def _capacities(*groups):
    """Each group of nonnegative scaled costs as an int64 array. A cost past
    the 64-bit range puts its graph's total capacity past it too."""
    try:
        return [np.array(group, dtype=np.int64) for group in groups]
    except OverflowError:
        worst = max(max(group, default=0) for group in groups)
        raise CapacityOverflowError(
            f"scaled cost {worst} exceeds the 64-bit limit {MAX_TOTAL_CAPACITY}"
        ) from None


def dump_auxiliary(aux: AuxiliaryGraph) -> str:
    """Line-oriented debug dump: node count, then one `from to capacity` per edge."""
    lines = [str(aux.graph.node_count)]
    lines.extend(f"{u} {v} {c}" for (u, v, c) in aux.graph.edges)
    return "\n".join(lines) + "\n"


class _EdgesAt:
    """An instance's edges by one of their ends (``end`` 0, the tail, or 1,
    the head), once per family of instances: the edges with that end at
    node u, ascending, and their other ends are ``pairs(u)``. The order is
    one stable sort of the end array, as the narrowest unsigned type,
    which NumPy radix-sorts; a node's pairs are sliced from it on the
    node's first read and kept in ``made``. The sort is its own, not
    ``mincut.rows_by``, which lays out the arcs the flow cuts: the exact
    recheck shares no code with the cut reader it checks."""

    def __init__(self, inst, end):
        at = inst.ends[end]
        order = np.argsort(at.astype(np.min_scalar_type(inst.node_count)), kind="stable")
        self.order, self.far = order, inst.ends[1 - end][order]
        self.starts = [0, *np.cumsum(np.bincount(at, minlength=inst.node_count)).tolist()]
        self.made = [None] * inst.node_count

    def pairs(self, u):
        first, last = self.starts[u], self.starts[u + 1]
        out = self.made[u] = (
            tuple(self.order[first:last].tolist()), tuple(self.far[first:last].tolist())
        )
        return out


def evaluate_partition(inst, side, is_sink=False):
    """Exact objective of a partition, given by ``side``, its sink side if
    ``is_sink`` and else its source side: crossing edge costs plus one
    charge per node incident to a crossing edge.

    The crossing edges are found by walking ``side`` over the instance's
    own endpoint arrays (``_EdgesAt``): the edges that leave a source
    side's nodes, or enter a sink side's, whose other end lies off the
    side. Their costs and their endpoints' charges are summed exactly from
    the instance's own cost lists."""
    side = frozenset(side)
    n = inst.node_count
    inner, outer = (inst.sink, inst.source) if is_sink else (inst.source, inst.sink)
    if inner not in side or outer in side:
        raise InputError("source side must contain the source and exclude the sink")
    low, high = min(side), max(side)
    if low < 0 or high >= n:
        raise InputError(f"node id {low if low < 0 else high} out of range")
    edges = _shared_graph(inst, _EdgesAt, int(is_sink))
    made = edges.made
    crossing = {
        e: (u, v) for u in side for e, v in zip(*made[u] or edges.pairs(u)) if v not in side
    }
    cut = sorted(crossing)
    charged = frozenset(v for ends in crossing.values() for v in ends)
    costs, charges = inst.costs, inst.node_costs
    objective = sum([costs[e] for e in cut]) + sum([charges[v] for v in charged])
    return objective, tuple(cut), charged


def _scored(inst, side, is_sink=False) -> CostlyCutSolution:
    """The partition given by ``side``, its sink side if ``is_sink`` and
    else its source side, as a solution scored by ``evaluate_partition``:
    the one place where any solver turns a side into a solution."""
    side = frozenset(side)
    objective, cut_edges, charged = evaluate_partition(inst, side, is_sink)
    return CostlyCutSolution(
        side=side,
        is_sink=is_sink,
        node_count=inst.node_count,
        objective=objective,
        cut_edges=cut_edges,
        charged_nodes=charged,
    )


def solve(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Optimal costly-node cut via a single min cut on the auxiliary graph."""
    aux = build_auxiliary(inst)
    cut = min_cut(aux.graph, inst.source, inst.sink)
    # From edge 2n on, every edge but the first of each three is protective.
    first = 2 * inst.node_count
    if any(e >= first and (e - first) % 3 for e in cut.cut_edges):
        raise InvariantError("a protective big-cost edge appeared in the minimum cut")
    # v_i = i: the instance's side is the aux side's nodes below n.
    side = frozenset(filter(inst.node_count.__gt__, cut.side))
    scale = inst.int_costs[0]
    cut_value = cut.value if scale == 1 else Fraction(cut.value, scale)
    sol = _scored(inst, side, cut.is_sink)
    if sol.objective != cut_value:
        raise InvariantError(
            f"partition objective {sol.objective} disagrees with cut value {cut_value}"
        )
    return sol


def solve_brute_force(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Exhaustive minimizer over all partitions; ties favor the
    lexicographically smallest membership vector."""
    n = inst.node_count
    if n > BRUTE_FORCE_MAX_NODES:
        raise SizeLimitError(
            f"brute force refuses instances with more than {BRUTE_FORCE_MAX_NODES} nodes"
        )
    scale, *scaled = inst.int_costs
    edge_cost, charges = (np.array(group, dtype=np.int64) for group in scaled)
    if int(edge_cost.sum()) + int(charges.sum()) >= 2**62:
        raise InputError("scaled costs too large for brute force")

    free = [i for i in range(n) if i not in (inst.source, inst.sink)]
    f = len(free)
    tails, heads = inst.ends

    # Bit j of a mask drives free node free[j]; weighting low-index nodes as
    # most significant makes ascending masks ascend in membership-vector
    # lexicographic order, so the first minimum is the canonical tie-break.
    best_val = None
    best_mask = None
    for start in range(0, 1 << f, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, 1 << f)
        masks = np.arange(start, stop, dtype=np.uint64)
        member = np.zeros((stop - start, n), dtype=bool)
        member[:, inst.source] = True
        for j, node in enumerate(free):
            member[:, node] = (masks >> np.uint64(f - 1 - j)) & np.uint64(1)
        cut = member[:, tails] & ~member[:, heads] if len(tails) else np.zeros((stop - start, 0), dtype=bool)
        values = cut @ edge_cost if len(tails) else np.zeros(stop - start, dtype=np.int64)
        touched = np.zeros((stop - start, n), dtype=bool)
        for idx in range(len(tails)):
            np.logical_or(touched[:, tails[idx]], cut[:, idx], out=touched[:, tails[idx]])
            np.logical_or(touched[:, heads[idx]], cut[:, idx], out=touched[:, heads[idx]])
        values = values + touched @ charges
        local = int(np.argmin(values))
        if best_val is None or values[local] < best_val:
            best_val = int(values[local])
            best_mask = start + local

    side = {inst.source}
    for j, node in enumerate(free):
        if (best_mask >> (f - 1 - j)) & 1:
            side.add(node)
    sol = _scored(inst, side)
    if sol.objective != Fraction(best_val, scale):
        raise InvariantError("brute-force objective recomputation mismatch")
    return sol


def _partition_from_plain_cut(inst, graph: DiGraph) -> CostlyCutSolution:
    # A plain min cut is blind to node charges, and its tie class can hold
    # partitions with very different true costs. Both canonical cuts fall
    # out of one max flow; score each with the node charges added post hoc
    # and keep the cheaper (the minimal source side on a tie).
    minimal, maximal = (
        _scored(inst, cut.side, cut.is_sink)
        for cut in min_cut_extremes(graph, inst.source, inst.sink)
    )
    return maximal if maximal.objective < minimal.objective else minimal


def _plain_graph(inst: CostlyCutInstance, fold: bool) -> DiGraph:
    """The scaled edge-only graph a heuristic cuts: edge costs alone, or with
    both endpoint charges folded into each edge."""
    costs = inst.costs
    if fold:
        p = inst.node_costs
        costs = [c + p[u] + p[v] for u, v, c in zip(*(end.tolist() for end in inst.ends), costs)]
    _, groups = scale_to_int(costs)
    return DiGraph.from_arrays(inst.node_count, *inst.ends, *_capacities(*groups))


def solve_ignore_nodes(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Baseline: min cut on edge costs alone; node charges are added after
    the fact, so the reported objective is the true cost of the partition
    this heuristic picks (not necessarily the optimum)."""
    return _partition_from_plain_cut(inst, _shared_graph(inst, _plain_graph, False))


def solve_fold_nodes(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Baseline: fold each node charge into every incident edge, then min cut.

    Reported objective is again the true cost of the selected partition.
    """
    return _partition_from_plain_cut(inst, _shared_graph(inst, _plain_graph, True))
