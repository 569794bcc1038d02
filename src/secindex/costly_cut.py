"""Min cut with costly nodes, solved exactly through an auxiliary graph.

The problem: partition the nodes of a directed graph into a source side and
a sink side, paying the cost of every edge crossing source -> sink plus a
one-time charge for every node incident to a crossing edge (tails on the
source side, heads on the sink side). The reduction triples each node i into
a chain w_i -> v_i -> z_i carrying the node charge, and protects the chain
with edges of cost strictly larger than any node charge, so a standard
integer min cut on the auxiliary graph yields the optimum; the partition of
the original nodes is read off the v layer.

Rational costs are scaled to integers by the LCM of their denominators
(``scale_to_int``, the package's one scaling helper), so optimality is
exact. A node may charge differently as the tail and as the head of a cut
edge (``TwoSidedCutInstance``); ``CostlyCutInstance`` exposes its single
charge through the same ``node_costs_out`` / ``node_costs_in`` pair, so
``solve`` and the exhaustive verifier ``solve_brute_force`` take either
flavor. The two classical approximations (dropping node charges, and
folding node charges into incident edges) report the true objective of
whatever partition they select.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantError, SizeLimitError
from .mincut import DiGraph, min_cut, min_cut_extremes

BRUTE_FORCE_MAX_NODES = 22
_BRUTE_CHUNK = 1 << 16


def as_cost(value) -> Fraction:
    """Coerce a cost to an exact nonnegative Fraction.

    Accepts int, Fraction, strings like "3/2" or "0.5", and floats (read as
    their decimal literal, so 0.1 becomes 1/10).
    """
    if isinstance(value, Fraction):
        cost = value
    elif isinstance(value, bool):
        raise InputError(f"cost must be a number, got {value!r}")
    elif isinstance(value, int):
        cost = Fraction(value)
    elif isinstance(value, float):
        cost = Fraction(str(value))
    elif isinstance(value, str):
        try:
            cost = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse cost {value!r}") from exc
    else:
        raise InputError(f"cost must be a number, got {value!r}")
    if cost < 0:
        raise InputError(f"costs must be nonnegative, got {cost}")
    return cost


def _check_structure(node_count, edges, source, sink):
    if node_count < 2:
        raise InputError("instance needs at least source and sink")
    for name, node in (("source", source), ("sink", sink)):
        if not (0 <= node < node_count):
            raise InputError(f"{name} id {node} out of range [0, {node_count})")
    if source == sink:
        raise InputError("source and sink must differ")
    for idx, (u, v, _) in enumerate(edges):
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise InputError(f"edge {idx}: node id out of range")
        if u == v:
            raise InputError(f"edge {idx}: self-loop at node {u}")


@dataclass(frozen=True)
class CostlyCutInstance:
    """A directed graph with edge costs, per-node charges, and two terminals."""

    node_count: int
    edges: tuple[tuple[int, int, Fraction], ...]
    node_costs: tuple[Fraction, ...]
    source: int
    sink: int
    symmetric: bool = False

    def __post_init__(self):
        edges = tuple((int(u), int(v), as_cost(c)) for (u, v, c) in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_costs", tuple(as_cost(p) for p in self.node_costs))
        if len(self.node_costs) != self.node_count:
            raise InputError(
                f"expected {self.node_count} node costs, got {len(self.node_costs)}"
            )
        _check_structure(self.node_count, edges, self.source, self.sink)
        if self.symmetric:
            forward = {}
            for u, v, c in edges:
                forward[(u, v)] = forward.get((u, v), Fraction(0)) + c
            for (u, v), c in forward.items():
                if forward.get((v, u)) != c:
                    raise InputError(
                        f"symmetric flag set but edge ({u},{v}) cost {c} has no mirror"
                    )

    @property
    def node_costs_out(self) -> tuple[Fraction, ...]:
        """Charge for a node at the tail of a cut edge: its one node cost."""
        return self.node_costs

    @property
    def node_costs_in(self) -> tuple[Fraction, ...]:
        """Charge for a node at the head of a cut edge: its one node cost."""
        return self.node_costs


@dataclass(frozen=True)
class TwoSidedCutInstance:
    """Costly-cut instance whose nodes charge differently for outgoing
    versus incoming cut edges."""

    node_count: int
    edges: tuple[tuple[int, int, Fraction], ...]
    node_costs_out: tuple[Fraction, ...]
    node_costs_in: tuple[Fraction, ...]
    source: int
    sink: int

    def __post_init__(self):
        edges = tuple((int(u), int(v), as_cost(c)) for (u, v, c) in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_costs_out", tuple(as_cost(p) for p in self.node_costs_out))
        object.__setattr__(self, "node_costs_in", tuple(as_cost(p) for p in self.node_costs_in))
        if len(self.node_costs_out) != self.node_count or len(self.node_costs_in) != self.node_count:
            raise InputError("node cost vectors must match node_count")
        _check_structure(self.node_count, edges, self.source, self.sink)


@dataclass(frozen=True)
class CostlyCutSolution:
    """A partition with its exact objective, crossing edges, and charged nodes."""

    source_side: frozenset[int]
    sink_side: frozenset[int]
    objective: Fraction
    cut_edges: tuple[int, ...]
    charged_nodes: frozenset[int]


@dataclass(frozen=True)
class AuxiliaryGraph:
    """The tripled graph, its node-id maps, and the cost scaling in effect."""

    graph: DiGraph
    v_of: tuple[int, ...]
    w_of: tuple[int, ...]
    z_of: tuple[int, ...]
    scale: int
    big_cost: int
    big_cost_edges: frozenset[int]


def scale_to_int(*groups):
    """Least common denominator of every Fraction in ``groups``, and each
    group multiplied by it as a list of ints."""
    scale = math.lcm(*(c.denominator for group in groups for c in group))
    return scale, [[c.numerator * (scale // c.denominator) for c in group] for group in groups]


def build_auxiliary(inst: CostlyCutInstance | TwoSidedCutInstance) -> AuxiliaryGraph:
    """Construct the tripled auxiliary graph for a costly-cut instance."""
    n = inst.node_count
    scale, (edge_scaled, p_out_scaled, p_in_scaled) = scale_to_int(
        [c for (_, _, c) in inst.edges], inst.node_costs_out, inst.node_costs_in
    )
    big = max(p_out_scaled + p_in_scaled) + 1

    v_of = tuple(range(n))
    w_of = tuple(n + i for i in range(n))
    z_of = tuple(2 * n + i for i in range(n))

    aux_edges = []
    for i in range(n):
        aux_edges.append((w_of[i], v_of[i], p_in_scaled[i]))
        aux_edges.append((v_of[i], z_of[i], p_out_scaled[i]))
    big_edges = set()
    for (u, v, _), c in zip(inst.edges, edge_scaled):
        aux_edges.append((v_of[u], v_of[v], c))
        big_edges.add(len(aux_edges))
        aux_edges.append((v_of[u], w_of[v], big))
        big_edges.add(len(aux_edges))
        aux_edges.append((z_of[u], v_of[v], big))

    graph = DiGraph(node_count=3 * n, edges=tuple(aux_edges))
    return AuxiliaryGraph(
        graph=graph,
        v_of=v_of,
        w_of=w_of,
        z_of=z_of,
        scale=scale,
        big_cost=big,
        big_cost_edges=frozenset(big_edges),
    )


def dump_auxiliary(aux: AuxiliaryGraph) -> str:
    """Line-oriented debug dump: node count, then one `from to capacity` per edge."""
    lines = [str(aux.graph.node_count)]
    lines.extend(f"{u} {v} {c}" for (u, v, c) in aux.graph.edges)
    return "\n".join(lines) + "\n"


def evaluate_partition(inst, source_side):
    """Exact objective of a partition: crossing edge costs plus one charge per
    node incident to a crossing edge. Works for both instance flavors."""
    side = frozenset(source_side)
    if inst.source not in side or inst.sink in side:
        raise InputError("source side must contain the source and exclude the sink")
    for node in side:
        if not (0 <= node < inst.node_count):
            raise InputError(f"node id {node} out of range")
    objective = Fraction(0)
    cut_edges = []
    charged = set()
    tails = set()
    heads = set()
    for idx, (u, v, c) in enumerate(inst.edges):
        if u in side and v not in side:
            cut_edges.append(idx)
            objective += c
            tails.add(u)
            heads.add(v)
    for u in tails:
        objective += inst.node_costs_out[u]
        charged.add(u)
    for v in heads:
        objective += inst.node_costs_in[v]
        charged.add(v)
    return objective, tuple(cut_edges), frozenset(charged)


def solve(inst: CostlyCutInstance | TwoSidedCutInstance) -> CostlyCutSolution:
    """Optimal costly-node cut via a single min cut on the auxiliary graph;
    takes either instance flavor."""
    aux = build_auxiliary(inst)
    cut = min_cut(aux.graph, aux.v_of[inst.source], aux.v_of[inst.sink])
    for e in cut.cut_edges:
        if e in aux.big_cost_edges:
            raise InvariantError("a protective big-cost edge appeared in the minimum cut")
    source_side = frozenset(i for i in range(inst.node_count) if aux.v_of[i] in cut.source_side)
    objective = Fraction(cut.value, aux.scale)
    recomputed, cut_edges, charged = evaluate_partition(inst, source_side)
    if recomputed != objective:
        raise InvariantError(
            f"partition objective {recomputed} disagrees with cut value {objective}"
        )
    return CostlyCutSolution(
        source_side=source_side,
        sink_side=frozenset(range(inst.node_count)) - source_side,
        objective=objective,
        cut_edges=cut_edges,
        charged_nodes=charged,
    )


def solve_brute_force(inst: CostlyCutInstance | TwoSidedCutInstance) -> CostlyCutSolution:
    """Exhaustive minimizer over all partitions of either instance flavor;
    ties favor the lexicographically smallest membership vector."""
    n = inst.node_count
    if n > BRUTE_FORCE_MAX_NODES:
        raise SizeLimitError(
            f"brute force refuses instances with more than {BRUTE_FORCE_MAX_NODES} nodes"
        )
    scale, scaled = scale_to_int(
        [c for (_, _, c) in inst.edges], inst.node_costs_out, inst.node_costs_in
    )
    edge_cost, pout, pin = (np.array(group, dtype=np.int64) for group in scaled)
    if int(edge_cost.sum()) + int(pout.sum()) + int(pin.sum()) >= 2**62:
        raise InputError("scaled costs too large for brute force")

    free = [i for i in range(n) if i not in (inst.source, inst.sink)]
    f = len(free)
    tails = np.array([u for (u, _, _) in inst.edges], dtype=np.int64)
    heads = np.array([v for (_, v, _) in inst.edges], dtype=np.int64)

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
        cut = member[:, tails] & ~member[:, heads] if len(inst.edges) else np.zeros((stop - start, 0), dtype=bool)
        values = cut @ edge_cost if len(inst.edges) else np.zeros(stop - start, dtype=np.int64)
        tail_hit = np.zeros((stop - start, n), dtype=bool)
        head_hit = np.zeros((stop - start, n), dtype=bool)
        for idx in range(len(inst.edges)):
            np.logical_or(tail_hit[:, tails[idx]], cut[:, idx], out=tail_hit[:, tails[idx]])
            np.logical_or(head_hit[:, heads[idx]], cut[:, idx], out=head_hit[:, heads[idx]])
        values = values + tail_hit @ pout + head_hit @ pin
        local = int(np.argmin(values))
        if best_val is None or values[local] < best_val:
            best_val = int(values[local])
            best_mask = start + local

    side = {inst.source}
    for j, node in enumerate(free):
        if (best_mask >> (f - 1 - j)) & 1:
            side.add(node)
    objective, cut_edges, charged = evaluate_partition(inst, side)
    if objective != Fraction(best_val, scale):
        raise InvariantError("brute-force objective recomputation mismatch")
    return CostlyCutSolution(
        source_side=frozenset(side),
        sink_side=frozenset(range(n)) - frozenset(side),
        objective=objective,
        cut_edges=cut_edges,
        charged_nodes=charged,
    )


def _partition_from_plain_cut(inst, graph: DiGraph) -> CostlyCutSolution:
    # A plain min cut is blind to node charges, and its tie class can hold
    # partitions with very different true costs. Both canonical cuts fall
    # out of one max flow; score each with the node charges added post hoc
    # and keep the cheaper (the minimal source side on a tie).
    minimal, maximal = min_cut_extremes(graph, inst.source, inst.sink)
    best = None
    for cut in (minimal, maximal):
        objective, cut_edges, charged = evaluate_partition(inst, cut.source_side)
        if best is None or objective < best.objective:
            best = CostlyCutSolution(
                source_side=cut.source_side,
                sink_side=cut.sink_side,
                objective=objective,
                cut_edges=cut_edges,
                charged_nodes=charged,
            )
    return best


def solve_ignore_nodes(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Baseline: min cut on edge costs alone; node charges are added after
    the fact, so the reported objective is the true cost of the partition
    this heuristic picks (not necessarily the optimum)."""
    _, (scaled,) = scale_to_int([c for (_, _, c) in inst.edges])
    graph = DiGraph(
        node_count=inst.node_count,
        edges=tuple((u, v, c) for (u, v, _), c in zip(inst.edges, scaled)),
    )
    return _partition_from_plain_cut(inst, graph)


def solve_fold_nodes(inst: CostlyCutInstance) -> CostlyCutSolution:
    """Baseline: fold each node charge into every incident edge, then min cut.

    Reported objective is again the true cost of the selected partition.
    """
    folded = [
        (u, v, c + inst.node_costs[u] + inst.node_costs[v]) for (u, v, c) in inst.edges
    ]
    _, (scaled,) = scale_to_int([c for (_, _, c) in folded])
    graph = DiGraph(
        node_count=inst.node_count,
        edges=tuple((u, v, c) for (u, v, _), c in zip(folded, scaled)),
    )
    return _partition_from_plain_cut(inst, graph)
