"""Security indices: how many measurements an attacker must touch.

The index of a measurement is the least total measurement cost of an
unobservable corruption whose support includes that measurement. For a flow
measurement this maps onto a costly-node cut between the line's endpoints
(every line carries its meter count as an undirected cost, every metered bus
a unit charge); for an injection measurement it is the minimum over the
bus's incident lines of the same edge-constrained problem. Weights default
to ``WeightAssignment.from_placement``. The decomposition is exact whenever
the binary restriction is, which ``binary_gap_bound`` certifies by reading 0:
no node charge exceeds the cost of any incident line (full measurement under
derived weights is one such case). Otherwise the answer is an upper
approximation and that bound caps its distance from the true continuous
optimum.

Two published heuristics are kept as baselines: dropping node charges from
the cut, and folding them into incident edge costs. Both report the true
objective of whatever partition they select.

The three methods share one case state (``_Case``): the weights, resolved
once, and the gap bound; one cut-instance family, whose auxiliary graph and
heuristic graphs are built once; and one attack per distinct carried side
and cut direction. ``index_all`` makes one for its one method; ``verify``
takes all three reports from one, so each distinct attack is built and
cross-checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import costly_cut
from .costly_cut import CostlyCutInstance, CostlyCutSolution
from .errors import InputError, InvariantError
from .mincut import as_id, interleave
from .oracle import attack_cost
from .power_model import (
    INJECTION,
    AttackVector,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    WeightAssignment,
    attack_from_partition,
    build_h,
    check_placement,
)

METHOD_EXACT = "exact"
METHOD_IGNORE_NODES = "ignore-nodes"
METHOD_FOLD_NODES = "fold-nodes"
# Solver per method, named rather than referenced: each engine looks it up in
# ``costly_cut`` when it is made, so a wrapper set on that module attribute
# runs.
_SOLVERS = {
    METHOD_EXACT: "solve",
    METHOD_IGNORE_NODES: "solve_ignore_nodes",
    METHOD_FOLD_NODES: "solve_fold_nodes",
}
METHODS = tuple(_SOLVERS)

_EXACT_REASON = "node costs never exceed incident edge costs"
_APPROXIMATE_REASON = "approximation bound applies"


@dataclass(frozen=True)
class IndexEntry:
    """One measurement's security index with its certified attack."""

    measurement: int  # position in the global measurement order
    kind: str
    target: int  # line id for flows, bus id for injections
    index: int | Fraction
    exact: bool
    exact_reason: str
    error_bound: int | Fraction | None
    method: str
    attack: AttackVector


@dataclass(frozen=True)
class IndexReport:
    entries: tuple[IndexEntry, ...]

    def indices(self) -> tuple[int | Fraction, ...]:
        return tuple(e.index for e in self.entries)

    def by_measurement(self) -> dict:
        return {(e.kind, e.target): e.index for e in self.entries}


def cut_instance_for_line(
    net: PowerNetwork, weights: WeightAssignment, line: int
) -> CostlyCutInstance:
    """Symmetric costly-cut instance whose terminals are the line's endpoints.

    Every line appears in both directions with its full cost (cutting it
    pays the cost once); unmetered lines stay in the graph with cost zero
    because cutting them still charges their endpoints. The instance is
    built from the network's endpoint arrays and the weights' costs, which
    ``WeightAssignment`` has already checked.
    """
    line = as_id(line, "line")
    if not (0 <= line < net.line_count):
        raise InputError(f"line id {line} out of range")
    weights.check(net)
    tails, heads = net.endpoints
    costs = [0] * (2 * net.line_count)
    costs[0::2] = costs[1::2] = weights.edge_costs
    # Edges 2i and 2i + 1 are line i's two directions, so a crossing edge
    # e is a cut of line e >> 1 (``_Case.attack_of`` reads the cut lines so).
    return CostlyCutInstance.from_arrays(
        node_count=net.bus_count,
        tails=interleave(tails, heads),
        heads=interleave(heads, tails),
        costs=costs,
        node_costs=weights.node_costs,
        source=int(tails[line]),
        sink=int(heads[line]),
    )


def binary_gap_bound(net: PowerNetwork, weights: WeightAssignment) -> int | Fraction:
    """Upper bound on the binary-minus-continuous optimum gap: per bus, the
    worst node charge left uncovered by some incident line cost. Each bus's
    cheapest incident line is found by array ops over the costs themselves,
    held where they all fit as int64 and else as Python objects, so ints
    and Fractions are compared and subtracted exactly."""
    weights.check(net)
    if net.line_count == 0:
        return 0
    line_cost, node_cost = _exact_array(weights.edge_costs), _exact_array(weights.node_costs)
    # every bus of a connected network with a line meets one: no run is empty
    lines, starts = net.adjacency
    cheapest = np.minimum.reduceat(line_cost[lines], starts[:-1])
    over = np.flatnonzero(node_cost > cheapest)
    return sum((node_cost[over] - cheapest[over]).tolist())


def _exact_array(costs):
    """``costs`` as an int64 array where numpy makes one of them, else as an
    object array: ints past 63 bits come out as uint64 or float64 arrays."""
    array = np.asarray(costs)
    return array if array.dtype == np.int64 else np.asarray(costs, dtype=object)


def exactness_condition(
    net: PowerNetwork, meas: MeasurementPlacement, weights: WeightAssignment
):
    """Whether the binary restriction (and hence the cut pipeline) is exact,
    and the reason: exact precisely when no node charge exceeds the cost of
    any of its incident lines, i.e. when the gap bound is zero."""
    check_placement(net, meas)
    if binary_gap_bound(net, weights) == 0:
        return True, _EXACT_REASON
    return False, _APPROXIMATE_REASON


class _Case:
    """The state of one (network, placement, weights) case that every
    method's engine shares: the resolved weights, the gap bound, the
    cut-instance family and the attacks. It lives as long as the call that
    makes it."""

    def __init__(self, net, meas, weights, model=None):
        check_placement(net, meas)
        self.weights = WeightAssignment.resolve(net, meas, weights)
        self.derived = weights is None or weights == WeightAssignment.from_placement(net, meas)
        self.net = net
        self.meas = meas
        self.model = model if model is not None else build_h(net, meas)
        self._attacks: dict[tuple[frozenset[int], bool], tuple[AttackVector, int | Fraction]] = {}
        self._instance: CostlyCutInstance | None = None

    @cached_property
    def bound(self) -> int | Fraction:
        """``binary_gap_bound`` of the case, computed on first read: only
        the exact method and ``verify``'s oracle sandwich read it."""
        return binary_gap_bound(self.net, self.weights)

    def report(self, method: str) -> IndexReport:
        """One index per measurement by ``method``, in the global
        measurement order."""
        engine = _Engine(self, method)
        return IndexReport(entries=tuple(map(engine.entry_for, range(self.meas.measurement_count))))

    def cut_instance(self, line: int) -> CostlyCutInstance:
        """``cut_instance_for_line(net, weights, line)``. The first call builds
        and validates it; later calls derive it from that one, sharing its
        edges, charges, integer scaling and the graph each method cuts. A
        line's ends are distinct buses of the checked network, so the
        derived instance's terminals need no check."""
        if self._instance is None:
            self._instance = cut_instance_for_line(self.net, self.weights, line)
        tails, heads, _ = self.net.columns
        return self._instance._between(tails[line], heads[line])

    def attack_of(self, sol: CostlyCutSolution):
        """The attack of the partition a line instance's solution ``sol``
        carries, and its structural cost, built once per distinct side and
        cut direction for every method's lines. The cut lines are read off
        the solution's crossing edges, edge e being a direction of line
        e >> 1 (``cut_instance_for_line``), and the attack and its cost
        check read only them. The witness guard does not take that list on
        trust: it reads H2 y from the moved buses' columns, so a cut line
        left out of it leaves a residual."""
        made = self._attacks.get((sol.side, sol.is_sink))
        if made is not None:
            return made
        cut = [e >> 1 for e in sol.cut_edges]
        # 1.0 on the source side, 0.0 on the sink side
        dtheta = np.full(self.net.bus_count, float(sol.is_sink))
        dtheta[list(sol.side)] = float(not sol.is_sink)
        attack = attack_from_partition(self.net, self.meas, dtheta, model=self.model, cut=cut)
        structural = attack_cost(
            self.net, self.weights.edge_costs, self.weights.node_costs, dtheta, cut
        )
        made = self._attacks[sol.side, sol.is_sink] = attack, structural
        return made


class _Engine:
    """One method's run on a shared ``_Case``: its solver, its line values,
    and the exactness it reports."""

    def __init__(self, case: _Case, method: str):
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
        self.case = case
        self.method = method
        self.solve = getattr(costly_cut, _SOLVERS[method])
        if method == METHOD_EXACT:
            self.bound = case.bound
            self.exact = self.bound == 0
            self.reason = _EXACT_REASON if self.exact else _APPROXIMATE_REASON
        else:
            self.exact, self.reason, self.bound = False, "heuristic method", None
        self._line_cache: dict[int, tuple[int | Fraction, AttackVector]] = {}

    def line_value(self, line: int):
        """Index value and attack for separating the endpoints of a line.
        Lines whose cuts carry the same side share one attack
        (``_Case.attack_of``)."""
        hit = self._line_cache.get(line)
        if hit is not None:
            return hit
        sol = self.solve(self.case.cut_instance(line))
        attack, structural = self.case.attack_of(sol)
        if structural != sol.objective:
            raise InvariantError(
                f"cut objective {sol.objective} disagrees with attack cost {structural}"
            )
        self._line_cache[line] = (sol.objective, attack)
        return self._line_cache[line]

    def node_value(self, bus: int):
        """Minimum over the bus's incident lines of the edge-constrained
        problem; any cut separating an incident line's endpoints flips the
        bus's injection, so the target constraint holds automatically."""
        incident = self.case.net.incident_lines(bus)
        if not incident:
            raise InputError(f"bus {bus} has no incident lines")
        best = None
        for line in incident:
            value, attack = self.line_value(line)
            if best is None or value < best[0]:
                best = (value, attack)
        return best

    def entry_for(self, k: int) -> IndexEntry:
        """The entry of measurement ``k`` in the global measurement order."""
        kind, target = self.case.meas.label(k)
        if kind == INJECTION:
            value, attack = self.node_value(target)
        else:
            value, attack = self.line_value(target)
        if k not in attack.support:
            raise InvariantError(
                f"attack for measurement {k} does not touch its own target"
            )
        if self.case.derived and value < 1:
            raise InvariantError("index below 1 under derived weights")
        return IndexEntry(
            measurement=k,
            kind=kind,
            target=target,
            index=value,
            exact=self.exact,
            exact_reason=self.reason,
            error_bound=self.bound,
            method=self.method,
            attack=attack,
        )


def index_target(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights: WeightAssignment | None,
    k: int,
    method: str = METHOD_EXACT,
    model: ModelMatrix | None = None,
) -> IndexEntry:
    """Security index of measurement ``k`` alone, ``k`` its 0-based position
    in the global measurement order (``meas.index_of`` maps a metered
    (kind, id) there); a NumPy integer is read as its int, and a bool or a
    float is refused."""
    k = as_id(k, "measurement")
    count = meas.measurement_count
    if not (0 <= k < count):
        raise InputError(f"measurement {k} out of range 0..{count - 1}")
    return _Engine(_Case(net, meas, weights, model), method).entry_for(k)


def index_all(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights: WeightAssignment | None = None,
    method: str = METHOD_EXACT,
    model: ModelMatrix | None = None,
) -> IndexReport:
    """One index per measurement, in the global measurement order."""
    return _Case(net, meas, weights, model).report(method)


def baseline_ignore_nodes(net, meas, weights=None, model=None) -> IndexReport:
    return index_all(net, meas, weights, method=METHOD_IGNORE_NODES, model=model)


def baseline_fold_nodes(net, meas, weights=None, model=None) -> IndexReport:
    return index_all(net, meas, weights, method=METHOD_FOLD_NODES, model=model)
