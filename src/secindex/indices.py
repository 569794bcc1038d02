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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import costly_cut
from .costly_cut import CostlyCutInstance
from .errors import InputError, InvariantError
from .oracle import attack_cost
from .power_model import (
    FLOW_FROM,
    FLOW_TO,
    INJECTION,
    ZERO_TOL,
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
# Solver per method, named rather than referenced: it is looked up in
# ``costly_cut`` at call time, so a wrapper set on that module attribute runs.
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
    index: Fraction
    exact: bool
    exact_reason: str
    error_bound: Fraction | None
    method: str
    attack: AttackVector


@dataclass(frozen=True)
class IndexReport:
    entries: tuple[IndexEntry, ...]

    def indices(self) -> tuple[Fraction, ...]:
        return tuple(e.index for e in self.entries)

    def by_measurement(self) -> dict:
        return {(e.kind, e.target): e.index for e in self.entries}


def cut_instance_for_line(
    net: PowerNetwork, weights: WeightAssignment, line: int
) -> CostlyCutInstance:
    """Symmetric costly-cut instance whose terminals are the line's endpoints.

    Every line appears in both directions with its full cost (cutting it
    pays the cost once); unmetered lines stay in the graph with cost zero
    because cutting them still charges their endpoints.
    """
    if not (0 <= line < net.line_count):
        raise InputError(f"line id {line} out of range")
    edges = []
    for (u, v, _), c in zip(net.lines, weights.edge_costs):
        edges.append((u, v, c))
        edges.append((v, u, c))
    u, v, _ = net.lines[line]
    return CostlyCutInstance(
        node_count=net.bus_count,
        edges=tuple(edges),
        node_costs=weights.node_costs,
        source=u,
        sink=v,
        symmetric=True,
    )


def binary_gap_bound(net: PowerNetwork, weights: WeightAssignment) -> Fraction:
    """Upper bound on the binary-minus-continuous optimum gap: per bus, the
    worst node charge left uncovered by some incident line cost."""
    weights.check(net)
    total = Fraction(0)
    for bus in range(net.bus_count):
        incident = net.incident_lines(bus)
        if not incident:
            continue
        worst = weights.node_costs[bus] - min(weights.edge_costs[ln] for ln in incident)
        if worst > 0:
            total += worst
    return total


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


class _Engine:
    """Shared state for one (network, placement, weights, method) run."""

    def __init__(self, net, meas, weights, method, model=None):
        check_placement(net, meas)
        self.weights = WeightAssignment.resolve(net, meas, weights)
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}; expected one of {METHODS}")
        self._derived = weights is None or weights == WeightAssignment.from_placement(net, meas)
        self.net = net
        self.meas = meas
        self.ordering = meas.ordering()
        self.method = method
        self.model = model if model is not None else build_h(net, meas)
        if method == METHOD_EXACT:
            self.bound = binary_gap_bound(net, self.weights)
            self.exact = self.bound == 0
            self.reason = _EXACT_REASON if self.exact else _APPROXIMATE_REASON
        else:
            self.exact, self.reason, self.bound = False, "heuristic method", None
        self._line_cache: dict[int, tuple[Fraction, AttackVector]] = {}

    def line_value(self, line: int):
        """Index value and attack for separating the endpoints of a line."""
        hit = self._line_cache.get(line)
        if hit is not None:
            return hit
        inst = cut_instance_for_line(self.net, self.weights, line)
        sol = getattr(costly_cut, _SOLVERS[self.method])(inst)
        dtheta = np.zeros(self.net.bus_count)
        for bus in sol.source_side:
            dtheta[bus] = 1.0
        attack = attack_from_partition(self.net, self.meas, dtheta, model=self.model)
        structural = attack_cost(
            self.net, self.weights.edge_costs, self.weights.node_costs, dtheta
        )
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
        incident = self.net.incident_lines(bus)
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
        kind, target = self.ordering[k]
        if kind == INJECTION:
            value, attack = self.node_value(target)
        else:
            value, attack = self.line_value(target)
        if abs(attack.delta_z[k]) <= ZERO_TOL:
            raise InvariantError(
                f"attack for measurement {k} does not touch its own target"
            )
        if self._derived and value < 1:
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


def index_edge_target(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights: WeightAssignment | None,
    line: int,
    end: str = FLOW_FROM,
    method: str = METHOD_EXACT,
    model: ModelMatrix | None = None,
) -> IndexEntry:
    """Security index of a single flow measurement (given line and end)."""
    if end not in (FLOW_FROM, FLOW_TO):
        raise InputError(f"end must be {FLOW_FROM!r} or {FLOW_TO!r}")
    metered = meas.flow_from if end == FLOW_FROM else meas.flow_to
    if line not in metered:
        raise InputError(f"line {line} is not metered at the {end} end")
    engine = _Engine(net, meas, weights, method, model)
    return engine.entry_for(meas.index_of(end, line))


def index_node_target(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights: WeightAssignment | None,
    bus: int,
    method: str = METHOD_EXACT,
    model: ModelMatrix | None = None,
) -> IndexEntry:
    """Security index of a single injection measurement."""
    if bus not in meas.injection:
        raise InputError(f"bus {bus} has no injection measurement")
    engine = _Engine(net, meas, weights, method, model)
    return engine.entry_for(meas.index_of(INJECTION, bus))


def index_all(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights: WeightAssignment | None = None,
    method: str = METHOD_EXACT,
    model: ModelMatrix | None = None,
) -> IndexReport:
    """One index per measurement, in the global measurement order."""
    engine = _Engine(net, meas, weights, method, model)
    return IndexReport(entries=tuple(map(engine.entry_for, range(meas.measurement_count))))


def baseline_ignore_nodes(net, meas, weights=None, model=None) -> IndexReport:
    return index_all(net, meas, weights, method=METHOD_IGNORE_NODES, model=model)


def baseline_fold_nodes(net, meas, weights=None, model=None) -> IndexReport:
    return index_all(net, meas, weights, method=METHOD_FOLD_NODES, model=model)
