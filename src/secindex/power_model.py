"""DC power-flow measurement model and unobservable-attack machinery.

A network is a connected graph of buses and transmission lines with positive
reactances. A measurement placement selects line power flows (metered at the
outgoing or incoming end) and bus power injections; stacking those rows in a
fixed global order yields the measurement matrix mapping bus phase angles to
measured values. Attack weights price each line and bus; a placement
derives them as meter counts and injection indicators. Least-squares estimation against that matrix, with the
first bus as the phase reference, drives the bad-data-detection residual.

Any angle perturbation pushed through the measurement matrix produces a
measurement corruption with zero residual, since it lies in the matrix's
column space; this module constructs such corruptions from binary bus
partitions and verifies their residuals. It also builds the hardness gadget
that encodes positive one-in-three 3SAT instances as measurement systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .costly_cut import as_cost
from .errors import EstimationError, InputError, InvariantError

ZERO_TOL = 1e-9
RESIDUAL_TOL = 1e-9

FLOW_FROM = "flow_from"
FLOW_TO = "flow_to"
INJECTION = "injection"


@dataclass(frozen=True)
class PowerNetwork:
    """Bus/line topology with per-line reactances.

    Buses are 0-based; each line is (from_bus, to_bus, reactance) with
    reactance strictly positive. Parallel lines are allowed, self-loops are
    not, and the network must be connected as an undirected graph.
    """

    bus_count: int
    lines: tuple[tuple[int, int, float], ...]
    _incident: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bus_count < 1:
            raise InputError("bus_count must be positive")
        normalized = []
        incident = [[] for _ in range(self.bus_count)]
        for idx, (u, v, x) in enumerate(self.lines):
            u, v, x = int(u), int(v), float(x)
            if not (0 <= u < self.bus_count and 0 <= v < self.bus_count):
                raise InputError(f"line {idx}: bus id out of range")
            if u == v:
                raise InputError(f"line {idx}: self-loop at bus {u}")
            if not x > 0:
                raise InputError(f"line {idx}: reactance must be positive, got {x}")
            normalized.append((u, v, x))
            incident[u].append(idx)
            incident[v].append(idx)
        object.__setattr__(self, "lines", tuple(normalized))
        object.__setattr__(self, "_incident", tuple(tuple(ids) for ids in incident))
        if self.bus_count > 1 and not self._connected():
            raise InputError("network is not connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            bus = stack.pop()
            for idx in self._incident[bus]:
                u, v, _ = self.lines[idx]
                other = v if u == bus else u
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == self.bus_count

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def incident_lines(self, bus: int) -> tuple[int, ...]:
        """Ids of the lines at ``bus`` in ascending order, parallel lines
        each listed."""
        return self._incident[bus]

    def incidence(self) -> np.ndarray:
        """Directed incidence matrix: one column per line, +1 at the from bus
        and -1 at the to bus."""
        a = np.zeros((self.bus_count, self.line_count))
        for idx, (u, v, _) in enumerate(self.lines):
            a[u, idx] = 1.0
            a[v, idx] = -1.0
        return a

    def susceptances(self) -> np.ndarray:
        """Reciprocal reactances, one per line."""
        return np.array([1.0 / x for (_, _, x) in self.lines])


@dataclass(frozen=True)
class MeasurementPlacement:
    """Which flow ends and injections are metered.

    The global measurement order is all flow_from rows by ascending line id,
    then flow_to rows, then injection rows by ascending bus id; that order
    defines the measurement index used everywhere else.
    """

    flow_from: tuple[int, ...] = ()
    flow_to: tuple[int, ...] = ()
    injection: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("flow_from", "flow_to", "injection"):
            ids = tuple(sorted({int(i) for i in getattr(self, name)}))
            if any(i < 0 for i in ids):
                raise InputError(f"{name}: negative id")
            object.__setattr__(self, name, ids)

    def ordering(self) -> tuple[tuple[str, int], ...]:
        return (
            tuple((FLOW_FROM, i) for i in self.flow_from)
            + tuple((FLOW_TO, i) for i in self.flow_to)
            + tuple((INJECTION, i) for i in self.injection)
        )

    @property
    def measurement_count(self) -> int:
        return len(self.flow_from) + len(self.flow_to) + len(self.injection)

    def index_of(self, kind: str, ident: int) -> int:
        try:
            return self.ordering().index((kind, ident))
        except ValueError:
            raise InputError(f"measurement ({kind}, {ident}) not in placement") from None


def full_measurement(net: PowerNetwork) -> MeasurementPlacement:
    """Every line metered at both ends and every injection metered."""
    all_lines = tuple(range(net.line_count))
    return MeasurementPlacement(
        flow_from=all_lines, flow_to=all_lines, injection=tuple(range(net.bus_count))
    )


def check_placement(net: PowerNetwork, meas: MeasurementPlacement) -> None:
    for line in meas.flow_from + meas.flow_to:
        if not (0 <= line < net.line_count):
            raise InputError(f"metered line id {line} out of range")
    for bus in meas.injection:
        if not (0 <= bus < net.bus_count):
            raise InputError(f"metered bus id {bus} out of range")


@dataclass(frozen=True)
class WeightAssignment:
    """Attack cost per line and per bus.

    Derived weights (meter count per line, indicator per metered bus) make
    the weighted objective coincide with support cardinality; custom weights
    price tampering effort instead.
    """

    edge_costs: tuple[Fraction, ...]
    node_costs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_costs", tuple(as_cost(c) for c in self.edge_costs))
        object.__setattr__(self, "node_costs", tuple(as_cost(p) for p in self.node_costs))

    @classmethod
    def from_placement(cls, net: PowerNetwork, meas: MeasurementPlacement) -> "WeightAssignment":
        """The derived weights of a placement."""
        check_placement(net, meas)
        c = [0] * net.line_count
        for line in meas.flow_from + meas.flow_to:
            c[line] += 1
        p = [0] * net.bus_count
        for bus in meas.injection:
            p[bus] = 1
        return cls(edge_costs=c, node_costs=p)

    @classmethod
    def resolve(cls, net: PowerNetwork, meas: MeasurementPlacement, weights) -> "WeightAssignment":
        """``weights`` checked against the network; the placement's derived
        weights when ``weights`` is None."""
        if weights is None:
            weights = cls.from_placement(net, meas)
        weights.check(net)
        return weights

    def check(self, net: PowerNetwork) -> None:
        if len(self.edge_costs) != net.line_count or len(self.node_costs) != net.bus_count:
            raise InputError("weight vectors must match line and bus counts")


class ModelMatrix:
    """Dense measurement matrix with row labels in the global order."""

    def __init__(self, h: np.ndarray, labels, bus_count: int):
        self.h = h
        self.labels = tuple(labels)
        self.bus_count = bus_count
        self._range_basis = None

    @property
    def measurement_count(self) -> int:
        return self.h.shape[0]

    def reduced(self) -> np.ndarray:
        """The matrix with the reference-bus column removed."""
        return self.h[:, 1:]

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the column space of the reduced matrix."""
        if self._range_basis is None:
            h2 = self.reduced()
            if h2.size == 0:
                self._range_basis = np.zeros((h2.shape[0], 0))
            else:
                u, s, _ = np.linalg.svd(h2, full_matrices=False)
                cutoff = max(h2.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
                self._range_basis = u[:, s > cutoff]
        return self._range_basis


def build_h(net: PowerNetwork, meas: MeasurementPlacement) -> ModelMatrix:
    """Assemble the measurement matrix: flow rows are +-1/x at the line ends
    (negated for the incoming end), injection rows are weighted Laplacian rows.
    """
    check_placement(net, meas)
    labels = meas.ordering()
    h = np.zeros((len(labels), net.bus_count))
    for r, (kind, ident) in enumerate(labels):
        if kind == FLOW_FROM or kind == FLOW_TO:
            u, v, x = net.lines[ident]
            sign = 1.0 if kind == FLOW_FROM else -1.0
            h[r, u] += sign / x
            h[r, v] -= sign / x
        else:
            for u, v, x in (net.lines[i] for i in net.incident_lines(ident)):
                other = v if u == ident else u
                h[r, ident] += 1.0 / x
                h[r, other] -= 1.0 / x
    if h.size and np.abs(h.sum(axis=1)).max() > ZERO_TOL:
        raise InvariantError("measurement matrix rows do not sum to zero")
    return ModelMatrix(h, labels, net.bus_count)


def is_observable(model: ModelMatrix) -> bool:
    """Redundant observability: rank stays at bus_count - 1 after deleting
    any single column."""
    if model.measurement_count == 0:
        raise InputError("observability of an empty measurement set is undefined")
    n = model.bus_count - 1
    for j in range(model.bus_count):
        sub = np.delete(model.h, j, axis=1)
        if np.linalg.matrix_rank(sub, tol=1e-9) != n:
            return False
    return True


def estimate(model: ModelMatrix, z: np.ndarray, weights: np.ndarray | None = None):
    """Weighted least-squares state estimate and its residual.

    Returns (theta_hat, residual) where theta_hat has the reference entry
    pinned to zero. Requires the reduced matrix to have full column rank.
    """
    h2 = model.reduced()
    z = np.asarray(z, dtype=float)
    if z.shape != (model.measurement_count,):
        raise InputError("measurement vector has wrong length")
    if weights is None:
        w = np.ones(model.measurement_count)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (model.measurement_count,) or np.any(w <= 0):
            raise InputError("weights must be positive, one per measurement")
    normal = h2.T @ (w[:, None] * h2)
    rhs = h2.T @ (w * z)
    try:
        theta2 = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"singular normal equations (rank {np.linalg.matrix_rank(h2)}, "
            f"need {h2.shape[1]}); is the placement observable?"
        ) from exc
    theta = np.concatenate(([0.0], theta2))
    residual = z - h2 @ theta2
    return theta, residual


def hat_matrix(model: ModelMatrix, weights: np.ndarray | None = None) -> np.ndarray:
    """Projection from measurements to estimated measurements."""
    h2 = model.reduced()
    if weights is None:
        w = np.ones(model.measurement_count)
    else:
        w = np.asarray(weights, dtype=float)
    normal = h2.T @ (w[:, None] * h2)
    try:
        inv = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular normal equations in hat matrix") from exc
    return h2 @ inv @ h2.T @ np.diag(w)


def bdd_residual(model: ModelMatrix, delta_z: np.ndarray) -> np.ndarray:
    """Bad-data-detection residual of a measurement corruption under unit
    weights: the component of delta_z outside the model's column space."""
    q = model.range_basis()
    delta_z = np.asarray(delta_z, dtype=float)
    return delta_z - q @ (q.T @ delta_z)


@dataclass(frozen=True)
class AttackVector:
    """An unobservable corruption: angle shift, measurement shift, support."""

    delta_theta: np.ndarray
    delta_z: np.ndarray
    support: tuple[int, ...]
    residual_inf: float


def attack_from_partition(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    delta_theta,
    model: ModelMatrix | None = None,
) -> AttackVector:
    """Turn a binary bus partition into a verified unobservable attack.

    The residual check failing signals an internal bug (the corruption is in
    the column space by construction), so it raises InvariantError.
    """
    dtheta = np.asarray(delta_theta, dtype=float)
    if dtheta.shape != (net.bus_count,):
        raise InputError("delta_theta must have one entry per bus")
    if not np.all((dtheta == 0.0) | (dtheta == 1.0)):
        raise InputError("delta_theta must be a 0/1 vector")
    if model is None:
        model = build_h(net, meas)
    delta_z = model.h @ dtheta
    support = tuple(int(i) for i in np.flatnonzero(np.abs(delta_z) > ZERO_TOL))
    residual_inf = float(np.abs(bdd_residual(model, delta_z)).max()) if len(delta_z) else 0.0
    if residual_inf > RESIDUAL_TOL:
        raise InvariantError(
            f"attack residual {residual_inf:g} exceeds {RESIDUAL_TOL:g}"
        )
    return AttackVector(
        delta_theta=dtheta, delta_z=delta_z, support=support, residual_inf=residual_inf
    )


@dataclass(frozen=True)
class Gadget3Sat:
    """A measurement system encoding a positive one-in-three 3SAT instance.

    The target measurement is the metered flow on the line between the
    anchor buses holding values one and zero. The instance is satisfiable
    exactly when the sparsest attack including the target touches
    n_vars + 1 measurements; any unsatisfiable instance forces strictly
    more.
    """

    net: PowerNetwork
    meas: MeasurementPlacement
    target: int
    one_bus: int
    zero_bus: int
    two_thirds_bus: int
    one_third_bus: int
    variable_buses: tuple[int, ...]
    clause_buses: tuple[int, ...]
    clauses: tuple[tuple[int, int, int], ...]


def build_3sat_gadget(clauses, n_vars: int) -> Gadget3Sat:
    """Build the hardness gadget for a positive one-in-three 3SAT instance.

    Clauses are triples of 1-based variable indices. Unit reactances
    throughout; no incoming-end flow meters.
    """
    if n_vars < 1:
        raise InputError("need at least one variable")
    normalized = []
    for j, clause in enumerate(clauses):
        triple = tuple(int(i) for i in clause)
        if len(triple) != 3:
            raise InputError(f"clause {j}: expected a triple, got {clause!r}")
        for i in triple:
            if not (1 <= i <= n_vars):
                raise InputError(f"clause {j}: variable {i} out of range 1..{n_vars}")
        normalized.append(triple)

    one, zero, two_thirds, one_third = 0, 1, 2, 3
    var_bus = tuple(4 + i for i in range(n_vars))
    clause_bus = tuple(4 + n_vars + j for j in range(len(normalized)))

    lines = [(one, zero, 1.0)]
    metered_lines = [0]
    for xb in var_bus:
        metered_lines.append(len(lines))
        lines.append((one, xb, 1.0))
        metered_lines.append(len(lines))
        lines.append((zero, xb, 1.0))
    lines.append((one, two_thirds, 1.0))
    lines.append((two_thirds, one_third, 1.0))
    lines.append((one_third, zero, 1.0))
    for j, cb in enumerate(clause_bus):
        metered_lines.append(len(lines))
        lines.append((one_third, cb, 1.0))
        a, b, c = normalized[j]
        lines.append((cb, var_bus[a - 1], 1.0))
        lines.append((cb, var_bus[b - 1], 1.0))
        lines.append((cb, var_bus[c - 1], 1.0))

    net = PowerNetwork(bus_count=4 + n_vars + len(normalized), lines=tuple(lines))
    meas = MeasurementPlacement(
        flow_from=tuple(metered_lines),
        flow_to=(),
        injection=(two_thirds, one_third) + clause_bus,
    )
    target = meas.index_of(FLOW_FROM, 0)
    return Gadget3Sat(
        net=net,
        meas=meas,
        target=target,
        one_bus=one,
        zero_bus=zero,
        two_thirds_bus=two_thirds,
        one_third_bus=one_third,
        variable_buses=var_bus,
        clause_buses=clause_bus,
        clauses=tuple(normalized),
    )


def gadget_assignment_dtheta(gadget: Gadget3Sat, assignment) -> np.ndarray:
    """The canonical angle perturbation induced by a variable assignment:
    anchors at 1 and 0, the reference chain at 2/3 and 1/3, clause buses at
    1/3, variable buses at their assigned bits."""
    bits = tuple(int(b) for b in assignment)
    if len(bits) != len(gadget.variable_buses) or any(b not in (0, 1) for b in bits):
        raise InputError("assignment must be one bit per variable")
    dtheta = np.zeros(gadget.net.bus_count)
    dtheta[gadget.one_bus] = 1.0
    dtheta[gadget.zero_bus] = 0.0
    dtheta[gadget.two_thirds_bus] = 2.0 / 3.0
    dtheta[gadget.one_third_bus] = 1.0 / 3.0
    for cb in gadget.clause_buses:
        dtheta[cb] = 1.0 / 3.0
    for xb, bit in zip(gadget.variable_buses, bits):
        dtheta[xb] = float(bit)
    return dtheta
