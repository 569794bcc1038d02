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

A network holds its lines as arrays (``PowerNetwork.arrays``), validated in
one vectorized pass, with connectivity decided over the lines by
``mincut.connected``; its line triples are built only when read, and the
lines at each bus come from one stable sort (``PowerNetwork.adjacency``).
A placement keeps its id groups as tuples and, built once on first read,
as arrays (``MeasurementPlacement.id_arrays``), which ``build_h``, the
derived weights and the case readers' injection check read. A placement
reads a measurement's label by position (``MeasurementPlacement.label``)
and builds ``ordering()``, the one whole label order, only for a caller
that reads it whole; derived weights come from a ``bincount``. The measurement matrix (``ModelMatrix``) is its term table
and its row count, built from a placement by ``build_h``, with the terms
of each line and the lines at each bus as indexes; it holds no labels. An
attack reads only the terms of its cut lines and of the lines at the buses
its witness moves; ``cut_lines`` finds the cut lines of a dense shift.
``estimate`` and ``hat_matrix`` read their normal equations from one
builder, and ``bdd_residual`` projects on the matrix's SVD basis.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .costly_cut import as_cost
from .errors import EstimationError, InputError, InvariantError
from .mincut import (as_count, as_id, connected, first_failure, gather, id_array, interleave,
                     read_triples, rows_by, view_on_first_read)

ZERO_TOL = 1e-9
RESIDUAL_TOL = 1e-9

FLOW_FROM = "flow_from"
FLOW_TO = "flow_to"
INJECTION = "injection"


@dataclass(frozen=True)
class PowerNetwork:
    """Bus/line topology with per-line reactances.

    Buses are 0-based; each line is (from_bus, to_bus, reactance) with
    reactance x positive and finite, and its susceptance 1/x finite too (x
    above 2**-1024). Parallel lines are allowed, self-loops are not, and the
    network must be connected as an undirected graph.
    ``PowerNetwork(bus_count, lines)`` takes the lines as triples
    (``mincut.read_triples``: bus ids by ``as_id``, reactances through
    ``float``), kept with Python int ids;
    ``PowerNetwork.from_arrays`` takes them as three arrays and builds
    ``lines`` on first read. Either way the lines are held as the arrays
    ``arrays`` (from buses, to buses, reactances) and validated there, by
    ``__post_init__``, one vectorized check per failure kind. The case
    readers of ``caseio``, which read their files as UTF-8 text, build
    their networks through ``from_arrays``, so a file's lines meet the
    same checks.
    """

    bus_count: int
    lines: tuple[tuple[int, int, float], ...]

    @classmethod
    def from_arrays(cls, bus_count: int, tails, heads, reactances) -> PowerNetwork:
        """The network whose line i runs ``tails[i] - heads[i]`` with
        reactance ``reactances[i]``: integer bus ids and float reactances,
        converted to arrays that the network keeps and nothing may write to;
        id arrays of another dtype are refused (``id_array``)."""
        net = cls.__new__(cls)
        object.__setattr__(net, "bus_count", bus_count)
        ends = id_array(tails, "bus"), id_array(heads, "bus")
        object.__setattr__(net, "arrays", (*ends, reactances))
        net.__post_init__()
        return net

    def __post_init__(self):
        n = as_count(self.bus_count, "bus_count")
        if n < 1:
            raise InputError("bus_count must be positive")
        object.__setattr__(self, "bus_count", n)
        built = "arrays" in vars(self)
        if n > len(self.arrays[0] if built else self.lines) + 1:  # fewer lines than a spanning tree
            raise InputError("network is not connected")
        if built:
            columns, error = self.arrays, None
        else:
            *columns, error = read_triples(self.lines, n, "line", "bus", float)
            object.__setattr__(self, "lines", tuple(zip(*columns)))
        tails, heads = (np.asarray(ends, dtype=np.intp) for ends in columns[:2])
        x = np.asarray(columns[2], dtype=float)
        object.__setattr__(self, "arrays", (tails, heads, x))
        with np.errstate(divide="ignore", over="ignore"):
            susceptance = 1.0 / x
        failure = first_failure(n, tails, heads, ~((x > 0) & (x < np.inf)), np.isinf(susceptance))
        if failure is not None:
            idx, check = failure
            raise InputError(
                f"line {idx}: " + _LINE_CHECKS[check].format(u=int(tails[idx]), x=float(x[idx]))
            )
        if error is not None:
            raise error
        if n > 1 and not connected(n, tails, heads):
            raise InputError("network is not connected")

    def __getattr__(self, name):
        # Only reached for attributes not set: ``lines`` of a network built
        # from arrays, made on first read.
        return view_on_first_read(self, name, "lines", lambda net: tuple(zip(*net.columns)))

    @cached_property
    def columns(self) -> tuple[list[int], list[int], list[float]]:
        """``arrays`` as three lists, which per-line Python loops index
        fastest; built on first read."""
        return tuple(a.tolist() for a in self.arrays)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lines, starts)``, the lines by bus: the ids of the lines at
        bus b, ascending and parallel lines each listed, are
        ``lines[starts[b]:starts[b + 1]]``. Built by one stable sort of the
        lines' ends (``rows_by``), end 2i being line i's from bus and end
        2i + 1 its to bus."""
        order, starts = rows_by(interleave(*self.arrays[:2]), self.bus_count)
        return order >> 1, starts

    @property
    def line_count(self) -> int:
        return len(self.arrays[0])

    def incident_lines(self, bus: int) -> tuple[int, ...]:
        """Ids of the lines at ``bus`` in ascending order, parallel lines
        each listed: bus ``bus``'s run of ``adjacency``, read alone."""
        lines, starts = self.adjacency
        return tuple(lines[starts[bus]:starts[bus + 1]].tolist())

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The lines' from buses and to buses, as two index arrays."""
        return self.arrays[:2]

    def incidence(self) -> np.ndarray:
        """Directed incidence matrix: one column per line, +1 at the from bus
        and -1 at the to bus."""
        tails, heads = self.endpoints
        a = np.zeros((self.bus_count, self.line_count))
        ids = np.arange(self.line_count)
        a[tails, ids] = 1.0
        a[heads, ids] = -1.0
        return a

    def susceptances(self) -> np.ndarray:
        """Reciprocal reactances, one per line."""
        return 1.0 / self.arrays[2]


# What a line that fails each check of ``PowerNetwork.__post_init__`` is
# told, in the order the checks are made.
_LINE_CHECKS = (
    "bus id out of range",
    "self-loop at bus {u}",
    "reactance must be positive and finite, got {x}",
    "reactance {x} is too small: its susceptance 1/x overflows",
)


@dataclass(frozen=True)
class MeasurementPlacement:
    """Which flow ends and injections are metered.

    The global measurement order is all flow_from rows by ascending line id,
    then flow_to rows, then injection rows by ascending bus id; that order
    defines the measurement index used everywhere else. Each id group is
    kept sorted and without repeats; a ``range`` already is, and is taken
    as it stands. Every other id is taken as an integer, a NumPy integer
    included; a bool or a non-integer is refused, never truncated.
    """

    flow_from: tuple[int, ...] = ()
    flow_to: tuple[int, ...] = ()
    injection: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("flow_from", "flow_to", "injection"):
            ids = getattr(self, name)
            if not (isinstance(ids, range) and ids.step > 0):
                ids = sorted({as_id(i, name) for i in ids})
            ids = tuple(ids)
            if ids and ids[0] < 0:
                raise InputError(f"{name}: negative id")
            object.__setattr__(self, name, ids)

    def ordering(self) -> tuple[tuple[str, int], ...]:
        """The (kind, id) labels in the global order, built on the first
        call and kept; ``label`` reads one of them without it."""
        return self._labels

    @cached_property
    def _labels(self) -> tuple[tuple[str, int], ...]:
        return tuple(chain.from_iterable(zip(repeat(kind), ids) for kind, ids in self._groups()))

    def _groups(self):
        return (FLOW_FROM, self.flow_from), (FLOW_TO, self.flow_to), (INJECTION, self.injection)

    @cached_property
    def id_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The id groups flow_from, flow_to and injection as intp arrays,
        built on first read and shared by every reader. A group is sorted
        and without repeats, so one whose ends lie len - 1 apart is their
        whole range, made without reading its ids."""
        return tuple(
            np.arange(ids[0], ids[-1] + 1, dtype=np.intp)
            if ids and ids[-1] - ids[0] == len(ids) - 1
            else np.array(ids, dtype=np.intp)
            for _, ids in self._groups()
        )

    @property
    def measurement_count(self) -> int:
        return len(self.flow_from) + len(self.flow_to) + len(self.injection)

    def label(self, k: int) -> tuple[str, int]:
        """The (kind, id) label of measurement ``k``, 0 <= k <
        ``measurement_count``, in the global order, read by position."""
        if k >= 0:
            if k < len(self.flow_from):
                return FLOW_FROM, self.flow_from[k]
            k -= len(self.flow_from)
            if k < len(self.flow_to):
                return FLOW_TO, self.flow_to[k]
            k -= len(self.flow_to)
            if k < len(self.injection):
                return INJECTION, self.injection[k]
        raise IndexError("measurement position out of range")

    def index_of(self, kind: str, ident: int) -> int:
        """The position of measurement (kind, ident) in the global order,
        found by bisection in its sorted id group."""
        offset = 0
        for name, ids in self._groups():
            if name == kind:
                try:
                    pos = bisect_left(ids, ident)
                except TypeError:
                    break
                if pos < len(ids) and ids[pos] == ident:
                    return offset + pos
                break
            offset += len(ids)
        raise InputError(f"measurement ({kind}, {ident}) not in placement")


def full_measurement(net: PowerNetwork) -> MeasurementPlacement:
    """Every line metered at both ends and every injection metered."""
    all_lines = range(net.line_count)
    return MeasurementPlacement(
        flow_from=all_lines, flow_to=all_lines, injection=range(net.bus_count)
    )


def check_placement(net: PowerNetwork, meas: MeasurementPlacement) -> None:
    """Every metered id names a line or a bus of ``net``; the first that
    does not is named. The ids are sorted and nonnegative, so the first past
    the end is found by bisection."""
    for ids, count, what in (
        (meas.flow_from, net.line_count, "line"),
        (meas.flow_to, net.line_count, "line"),
        (meas.injection, net.bus_count, "bus"),
    ):
        past = bisect_left(ids, count)
        if past < len(ids):
            raise InputError(f"metered {what} id {ids[past]} out of range")


@dataclass(frozen=True)
class WeightAssignment:
    """Attack cost per line and per bus.

    Derived weights (meter count per line, indicator per metered bus) make
    the weighted objective coincide with support cardinality; custom weights
    price tampering effort instead.
    """

    edge_costs: tuple[int | Fraction, ...]
    node_costs: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_costs", _costs(self.edge_costs))
        object.__setattr__(self, "node_costs", _costs(self.node_costs))

    @classmethod
    def from_placement(cls, net: PowerNetwork, meas: MeasurementPlacement) -> "WeightAssignment":
        """The derived weights of a placement."""
        check_placement(net, meas)
        flow_from, flow_to, injection = meas.id_arrays
        metered = np.concatenate((flow_from, flow_to))
        injected = np.zeros(net.bus_count, dtype=np.intp)
        injected[injection] = 1
        return cls(
            edge_costs=np.bincount(metered, minlength=net.line_count).tolist(),
            node_costs=injected.tolist(),
        )

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


def _costs(values) -> tuple[int | Fraction, ...]:
    """``values`` as costs: as they stand when every one is a nonnegative
    int, else each through ``as_cost``, which leaves those unchanged."""
    costs = tuple(values)
    if set(map(type, costs)) <= {int} and min(costs, default=0) >= 0:
        return costs
    return tuple(map(as_cost, costs))


class ModelMatrix:
    """The measurement matrix H, held as the line flows each row sums: term t
    adds ``coeffs[t] * (theta[tails[t]] - theta[heads[t]])`` to row
    ``rows[t]`` of the ``measurement_count`` rows, so every row sums to zero
    term by term. ``build_h`` is its one builder from a placement, whose
    ``ordering()`` names the rows; the matrix holds no labels. Two indexes
    let a shift read only the terms near its cut: ``by_line`` (lines x 4)
    holds the ids of the terms that read each line, in four slots (its
    flow_from row, its flow_to row, and the injection terms at its from bus
    and at its to bus), -1 where the line has no such term; ``adjacency``
    is the network's lines by bus (``PowerNetwork.adjacency``). H @
    delta_theta and its support come from the terms of the cut lines, and
    max|H| from the table; the residual guard's columns of H come from the
    terms of the lines at the buses its witness moves, or on a small table
    from ``entries``, which sum the table's terms per entry. The dense
    ``h``, and its SVD basis, are built on first read."""

    def __init__(self, measurement_count: int, bus_count: int, rows, tails, heads, coeffs,
                 by_line, adjacency):
        self.measurement_count = measurement_count
        self.bus_count = bus_count
        self.rows, self.tails, self.heads = np.array([rows, tails, heads], dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.by_line = np.asarray(by_line, dtype=np.intp)
        self.adjacency = adjacency
        self._line_terms = [None] * len(self.by_line)
        self._range_basis = None

    def apply(self, delta_theta, cut) -> tuple[np.ndarray, tuple[int, ...]]:
        """H @ delta_theta and its support, ``cut`` being the lines whose two
        buses the shift moves apart (``cut_lines``), ascending. Only their
        terms are summed, since every other term adds an exact zero, and in
        table order: a row's terms read distinct lines in ascending order
        in every table ``build_h`` makes, so walking the cut lines in order
        meets each row's terms in table order, and each row's sum is the
        whole table's, bit for bit. The support is the rows whose sum
        exceeds ZERO_TOL times the sum of their terms' magnitudes, whatever
        the reactances' scale; for a 0/1 shift that is every row of those
        terms, as the cut lines at a bus all pull one way."""
        made, theta = self._line_terms, np.asarray(delta_theta, dtype=float).item
        sums = {}
        for line in cut:
            tail, head, rows, coeffs = made[line] or self._terms_of(line)
            shift = theta(tail) - theta(head)
            for r, c in zip(rows, coeffs):
                flow = c * shift
                if r in sums:
                    z, size = sums[r]
                    sums[r] = z + flow, size + abs(flow)
                else:
                    sums[r] = 0.0 + flow, abs(flow)
        delta_z = np.zeros(self.measurement_count)
        for r, (z, _) in sums.items():
            delta_z[r] = z
        return delta_z, tuple(sorted(r for r, (z, size) in sums.items() if abs(z) > ZERO_TOL * size))

    def _terms_of(self, line):
        """``(tail, head, rows, coeffs)`` of ``line``: the tail and head of
        its first term, and the row and coefficient of each of its terms
        (``by_line``), the coefficient negated where the term runs from
        ``head`` to ``tail``. A term's flow is then its coefficient here
        times theta[tail] - theta[head], bit for bit, since negating a
        difference or a product is exact. Kept in ``_line_terms`` from the
        line's first read."""
        row, tail_of, coeff = self.rows.item, self.tails.item, self.coeffs.item
        ids = [t for t in self.by_line[line].tolist() if t >= 0]
        tail, head = (tail_of(ids[0]), self.heads.item(ids[0])) if ids else (0, 0)
        out = self._line_terms[line] = (
            tail, head, tuple(map(row, ids)),
            tuple([coeff(t) if tail_of(t) == tail else -coeff(t) for t in ids]),
        )
        return out

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the entries of H the table writes, row-major,
        each summing its terms in table order (``_entries``)."""
        every = np.arange(len(self.rows))
        return _entries(self, every, every)

    @cached_property
    def max_abs_entry(self) -> float:
        """max|H|, read from the term table as the largest sum of one row's
        term magnitudes; 0 for a matrix without terms. Each row ``build_h``
        makes is one term, or the terms of an injection, which share the
        metered bus as their tail and have positive coefficients, so the
        bus's entry is that sum, bit for bit, and the row's largest; in any
        table the sum bounds the row's entries from above."""
        sums = np.bincount(self.rows, weights=np.abs(self.coeffs), minlength=self.measurement_count)
        return float(sums.max(initial=0.0))

    @cached_property
    def h(self) -> np.ndarray:
        """The dense matrix, which only ``verify``, the oracles and estimation read."""
        h = np.zeros((self.measurement_count, self.bus_count))
        h[self.entries[:2]] = self.entries[2]
        return h

    def reduced(self) -> np.ndarray:
        """The matrix with the reference-bus column removed."""
        return self.h[:, 1:]

    def range_basis(self) -> "_ReducedColumns":
        """The residual guard's view of the column space of the reduced
        matrix H2, made once per model, with no factorization: the columns
        a fit reads come from ``entries`` without the reference column, or
        on a large table from the terms of the lines at the buses the
        witness moves (``_ReducedColumns``, which holds the arrays and
        indexes it reads). An attack
        H @ dtheta is certified by its own witness y = dtheta[1:] - dtheta[0]
        (see :func:`attack_from_partition`)."""
        if self._range_basis is None:
            self._range_basis = _ReducedColumns(self)
        return self._range_basis

    @cached_property
    def svd_basis(self) -> np.ndarray:
        """An orthonormal basis of the column space of H2, as columns: the
        left singular vectors whose singular values exceed max(m, n) * eps
        times the largest. Only :func:`bdd_residual` reads it."""
        h2 = self.reduced()
        if h2.size == 0:
            return np.zeros((h2.shape[0], 0))
        u, s, _ = np.linalg.svd(h2, full_matrices=False)
        return u[:, s > max(h2.shape) * np.finfo(float).eps * s[0]]


def _entries(model, at_tail, at_head):
    """(rows, cols, vals) of the entries of H that the terms ``at_tail``
    write at their tails and the terms ``at_head`` write at their heads,
    row-major, from the term table of ``model`` (a ModelMatrix or _Terms).
    Each entry sums its terms' tail parts, then their head parts, each in
    table order, as a pass over the whole table would. The keys
    (row * n + col) are put in order by a stable sort, which keeps each
    entry's terms in that order: the tails' keys are already sorted in every
    table ``build_h`` makes, and the heads' keys nearly so, which the sort's
    merging of runs exploits."""
    rows = np.concatenate((model.rows[at_tail], model.rows[at_head]))
    cols = np.concatenate((model.tails[at_tail], model.heads[at_head]))
    keys = rows * model.bus_count + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    terms = np.concatenate((model.coeffs[at_tail], -model.coeffs[at_head]))[order]
    vals = np.bincount(np.cumsum(first) - 1, weights=terms)
    return rows[order][first], cols[order][first], vals


# A fit on a table of more than this many terms reads only the columns its
# witness moves, from their terms; on a smaller one it reads H2's nonzeros,
# grouped once per model. Each way wins where it is used: a 2383-bus grid's
# first fit (14,296 terms) costs 0.17 ms locally against 1.28 ms for the
# grouping, while the verify-desk stream's 834 fits on small tables cost
# 53-59 ms locally against 4.0-4.6 ms, grouping included (79 seed-1 cases,
# about 0.9 s of ``verify`` in all), a local fit's fixed cost being some
# 20 NumPy calls (thread CPU, 2-vCPU Xeon, Python 3.11, NumPy 2.4).
# The bundled 118-bus case has 744 terms.
LOCAL_FIT_TERMS = 4096


class _Terms(NamedTuple):
    """A term table as ``_entries`` and ``_terms_at`` read it (see
    :class:`ModelMatrix`)."""

    rows: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    coeffs: np.ndarray
    bus_count: int
    by_line: np.ndarray
    adjacency: tuple[np.ndarray, np.ndarray]


def _terms_at(table, buses):
    """The ids of the terms whose tail, and of those whose head, is one of
    ``buses`` (ascending, no repeats), each ascending: the terms of the
    lines at those buses (``adjacency``, then ``by_line``) whose tail, or
    head, is the bus the line was met at. A term reads one line, whose two
    ends are its tail and its head, so it is met once at each."""
    counts, met = gather(*table.adjacency, buses)
    ids = table.by_line[met]
    real, at = ids >= 0, np.repeat(buses, counts)[:, None]
    return np.sort(ids[real & (table.tails[ids] == at)]), np.sort(ids[real & (table.heads[ids] == at)])


class _ReducedColumns:
    """The columns of H2 as the residual guard reads them: on a table of
    more than ``LOCAL_FIT_TERMS`` terms, the table with its indexes, from
    which each fit sums the columns its witness moves; on a smaller one,
    H2's nonzeros, read from the model's ``entries``. The view holds
    arrays, not the model."""

    def __init__(self, model: ModelMatrix):
        self.measurement_count = model.measurement_count
        self.terms = self.nonzeros = None
        if len(model.rows) > LOCAL_FIT_TERMS:
            self.terms = _Terms(model.rows, model.tails, model.heads, model.coeffs,
                                model.bus_count, model.by_line, model.adjacency)
        else:
            rows, cols, vals = model.entries
            keep = cols > 0
            self.nonzeros = rows[keep], cols[keep] - 1, vals[keep]

    def residual(self, delta_z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """delta_z - H2 y. From the table, only the columns where y is not 0
        are read, their entries summed from the terms at those buses
        (``_terms_at``); every column left out adds an exact zero to each
        row, so the result is bit for bit that of the whole product."""
        terms = self.terms
        if terms is not None:
            shift = np.concatenate(([0.0], y))
            rows, cols, vals = _entries(terms, *_terms_at(terms, np.flatnonzero(shift)))
            fit = vals * shift[cols]
        else:
            rows, cols, vals = self.nonzeros
            fit = vals * y[cols]
        return delta_z - np.bincount(rows, weights=fit, minlength=self.measurement_count)


def build_h(net: PowerNetwork, meas: MeasurementPlacement) -> ModelMatrix:
    """The measurement matrix of a placement as its table of line-flow terms
    (see :class:`ModelMatrix`): a flow row is +-1/x across its line (negated
    for the incoming end), an injection row a weighted Laplacian row, one
    term per incident line from the bus to the line's other end, by
    ascending line id. The table is built from index arrays, row by row in
    the global measurement order; the injection terms are the metered
    buses' runs of the network's lines by bus (``PowerNetwork.adjacency``).
    """
    check_placement(net, meas)
    tails, heads = net.endpoints
    susceptance = net.susceptances()
    flow_from, flow_to, injected = meas.id_arrays
    flows = np.concatenate((flow_from, flow_to))
    sign = np.repeat([1.0, -1.0], [len(flow_from), len(flow_to)])
    counts, met = gather(*net.adjacency, injected)
    at = np.repeat(injected, counts)
    # The terms of each line by slot: its flow_from row, its flow_to row,
    # and its injection terms at its from bus and at its to bus.
    by_line = np.full((net.line_count, 4), -1, dtype=np.intp)
    metered = len(flow_from)
    by_line[flows[:metered], 0] = np.arange(metered)
    by_line[flows[metered:], 1] = np.arange(metered, flows.size)
    by_line[met, 2 + (at != tails[met])] = flows.size + np.arange(met.size)
    return ModelMatrix(
        meas.measurement_count,
        net.bus_count,
        np.concatenate((np.arange(flows.size), flows.size + np.repeat(np.arange(injected.size), counts))),
        np.concatenate((tails[flows], at)),
        np.concatenate((heads[flows], tails[met] + heads[met] - at)),
        np.concatenate((sign * susceptance[flows], susceptance[met])),
        by_line,
        net.adjacency,
    )


def is_observable(model: ModelMatrix) -> bool:
    """Redundant observability: rank stays at bus_count - 1 after deleting
    any single column. Every row sums to zero, so each column is minus the
    sum of the others and deleting any one leaves the same rank: one rank
    computation, of the reduced matrix at numpy's relative cutoff, decides it.
    Each row is first scaled by a power of two that brings its largest entry
    into [1/2, 1), which leaves the rank as it is, so that one row's extreme
    reactance does not hide the singular values of the others."""
    if model.measurement_count == 0:
        raise InputError("observability of an empty measurement set is undefined")
    h2 = model.reduced()
    _, exponents = np.frexp(np.abs(h2).max(axis=1, initial=0.0))
    return np.linalg.matrix_rank(np.ldexp(h2, -exponents[:, None])) == model.bus_count - 1


def _normal_equations(model: ModelMatrix, weights):
    """``(h2, w, h2.T @ W @ h2)`` of a least-squares fit: the reduced
    matrix, the per-measurement weights (1 each by default) and the normal
    matrix."""
    w = np.ones(model.measurement_count) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (model.measurement_count,) or not np.all(w > 0):
        raise InputError("weights must be positive, one per measurement")
    h2 = model.reduced()
    return h2, w, h2.T @ (w[:, None] * h2)


def estimate(model: ModelMatrix, z: np.ndarray, weights: np.ndarray | None = None):
    """Weighted least-squares state estimate and its residual.

    Returns (theta_hat, residual) where theta_hat has the reference entry
    pinned to zero. Requires the reduced matrix to have full column rank.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (model.measurement_count,):
        raise InputError("measurement vector has wrong length")
    h2, w, normal = _normal_equations(model, weights)
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
    h2, w, normal = _normal_equations(model, weights)
    try:
        inv = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular normal equations in hat matrix") from exc
    return h2 @ inv @ h2.T @ np.diag(w)


def bdd_residual(model: ModelMatrix, delta_z: np.ndarray) -> np.ndarray:
    """Bad-data-detection residual of a measurement corruption under unit
    weights: the component of delta_z outside the model's column space, the
    least-squares residual delta_z - H2 y, by projection onto the model's
    :attr:`ModelMatrix.svd_basis` q, as delta_z - q (q^T delta_z). It
    serves any delta_z, at the cost of a dense SVD; an attack from a
    partition is certified by its witness instead
    (:func:`attack_from_partition`)."""
    q, delta_z = model.svd_basis, np.asarray(delta_z, dtype=float)
    return delta_z - q @ (q.T @ delta_z)


def residual_tolerance(model: ModelMatrix, delta_theta) -> float:
    """The residual guard's bound for the corruption ``H @ delta_theta``:
    RESIDUAL_TOL relative to the largest entry that corruption can have,
    max|H| * max|delta_theta|, at every scale, so a corruption the size of
    the attack itself stays visible however large the reactances."""
    scale = model.max_abs_entry * np.abs(delta_theta).max(initial=0.0)
    return RESIDUAL_TOL * float(scale)


@dataclass(frozen=True)
class AttackVector:
    """An unobservable corruption: angle shift, measurement shift, support."""

    delta_theta: np.ndarray
    delta_z: np.ndarray
    support: tuple[int, ...]
    residual_inf: float


def cut_lines(net: PowerNetwork, delta_theta) -> list[int]:
    """The lines whose two buses ``delta_theta`` moves apart, ascending:
    one vectorized pass over the lines, for a caller that holds the shift
    as a dense vector rather than as a side of a cut."""
    theta = np.asarray(delta_theta, dtype=float)
    tails, heads = net.endpoints
    return np.flatnonzero(theta[tails] - theta[heads]).tolist()


def attack_from_partition(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    delta_theta,
    model: ModelMatrix | None = None,
    cut=None,
) -> AttackVector:
    """Turn a binary bus partition into a verified unobservable attack.

    ``cut`` lists the lines the partition cuts, ascending; without it they
    are found by ``cut_lines``. The attack's delta_z = H @ dtheta lies in
    the column space of the reduced matrix H2 by construction, with the
    witness y = dtheta[1:] - dtheta[0], since every row of H sums to zero.
    ``residual_inf`` is the 2-norm of delta_z - H2 y, with delta_z from the
    terms of the cut lines (``ModelMatrix.apply``) and H2 y from the
    columns the witness moves (``ModelMatrix.range_basis``), scattered into
    a vector of every row before the norm; it bounds the max-norm of the
    least-squares residual from above, and is 0 up to rounding. It
    exceeding ``residual_tolerance`` signals an internal bug, so it raises
    InvariantError.
    """
    dtheta = np.asarray(delta_theta, dtype=float)
    if dtheta.shape != (net.bus_count,):
        raise InputError("delta_theta must have one entry per bus")
    if not ((dtheta == 0.0) | (dtheta == 1.0)).all():
        raise InputError("delta_theta must be a 0/1 vector")
    if model is None:
        model = build_h(net, meas)
    if cut is None:
        cut = cut_lines(net, dtheta)
    delta_z, support = model.apply(dtheta, cut)
    witness = dtheta[1:] - dtheta[0]
    residual = model.range_basis().residual(delta_z, witness)
    with np.errstate(over="ignore"):
        residual_inf = float(np.linalg.norm(residual))
    if residual_inf == np.inf:  # the squares of entries past 1e154 overflow
        peak = np.abs(residual).max()
        residual_inf = float(peak * np.linalg.norm(residual / peak) if peak < np.inf else peak)
    tolerance = residual_tolerance(model, dtheta)
    if residual_inf > tolerance:
        raise InvariantError(f"attack residual {residual_inf:g} exceeds {tolerance:g}")
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
