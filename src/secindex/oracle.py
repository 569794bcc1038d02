"""Independent brute-force solvers for the sparse-attack optimization problems.

These oracles certify the min-cut pipeline without sharing its solvers.
They share only the weight derivation (``WeightAssignment``) and the
integer scaling (``scale_to_int``, then ``costly_cut._capacities``), and
every optimum they report is re-checked in exact rationals through
``attack_cost``. Two continuous solvers are provided:

* ``oracle_continuous`` works on a raw matrix. It enumerates candidate
  nonzero row sets one at a time in increasing cost and checks feasibility
  of each by rank tests on the rows scaled to unit norm; the first feasible
  candidate is optimal. Row groups let physically coupled rows (the two
  flow rows of one line are scalar multiples of each other) be switched
  together.

* ``oracle_continuous_network`` exploits network structure: it scans the
  partitions of the buses into connected groups (level sets of the angle
  perturbation up to merging of non-adjacent groups) in order of their cut
  cost, pays metered cut lines combinatorially, and decides exactly which
  metered injections can be cancelled by solving for group values in a
  shrinking subspace. One scan prices every edge and injection target at
  once, which is what makes whole-network sweeps affordable. Once every
  target has an answer, the scan stops at the first partition whose cut
  alone costs at least as much as each of them, so the enumeration is
  cost-bounded: it produces the partitions one band of cut cost at a time,
  pruning each branch whose cost reaches the band's cap, and builds no band
  past the stopping point. The scan meets the same partitions in the same
  order as a full enumeration. It settles each partition by its forced
  charges before it builds or searches anything: one pass over the cut
  lines finds the buses they touch and the metered ones among them whose
  injection no group values cancel, which every attack on the partition
  pays. A target whose best answer so far leaves no more than that beyond
  the cut cost, and an injection target at a bus no cut line touches, is
  passed over; only for the targets left are the partition's functionals
  built and searched, the edge targets' shared search bounded by the
  widest budget still open among them.

``oracle_binary`` exhaustively evaluates the 0/1-restricted problem.

All optima are exact rationals; witnesses are verified against their claimed
objective before being returned.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .costly_cut import _capacities, as_cost, scale_to_int
from .errors import InputError, InvariantError, SizeLimitError
from .power_model import (
    ZERO_TOL,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    WeightAssignment,
    build_h,
    check_placement,
    cut_lines,
)

ROW_LIMIT = 40
BINARY_BUS_LIMIT = 22
PARTITION_LINE_LIMIT = 17
NULLSPACE_TOL = 1e-8
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_CHUNK = 1 << 16
_UNBOUNDED = 1 << 62  # the budget of a target with no answer yet
_SEVERAL = -1  # a bus whose cut lines reach several groups


@dataclass(frozen=True)
class OracleResult:
    """Optimum (None when infeasible), a verified witness, and its support."""

    optimum: int | Fraction | None
    witness: np.ndarray | None
    support: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


INFEASIBLE = OracleResult(optimum=None, witness=None, support=())


# ---------------------------------------------------------------------------
# Generic row-set oracle.


def _ranks(mats: np.ndarray) -> np.ndarray:
    """Numerical ranks of a stack of matrices at numpy's relative cutoff:
    singular values above the largest times max(rows, cols) times eps.
    A singular value moves no more than the rounding of the entries, so a
    rank decided this way holds at any spread of scales inside a row,
    where a test on the computed null vectors would not."""
    if mats.shape[-2] == 0:
        return np.zeros(mats.shape[:-2], dtype=int)
    s = np.linalg.svd(mats, compute_uv=False)
    return (s > s[..., :1] * (max(mats.shape[-2:]) * _EPS)).sum(axis=-1)


def _binary_unit(vec: np.ndarray) -> np.ndarray:
    """``vec`` times the power of two that brings its largest magnitude
    into [0.5, 1). The scaling is exact, so every product, norm and ratio
    taken of it is the one taken of ``vec``, scaled by that power, bit for
    bit; but the squares of its entries neither overflow nor underflow,
    whatever the reactances' spread."""
    top = float(np.abs(vec).max(initial=0.0))
    if top == 0.0 or not np.isfinite(top):
        return vec
    return np.ldexp(vec, -math.frexp(top)[1])


def _with_norm(vec: np.ndarray):
    """``vec`` and its 2-norm, ``vec`` read at a binary unit scale where
    the sum of its squares would overflow or lose its precision: a scaling
    that leaves every test on it as it was."""
    square = float(vec @ vec)
    if not _TINY <= square < math.inf:
        vec = _binary_unit(vec)
        square = float(vec @ vec)
    return vec, math.sqrt(square)


def _pick_off_hyperplanes(basis: np.ndarray, functionals) -> np.ndarray:
    """Deterministic point in the span of ``basis`` with a healthy margin
    against every functional in the list (each is nonzero on the span),
    each with its norm taken once (``_with_norm``)."""
    k = basis.shape[1]
    if k == 0:
        raise InvariantError("empty subspace has no generic point")
    rows = [_with_norm(np.asarray(f, dtype=float)) for f in functionals]
    best = None
    best_margin = 0.0
    for t in range(1, 60):
        coeff = np.array([float(t) ** j for j in range(k)])
        coeff /= np.linalg.norm(coeff)
        y = basis @ coeff
        ynorm = np.linalg.norm(y)
        if ynorm == 0:
            continue
        margin = 1.0
        for f, fn in rows:
            if fn == 0:
                continue
            margin = min(margin, abs(float(f @ y)) / (fn * ynorm))
        if margin > best_margin:
            best_margin = margin
            best = y
        if best_margin > 1e-2:
            break
    if best is None or best_margin <= 1e-6:
        raise InvariantError("failed to find a generic point off the hyperplanes")
    return best


def oracle_continuous(
    h: np.ndarray,
    row: int,
    weights=None,
    row_groups=None,
    extra_nonzero: np.ndarray | None = None,
) -> OracleResult:
    """Minimum-cost nonzero pattern of h @ x subject to (h @ x)[row] != 0.

    ``weights`` are nonnegative per-row costs (default 1 each). ``row_groups``
    optionally partitions row indices into groups whose rows are pairwise
    proportional and therefore vanish together. ``extra_nonzero`` is an
    additional functional on x required to be nonzero. The witness is
    scaled so the constraint row maps to exactly 1.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise InputError("h must be a matrix")
    m, dim = h.shape
    if m > ROW_LIMIT:
        raise SizeLimitError(f"row-set oracle refuses more than {ROW_LIMIT} rows")
    if not (0 <= row < m):
        raise InputError(f"constraint row {row} out of range")
    w = [as_cost(x) for x in weights] if weights is not None else [1] * m
    if len(w) != m:
        raise InputError("need one weight per row")

    if row_groups is None:
        groups = [(i,) for i in range(m)]
    else:
        groups = [tuple(sorted(int(i) for i in g)) for g in row_groups]
        seen = sorted(i for g in groups for i in g)
        if seen != list(range(m)):
            raise InputError("row_groups must partition the row indices")
        for g in groups:
            base = h[g[0]]
            for i in g[1:]:
                if not _proportional(base, h[i]):
                    raise InputError(f"rows {g} are not proportional; cannot be grouped")

    group_weight = [sum(w[i] for i in g) for g in groups]
    target_group = next(gi for gi, g in enumerate(groups) if row in g)

    # Zero-weight groups and the constraint group are always allowed nonzero.
    base_cost = group_weight[target_group]
    candidates = [
        gi for gi in range(len(groups)) if gi != target_group and group_weight[gi] > 0
    ]
    candidates.sort(key=lambda gi: (group_weight[gi], groups[gi]))

    free_rows = set()
    for gi, g in enumerate(groups):
        if gi == target_group or group_weight[gi] == 0:
            free_rows.update(g)

    # A row's zero pattern does not change when the row is scaled, so every
    # decision reads the rows (and the extra functional) at unit norm.
    norms = np.linalg.norm(h, axis=1)
    unit = h / np.where(norms > 0, norms, 1.0)[:, None]
    targets = [unit[row]]
    if extra_nonzero is not None:
        extra = np.asarray(extra_nonzero, dtype=float)
        targets.append(extra / (np.linalg.norm(extra) or 1.0))

    def feasibility(chosen):
        """The zero rows of ``chosen``, their rank and a basis of their
        kernel, or None when no target survives on that kernel: when the
        zero rows have full rank, or appending some target to them does not
        strictly raise their rank."""
        allowed = set(free_rows)
        for gi in chosen:
            allowed.update(groups[gi])
        zero = [i for i in range(m) if i not in allowed]
        rank = int(_ranks(unit[zero]))
        if rank >= dim or any(_ranks(np.vstack([unit[zero], f])) <= rank for f in targets):
            return None
        return zero, rank, (np.linalg.svd(unit[zero])[2][rank:].T if rank else np.eye(dim))

    # Everything allowed is the easiest candidate; if that fails, so does all.
    if feasibility(tuple(candidates)) is None:
        return INFEASIBLE

    def finalize(chosen, kernel) -> OracleResult:
        zero, rank, basis = kernel
        functionals = [f @ basis for f in targets]
        coeff_point = _pick_off_hyperplanes(np.eye(basis.shape[1]), functionals)
        witness = basis @ coeff_point
        witness = witness / float(h[row] @ witness)
        # The witness is a generic point of the kernel, so its support is
        # the rows that do not vanish there, decided by the same rank test.
        # Read off h @ witness, a row whose terms are 1e12 times its sum
        # would look zero.
        zero_rows = np.broadcast_to(unit[zero], (m, len(zero), dim))
        grown = np.concatenate([zero_rows, unit[:, None]], axis=1)
        support = tuple(np.flatnonzero(_ranks(grown) > rank).tolist())
        # The zero rows vanish on the witness: each row's h @ witness is at
        # most ZERO_TOL times its entries' magnitudes summed times max
        # |witness|: the witness may be at rounding level on every entry a
        # zero row reads. ModelMatrix.apply scales by its line-flow terms.
        scale = np.abs(h[zero]).sum(axis=1) * np.abs(witness).max()
        if np.any(np.abs(h[zero] @ witness) > ZERO_TOL * scale):
            raise InvariantError("witness does not vanish on its zero rows")
        cost = base_cost + sum(group_weight[gi] for gi in chosen)
        support_cost = sum(w[i] for i in support)
        if support_cost != cost:
            raise InvariantError(
                f"witness support cost {support_cost} disagrees with candidate cost {cost}"
            )
        return OracleResult(optimum=cost, witness=witness, support=support)

    # Best-first over subsets of paid groups, as positions in ``candidates``:
    # the heap pops them in (added cost, index tuple) order, each exactly
    # once (extend-last / replace-last), and the first feasible one wins.
    heap = [(0, ())]
    while heap:
        cost, subset = heapq.heappop(heap)
        chosen = tuple(candidates[i] for i in subset)
        kernel = feasibility(chosen)
        if kernel is not None:
            return finalize(chosen, kernel)
        nxt = subset[-1] + 1 if subset else 0
        if nxt < len(candidates):
            step = group_weight[candidates[nxt]]
            heapq.heappush(heap, (cost + step, subset + (nxt,)))
            if subset:
                drop = group_weight[candidates[subset[-1]]]
                heapq.heappush(heap, (cost - drop + step, subset[:-1] + (nxt,)))
    raise InvariantError("row-set enumeration exhausted without finding the optimum")


def _proportional(a: np.ndarray, b: np.ndarray) -> bool:
    stacked = np.vstack([a, b])
    _, s, _ = np.linalg.svd(stacked)
    return s.size < 2 or s[1] <= 1e-10 * s[0]


# ---------------------------------------------------------------------------
# Network partition oracle.


def _connected_partitions(bus_count: int, endpoints, costs, low, cap) -> list:
    """Every partition of the buses into connected groups whose cut lines
    cost at least ``low`` and less than ``cap`` in total, each exactly
    once, as ``(cost, labels, cut lines)``.

    The lines taken on the different-group branch are exactly the cut lines
    of the partitions below it, so a branch adds up its cost as it recurses
    and is pruned once that cost reaches ``cap``; a leaf below ``low`` is
    not recorded. Both only drop leaves: the records come in the order of
    the uncapped enumeration.

    Each group keeps two bitmasks of buses at its root: ``members``, and
    ``apart``, the buses of the groups a cut line joins it to, which it may
    never merge with. A cut line between two groups puts each one's
    members in the other's ``apart``, so contracting line i's two groups
    is allowed iff one group's members miss the other's ``apart``: a test
    of two integers in place of a pass over every cut line.
    """
    parent = list(range(bus_count))
    members = [1 << b for b in range(bus_count)]
    apart = [0] * bus_count

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    cut: list[int] = []
    out: list = []

    def labels() -> tuple[int, ...]:
        ids = {}
        lab = []
        for b in range(bus_count):
            r = find(b)
            if r not in ids:
                ids[r] = len(ids)
            lab.append(ids[r])
        return tuple(lab)

    def rec(i: int, cost):
        if i == len(endpoints):
            if cost >= low:
                out.append((cost, labels(), tuple(cut)))
            return
        u, v = endpoints[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            rec(i + 1, cost)
            return
        mu, mv, au, av = members[ru], members[rv], apart[ru], apart[rv]
        # Same-group branch: contract, unless a cut line joins the groups.
        if not mu & av:
            parent[rv] = ru
            members[ru], apart[ru] = mu | mv, au | av
            rec(i + 1, cost)
            parent[rv] = rv
            members[ru], apart[ru] = mu, au
        # Different-group branch: line i is cut.
        if cost + costs[i] < cap:
            cut.append(i)
            apart[ru], apart[rv] = au | mv, av | mu
            rec(i + 1, cost + costs[i])
            apart[ru], apart[rv] = au, av
            cut.pop()

    if cap > 0:
        rec(0, 0)
    # ``rec`` holds itself through its closure; a cycle would keep ``out``
    # and its records alive until the cyclic collector ran.
    del rec
    return out


def _band_caps(costs):
    """Caps of the successive cost bands of the partition scan: doubling
    from ``max(costs) + 1``; the last one exceeds the total cost, so the
    bands cover every partition."""
    cap, total = max(costs, default=0) + 1, sum(costs)
    while True:
        yield cap
        if cap > total:
            return
        cap *= 2


def _partitions_by_cost(bus_count: int, endpoints, costs, stop):
    """Every connected partition as ``(cost, labels, cut lines)`` in
    ``(cost, labels)`` order, enumerated one cost band ``[low, cap)`` at a
    time, so a scan that stops early never enumerates the costlier bands.
    ``stop()`` is the cost at which the scan will stop, or None while that is
    unknown; no band reaches it."""
    low = 0
    for cap in _band_caps(costs):
        bound = stop()
        if bound is not None:
            if low >= bound:
                return
            cap = min(cap, bound)
        band = _connected_partitions(bus_count, endpoints, costs, low, cap)
        band.sort(key=lambda r: r[:2])
        yield from band
        low = cap


def _null_of_row(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Basis of the kernel of a single functional restricted to the span.

    ``vec`` is the functional in the coordinates of ``basis``'s columns,
    and is not zero. The Householder reflector Q = I - 2vvᵀ/vᵀv with
    v = vec + sign(vec₀)‖vec‖e₀ maps ``vec`` onto a multiple of e₀, so Q's
    columns past the first are orthonormal and orthogonal to ``vec``; the
    result is ``basis`` Q without its first column, formed without Q. Q
    does not depend on the scale of ``vec`` (``_with_norm``)."""
    v, norm = _with_norm(vec.astype(float))
    v = v.copy()
    v[0] += math.copysign(norm, v[0])
    return (basis - np.outer(basis @ v, v * (2.0 / (v @ v))))[:, 1:]


class _CutCharges(NamedTuple):
    """What one pass over a partition's cut lines settles (``_cut_charges``)."""

    labels: tuple[int, ...]
    cut_lines: tuple[int, ...]
    reach: dict  # touched bus -> the one group its cut lines reach, or _SEVERAL
    cancellable: list  # metered buses whose cut lines reach several groups
    forced_sum: int  # the charges of the other metered touched buses


def _cut_charges(labels, cut_lines, endpoints, p_scaled) -> _CutCharges:
    """One pass over the cut lines of a partition: the buses they touch,
    the group each one's cut lines reach, and so its charge. A bus whose
    cut lines all reach one other group has an injection that no choice of
    group values cancels, so every attack on the partition pays its charge
    (``forced_sum``); one whose lines reach several groups may be
    cancelled, and the search decides (``cancellable``, ascending). A bus
    no cut line touches has no injection shift."""
    reach = {}
    for ln in cut_lines:
        u, v = endpoints[ln]
        for bus, group in ((u, labels[v]), (v, labels[u])):
            if reach.setdefault(bus, group) != group:
                reach[bus] = _SEVERAL
    forced_sum = 0
    cancellable = []
    for bus in sorted(reach):
        if p_scaled[bus] > 0:
            if reach[bus] == _SEVERAL:
                cancellable.append(bus)
            else:
                forced_sum += p_scaled[bus]
    return _CutCharges(labels, cut_lines, reach, cancellable, forced_sum)


def _open_targets(cut: _CutCharges, flow, edge_best, node_best, endpoints):
    """The targets whose searches on the partition could beat their best
    answers so far, each with its budget: the cost of that answer beyond
    the partition's cut cost ``flow``, or ``_UNBOUNDED`` without one. An
    edge target is open where the partition cuts its line, an injection
    target where a cut line touches its bus, and either only if its budget
    exceeds the charges every attack on the partition pays."""
    labels, forced = cut.labels, cut.forced_sum
    edges = {}
    for line, best in edge_best.items():
        u, v = endpoints[line]
        if labels[u] != labels[v]:
            budget = best[0] - flow if best is not None else _UNBOUNDED
            if budget > forced:
                edges[line] = budget
    nodes = {}
    for bus, best in node_best.items():
        if bus in cut.reach:
            budget = best[0] - flow if best is not None else _UNBOUNDED
            if budget > forced:
                nodes[bus] = budget
    return edges, nodes


class _PartitionView:
    """A partition's functionals over its group values, built from its
    ``_CutCharges`` only for a search that will run."""

    def __init__(self, cut: _CutCharges, lines):
        labels = self.labels = cut.labels
        self.group_count = max(labels) + 1
        self.cancellable = cut.cancellable
        self.forced_sum = cut.forced_sum
        pairs = set()
        # Injection functional over group values of each bus a cut line
        # touches, its cut lines added in ascending order; every other
        # bus's is identically zero.
        self.lam = {bus: np.zeros(self.group_count) for bus in cut.reach}
        for ln in cut.cut_lines:
            u, v, x = lines[ln]
            a, b = labels[u], labels[v]
            pairs.add((min(a, b), max(a, b)))
            for bus, own, other in ((u, a, b), (v, b, a)):
                f = self.lam[bus]
                f[own] += 1.0 / x
                f[other] -= 1.0 / x
        # One row per pair of groups a cut line joins: +1 at a, -1 at b.
        self.pair_functionals = np.zeros((len(pairs), self.group_count))
        for i, (a, b) in enumerate(sorted(pairs)):
            self.pair_functionals[i, a] = 1.0
            self.pair_functionals[i, b] = -1.0


def _min_injection_dfs(view, p_scaled, budget, required_bus=None):
    """Least scaled injection cost over choices of which cancellable buses to
    zero, maintaining a subspace of group values on which every adjacent
    pair stays separable (and the required injection stays attainable).

    Returns (cost, zeroed set, final basis) or None when nothing beats
    ``budget`` (or the required functional cannot survive).

    An injection functional vanishes on the span below NULLSPACE_TOL times
    its largest coefficient, the bus's own, whatever the reactances' scale.
    """
    basis0 = np.eye(view.group_count)
    required = view.lam.get(required_bus) if required_bus is not None else None
    if required_bus is not None and required is None:
        return None
    if required is not None:
        required_tol = NULLSPACE_TOL * required[view.labels[required_bus]]
    cancellable = view.cancellable
    best = None

    def ok(basis) -> bool:
        if (np.abs(view.pair_functionals @ basis).max(axis=1) <= NULLSPACE_TOL).any():
            return False
        if required is not None and np.abs(required @ basis).max() <= required_tol:
            return False
        return True

    if not ok(basis0):
        return None

    def rec(i, basis, nonzero_cost, zeroed):
        nonlocal best
        bound = best[0] if best is not None else budget
        if view.forced_sum + nonzero_cost >= bound:
            return
        if i == len(cancellable):
            best = (view.forced_sum + nonzero_cost, frozenset(zeroed), basis)
            return
        bus = cancellable[i]
        lam = view.lam[bus]
        if bus != required_bus:
            restricted = lam @ basis
            if np.abs(restricted).max() <= NULLSPACE_TOL * lam[view.labels[bus]]:
                rec(i + 1, basis, nonzero_cost, zeroed + [bus])
            else:
                shrunk = _null_of_row(basis, restricted)
                if shrunk.shape[1] > 0 and ok(shrunk):
                    rec(i + 1, shrunk, nonzero_cost, zeroed + [bus])
        rec(i + 1, basis, nonzero_cost + p_scaled[bus], zeroed)

    rec(0, basis0, 0, [])
    return best


def _witness_from_partition(view, zeroed, basis, scale_row):
    """The bus angles of a generic point of the partition's subspace,
    scaled so that ``scale_row``, the target's functional, reads 1 on them;
    where that would overflow (the target's coefficients near the bottom
    of the float range, its reactance near the top), so that the target's
    functional at binary unit scale (``_binary_unit``) reads 1."""
    functionals = list(view.pair_functionals)
    for bus in view.cancellable:
        if bus not in zeroed:
            functionals.append(view.lam[bus])
    functionals.append(scale_row)
    with np.errstate(over="ignore", under="ignore"):
        y = _pick_off_hyperplanes(basis, functionals)
        witness = y[np.array(view.labels)] / float(scale_row @ y)
    if not np.isfinite(witness).all():
        witness = y[np.array(view.labels)] / float(_binary_unit(scale_row) @ y)
    return witness


def _flow_row(net, view, line) -> np.ndarray:
    """The flow functional of ``line`` over the group values of ``view``."""
    u, v, x = net.lines[line]
    row = np.zeros(view.group_count)
    row[view.labels[u]] += 1.0 / x
    row[view.labels[v]] -= 1.0 / x
    return row


def oracle_continuous_network(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    weights=None,
    edge_targets=(),
    node_targets=(),
    model: ModelMatrix | None = None,
) -> dict:
    """Exact continuous optima for many targets of one network in one scan.

    Returns {("edge", line): OracleResult} for each requested line (the
    constraint being nonzero flow on it) and {("node", bus): OracleResult}
    for each requested metered injection (the constraint being nonzero
    injection there). Witnesses are normalized so the target row maps to 1
    (see ``_witness_from_partition`` for a target whose reactance is near
    the top of the float range).

    Partitions come in order of cut cost. Each is settled by its forced
    charges first (``_cut_charges``): a target is searched on it only if
    its budget, what its best answer so far costs beyond the cut, exceeds
    them, and an injection target only if a cut line touches its bus
    (``_open_targets``). The edge targets share one search without target
    constraints, bounded by the widest open budget; the search returns the
    first least-cost choice in its order, and a bound above that cost
    prunes none of its ancestors, so the bound changes no answer.
    """
    if net.line_count > PARTITION_LINE_LIMIT:
        raise SizeLimitError(
            f"partition oracle refuses more than {PARTITION_LINE_LIMIT} lines"
        )
    weights = WeightAssignment.resolve(net, meas, weights)
    edge_costs, node_costs = weights.edge_costs, weights.node_costs
    for bus in node_targets:
        if bus not in meas.injection:
            raise InputError(f"bus {bus} has no injection measurement")
    for line in edge_targets:
        if not (0 <= line < net.line_count):
            raise InputError(f"line id {line} out of range")
    if model is None:
        model = build_h(net, meas)

    scale, (c_s, p_s) = scale_to_int(edge_costs, node_costs)
    edge_best = {line: None for line in edge_targets}
    node_best = {bus: None for bus in node_targets}

    def resolved_bound():
        payloads = list(edge_best.values()) + list(node_best.values())
        if any(v is None for v in payloads):
            return None
        return max((v[0] for v in payloads), default=0)

    # A reactance near either end of the float range may overflow or
    # underflow a functional's squares; ``_with_norm`` then rescales it.
    with np.errstate(over="ignore", under="ignore"):
        endpoints = [(u, v) for (u, v, _) in net.lines]
        bound = resolved_bound()
        for flow, labels, cut_lines in _partitions_by_cost(
            net.bus_count, endpoints, c_s, resolved_bound
        ):
            if bound is not None and flow >= bound:
                break
            cut = _cut_charges(labels, cut_lines, endpoints, p_s)
            edges, nodes = _open_targets(cut, flow, edge_best, node_best, endpoints)
            if not (edges or nodes):
                continue
            view = _PartitionView(cut, net.lines)
            # One search without target constraints, below the widest open
            # budget, serves every edge target whose budget its cost is below.
            base = _min_injection_dfs(view, p_s, max(edges.values())) if edges else None
            if base is not None:
                for line, budget in edges.items():
                    if base[0] < budget:
                        edge_best[line] = (flow + base[0], view, base)
            for bus, budget in nodes.items():
                found = _min_injection_dfs(view, p_s, budget, required_bus=bus)
                if found is not None:
                    node_best[bus] = (flow + found[0], view, found)
            bound = resolved_bound()

    results = {}
    targets = [("edge", line, payload) for line, payload in edge_best.items()]
    targets += [("node", bus, payload) for bus, payload in node_best.items()]
    for kind, ident, payload in targets:
        if payload is None:
            results[(kind, ident)] = INFEASIBLE
            continue
        total, view, (_, zeroed, basis) = payload
        row = _flow_row(net, view, ident) if kind == "edge" else view.lam[ident]
        dtheta = _witness_from_partition(view, zeroed, basis, row)
        results[(kind, ident)] = _verified_result(
            net, model, edge_costs, node_costs, Fraction(total, scale), dtheta
        )
    return results


def attack_cost(net: PowerNetwork, edge_costs, node_costs, dtheta, cut=None) -> int | Fraction:
    """Structural objective of an angle perturbation: the costs of the cut
    lines (endpoint angles differ) plus the charges of buses with nonzero net
    injection shift. An injection counts as nonzero when it exceeds ``ZERO_TOL``
    times the summed magnitudes of its line terms, so the decision does not
    depend on the scale of the reactances; for a 0/1 shift, whose cut lines
    at a bus never cancel, it is exactly "the bus meets a cut line". ``cut``
    lists the cut lines, ascending; without it they are found by
    ``cut_lines``. Only the cut lines and the angles at their endpoints are
    read; every other bus has no injection shift."""
    theta = np.asarray(dtheta, dtype=float)
    if cut is None:
        cut = cut_lines(net, theta)
    angle = theta.item
    tails, heads, reactances = net.columns
    total = 0
    inj = {}
    mag = {}
    for ln in cut:
        u, v, x = tails[ln], heads[ln], reactances[ln]
        total += edge_costs[ln]
        flow = (angle(u) - angle(v)) / x
        inj[u] = inj.get(u, 0.0) + flow
        inj[v] = inj.get(v, 0.0) - flow
        mag[u] = mag.get(u, 0.0) + abs(flow)
        mag[v] = mag.get(v, 0.0) + abs(flow)
    for bus in sorted(inj):
        if abs(inj[bus]) > ZERO_TOL * mag[bus]:
            total += node_costs[bus]
    return total


def _verified_result(net, model, edge_costs, node_costs, optimum, dtheta) -> OracleResult:
    """The result of witness ``dtheta``, whose exact cost, an int when it is
    integral, must equal ``optimum``. Its cut lines are read from
    ``dtheta`` as given, and its cost and support from ``dtheta`` scaled by
    a power of two to below 1/2 in every entry: the scaling is exact (an
    entry could only lose bits below the normal range) and keeps every flow
    of the witness, an angle difference below 1 over a reactance whose
    reciprocal is finite, inside the float range. The result carries the
    witness unscaled."""
    cut = cut_lines(net, dtheta)
    _, exponent = np.frexp(np.abs(dtheta).max(initial=0.0))
    scaled = np.ldexp(dtheta, -exponent - 1)
    recomputed = attack_cost(net, edge_costs, node_costs, scaled, cut)
    if recomputed != optimum:
        raise InvariantError(
            f"witness objective {recomputed} disagrees with combinatorial optimum {optimum}"
        )
    return OracleResult(optimum=recomputed, witness=dtheta, support=model.apply(scaled, cut)[1])


# ---------------------------------------------------------------------------
# Binary oracle.


def oracle_binary(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    line: int,
    weights=None,
) -> OracleResult:
    """Exhaustive optimum of the 0/1-restricted problem separating the
    endpoints of ``line``; ties favor the lexicographically smallest
    membership vector. The witness is 0/1, so its support is decided
    combinatorially, whatever the reactances."""
    if not (0 <= line < net.line_count):
        raise InputError(f"line id {line} out of range")
    n = net.bus_count
    if n > BINARY_BUS_LIMIT:
        raise SizeLimitError(f"binary oracle refuses more than {BINARY_BUS_LIMIT} buses")
    weights = WeightAssignment.resolve(net, meas, weights)
    edge_costs, node_costs = weights.edge_costs, weights.node_costs
    check_placement(net, meas)

    scale, scaled = scale_to_int(edge_costs, node_costs)
    c_s, p_s = _capacities(*scaled)

    tails, heads = net.endpoints
    su, sv = int(tails[line]), int(heads[line])

    best_val = None
    best_member = None
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        masks = np.arange(start, stop, dtype=np.uint64)
        member = np.zeros((stop - start, n), dtype=bool)
        for b in range(n):
            member[:, b] = (masks >> np.uint64(n - 1 - b)) & np.uint64(1)
        sep = member[:, su] != member[:, sv]
        if not sep.any():
            continue
        member = member[sep]
        cut = member[:, tails] != member[:, heads]
        touched = np.zeros((member.shape[0], n), dtype=bool)
        for idx in range(net.line_count):
            np.logical_or(touched[:, tails[idx]], cut[:, idx], out=touched[:, tails[idx]])
            np.logical_or(touched[:, heads[idx]], cut[:, idx], out=touched[:, heads[idx]])
        values = cut.astype(np.int64) @ c_s + touched.astype(np.int64) @ p_s
        local = int(np.argmin(values))
        if best_val is None or values[local] < best_val:
            best_val = int(values[local])
            best_member = member[local].copy()

    return _verified_result(
        net, build_h(net, meas), edge_costs, node_costs, Fraction(best_val, scale),
        best_member.astype(float),
    )
