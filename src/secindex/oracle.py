"""Independent brute-force solvers for the sparse-attack optimization problems.

These oracles certify the min-cut pipeline without sharing its solvers.
They share only the weight derivation (``WeightAssignment``) and the
rational-to-integer scaling helper (``scale_to_int``), and every optimum
they report is re-checked in exact Fractions through ``attack_cost``. Two
continuous solvers are provided:

* ``oracle_continuous`` works on a raw matrix. It enumerates candidate
  nonzero row sets in increasing cost and checks feasibility of each by a
  nullspace computation; the first feasible candidate is optimal. Row
  groups let physically coupled rows (the two flow rows of one line are
  scalar multiples of each other) be switched together.

* ``oracle_continuous_network`` exploits network structure: it enumerates
  every partition of the buses into connected groups (level sets of the
  angle perturbation up to merging of non-adjacent groups), pays metered
  cut lines combinatorially, and decides exactly which metered injections
  can be cancelled by solving for group values in a shrinking subspace.
  One scan prices every edge and injection target at once, which is what
  makes whole-network sweeps affordable.

``oracle_binary`` exhaustively evaluates the 0/1-restricted problem.

All optima are exact rationals; witnesses are verified against their claimed
objective before being returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .costly_cut import as_cost, scale_to_int
from .errors import InputError, InvariantError, SizeLimitError
from .power_model import (
    ZERO_TOL,
    MeasurementPlacement,
    ModelMatrix,
    PowerNetwork,
    WeightAssignment,
    build_h,
)

ROW_LIMIT = 40
BINARY_BUS_LIMIT = 22
PARTITION_LINE_LIMIT = 17
NULLSPACE_TOL = 1e-8
_CHUNK = 1 << 16
_CHUNK_SVD = 4096


@dataclass(frozen=True)
class OracleResult:
    """Optimum (None when infeasible), a verified witness, and its support."""

    optimum: Fraction | None
    witness: np.ndarray | None
    support: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


INFEASIBLE = OracleResult(optimum=None, witness=None, support=())


# ---------------------------------------------------------------------------
# Generic row-set oracle.


def _nullspace(mat: np.ndarray, dim: int) -> np.ndarray:
    if mat.shape[0] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > NULLSPACE_TOL * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:].T


def _pick_off_hyperplanes(basis: np.ndarray, functionals) -> np.ndarray:
    """Deterministic point in the span of ``basis`` with a healthy margin
    against every functional in the list (each is nonzero on the span)."""
    k = basis.shape[1]
    if k == 0:
        raise InvariantError("empty subspace has no generic point")
    rows = [f for f in functionals]
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
        for f in rows:
            fn = np.linalg.norm(f)
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
    relation: str = "equals-one",
    weights=None,
    row_groups=None,
    extra_nonzero: np.ndarray | None = None,
) -> OracleResult:
    """Minimum-cost nonzero pattern of h @ x subject to (h @ x)[row] != 0.

    ``weights`` are nonnegative per-row costs (default 1 each). ``row_groups``
    optionally partitions row indices into groups whose rows are pairwise
    proportional and therefore vanish together. ``extra_nonzero`` is an
    additional functional on x required to be nonzero. With
    relation="equals-one" the witness is scaled so the constraint row maps
    to exactly 1; the optimum itself is scale-invariant either way.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise InputError("h must be a matrix")
    m, dim = h.shape
    if m > ROW_LIMIT:
        raise SizeLimitError(f"row-set oracle refuses more than {ROW_LIMIT} rows")
    if not (0 <= row < m):
        raise InputError(f"constraint row {row} out of range")
    if relation not in ("equals-one", "nonzero"):
        raise InputError(f"unknown relation {relation!r}")
    w = [as_cost(x) for x in weights] if weights is not None else [Fraction(1)] * m
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

    group_weight = [sum((w[i] for i in g), Fraction(0)) for g in groups]
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

    def feasibility(chosen) -> np.ndarray | None:
        allowed = set(free_rows)
        for gi in chosen:
            allowed.update(groups[gi])
        zero_rows = [i for i in range(m) if i not in allowed]
        basis = _nullspace(h[zero_rows], dim)
        if basis.shape[1] == 0:
            return None
        if np.abs(h[row] @ basis).max() <= NULLSPACE_TOL:
            return None
        if extra_nonzero is not None and np.abs(extra_nonzero @ basis).max() <= NULLSPACE_TOL:
            return None
        return basis

    # Everything allowed is the easiest candidate; if that fails, so does all.
    if feasibility(tuple(candidates)) is None:
        return INFEASIBLE

    def finalize(chosen, basis) -> OracleResult:
        functionals = [h[row] @ basis]
        if extra_nonzero is not None:
            functionals.append(extra_nonzero @ basis)
        coeff_point = _pick_off_hyperplanes(np.eye(basis.shape[1]), functionals)
        witness = basis @ coeff_point
        scale = float(h[row] @ witness)
        witness = witness / scale
        support = tuple(int(i) for i in np.flatnonzero(np.abs(h @ witness) > ZERO_TOL))
        cost = base_cost + sum((group_weight[gi] for gi in chosen), Fraction(0))
        support_cost = sum((w[i] for i in support), Fraction(0))
        if support_cost != cost:
            raise InvariantError(
                f"witness support cost {support_cost} disagrees with candidate cost {cost}"
            )
        return OracleResult(optimum=cost, witness=witness, support=support)

    basis = feasibility(())
    if basis is not None:
        return finalize((), basis)

    def zero_rows_for(subset):
        allowed = set(free_rows)
        for i in subset:
            allowed.update(groups[candidates[i]])
        return tuple(i for i in range(m) if i not in allowed)

    def batch_first_feasible(subsets):
        """Index of the first subset whose zero set admits a feasible
        witness, testing a whole stratum with stacked decompositions."""
        by_size = {}
        for pos, subset in enumerate(subsets):
            zr = zero_rows_for(subset)
            by_size.setdefault(len(zr), []).append((pos, zr))
        feasible = set()
        for size, items in by_size.items():
            if size == 0:
                feasible.update(pos for pos, _ in items)
                continue
            for start in range(0, len(items), _CHUNK_SVD):
                part = items[start : start + _CHUNK_SVD]
                stack = np.stack([h[list(zr)] for _, zr in part])
                s, vt = np.linalg.svd(stack, full_matrices=True)[1:]
                s0 = s[:, :1]
                ranks = np.where(
                    s0[:, 0] > 0, (s > NULLSPACE_TOL * s0).sum(axis=1), 0
                )
                f1 = np.abs(vt @ h[row])
                f2 = np.abs(vt @ extra_nonzero) if extra_nonzero is not None else None
                for b, (pos, _) in enumerate(part):
                    rank = int(ranks[b])
                    if rank >= dim:
                        continue
                    if f1[b, rank:].max() <= NULLSPACE_TOL:
                        continue
                    if f2 is not None and f2[b, rank:].max() <= NULLSPACE_TOL:
                        continue
                    feasible.add(pos)
        for pos in range(len(subsets)):
            if pos in feasible:
                return pos
        return None

    # Enumerate nonempty subsets of paid groups in nondecreasing added cost;
    # each subset is generated exactly once (extend-last / replace-last).
    # Equal-cost subsets form a stratum that is tested in one batch; the
    # first feasible one in the deterministic (cost, index tuple) order wins.
    heap = []
    if candidates:
        heapq.heappush(heap, (group_weight[candidates[0]], (0,)))
    while heap:
        cost = heap[0][0]
        stratum = []
        while heap and heap[0][0] == cost:
            _, subset = heapq.heappop(heap)
            stratum.append(subset)
            last = subset[-1]
            if last + 1 < len(candidates):
                nxt = candidates[last + 1]
                heapq.heappush(heap, (cost + group_weight[nxt], subset + (last + 1,)))
                heapq.heappush(
                    heap,
                    (
                        cost - group_weight[candidates[last]] + group_weight[nxt],
                        subset[:-1] + (last + 1,),
                    ),
                )
        winner = batch_first_feasible(stratum)
        if winner is not None:
            chosen = tuple(candidates[i] for i in stratum[winner])
            basis = feasibility(chosen)
            if basis is None:
                raise InvariantError("batched feasibility disagreed with direct check")
            return finalize(chosen, basis)
    raise InvariantError("row-set enumeration exhausted without finding the optimum")


def _proportional(a: np.ndarray, b: np.ndarray) -> bool:
    stacked = np.vstack([a, b])
    _, s, _ = np.linalg.svd(stacked)
    return s.size < 2 or s[1] <= 1e-10 * max(s[0], 1.0)


# ---------------------------------------------------------------------------
# Network partition oracle.


def _connected_partitions(bus_count: int, endpoints) -> list[tuple[int, ...]]:
    """All partitions of the buses into connected groups, each exactly once."""
    parent = list(range(bus_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forbidden: list[tuple[int, int]] = []
    out: list[tuple[int, ...]] = []

    def labels() -> tuple[int, ...]:
        ids = {}
        lab = []
        for b in range(bus_count):
            r = find(b)
            if r not in ids:
                ids[r] = len(ids)
            lab.append(ids[r])
        return tuple(lab)

    def rec(i: int):
        if i == len(endpoints):
            out.append(labels())
            return
        u, v = endpoints[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            rec(i + 1)
            return
        # Same-group branch: contract, then make sure no separated pair merged.
        parent[rv] = ru
        if all(find(a) != find(b) for a, b in forbidden):
            rec(i + 1)
        parent[rv] = rv
        # Different-group branch.
        forbidden.append((u, v))
        rec(i + 1)
        forbidden.pop()

    rec(0)
    return out


def _null_of_row(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Basis of the kernel of a single functional restricted to the span."""
    _, _, vt = np.linalg.svd(vec.reshape(1, -1))
    return basis @ vt[1:].T


class _PartitionView:
    """Per-partition injection analysis data."""

    def __init__(self, labels, cut_lines, net, p_scaled):
        self.labels = labels
        self.cut_lines = cut_lines
        self.group_count = max(labels) + 1
        pairs = set()
        for ln in cut_lines:
            u, v, _ = net.lines[ln]
            a, b = labels[u], labels[v]
            pairs.add((min(a, b), max(a, b)))
        self.pair_functionals = []
        for a, b in sorted(pairs):
            f = np.zeros(self.group_count)
            f[a] = 1.0
            f[b] = -1.0
            self.pair_functionals.append(f)
        # Injection functional per bus over group values; None when no cut
        # incident line (identically zero).
        self.lam = {}
        self.forced = []
        self.cancellable = []
        self.forced_sum = 0
        cut_set = set(cut_lines)
        for bus in range(net.bus_count):
            inc = [ln for ln in net.incident_lines(bus) if ln in cut_set]
            if not inc:
                continue
            f = np.zeros(self.group_count)
            neighbor_groups = set()
            for ln in inc:
                u, v, x = net.lines[ln]
                other = v if u == bus else u
                f[labels[bus]] += 1.0 / x
                f[labels[other]] -= 1.0 / x
                neighbor_groups.add(labels[other])
            self.lam[bus] = f
            if p_scaled[bus] > 0:
                if len(neighbor_groups) == 1:
                    self.forced.append(bus)
                    self.forced_sum += p_scaled[bus]
                else:
                    self.cancellable.append(bus)


def _min_injection_dfs(view, p_scaled, budget, required_bus=None):
    """Least scaled injection cost over choices of which cancellable buses to
    zero, maintaining a subspace of group values on which every adjacent
    pair stays separable (and the required injection stays attainable).

    Returns (cost, zeroed set, final basis) or None when nothing beats
    ``budget`` (or the required functional cannot survive).
    """
    basis0 = np.eye(view.group_count)
    required = view.lam.get(required_bus) if required_bus is not None else None
    if required_bus is not None and required is None:
        return None
    cancellable = view.cancellable
    best = None

    def ok(basis) -> bool:
        for f in view.pair_functionals:
            if np.abs(f @ basis).max() <= NULLSPACE_TOL:
                return False
        if required is not None and np.abs(required @ basis).max() <= NULLSPACE_TOL:
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
            if np.abs(restricted).max() <= NULLSPACE_TOL:
                rec(i + 1, basis, nonzero_cost, zeroed + [bus])
            else:
                shrunk = _null_of_row(basis, restricted)
                if shrunk.shape[1] > 0 and ok(shrunk):
                    rec(i + 1, shrunk, nonzero_cost, zeroed + [bus])
        rec(i + 1, basis, nonzero_cost + p_scaled[bus], zeroed)

    rec(0, basis0, 0, [])
    return best


def _witness_from_partition(view, zeroed, basis, scale_row=None):
    functionals = list(view.pair_functionals)
    for bus in view.cancellable:
        if bus not in zeroed:
            functionals.append(view.lam[bus])
    if scale_row is not None:
        functionals.append(scale_row)
    y = _pick_off_hyperplanes(basis, functionals)
    dtheta = y[np.array(view.labels)]
    if scale_row is not None:
        dtheta = dtheta / float(scale_row @ y)
    return dtheta


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
    injection there). Witnesses are normalized so the target row maps to 1.
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
    c_s = np.array(c_s, dtype=np.int64)

    tails = np.array([u for (u, _, _) in net.lines], dtype=np.intp)
    heads = np.array([v for (_, v, _) in net.lines], dtype=np.intp)

    partitions = _connected_partitions(net.bus_count, [(u, v) for (u, v, _) in net.lines])
    records = []
    for labels in partitions:
        lab = np.array(labels, dtype=np.intp)
        cut = lab[tails] != lab[heads]
        flow = int(cut @ c_s) if net.line_count else 0
        records.append((flow, labels, tuple(int(i) for i in np.flatnonzero(cut))))
    records.sort(key=lambda rec: (rec[0], rec[1]))

    edge_best = {line: None for line in edge_targets}
    node_best = {bus: None for bus in node_targets}

    def resolved_bound():
        payloads = list(edge_best.values()) + list(node_best.values())
        if any(v is None for v in payloads):
            return None
        return max((v[0] for v in payloads), default=0)

    for flow, labels, cut_lines in records:
        bound = resolved_bound()
        if bound is not None and flow >= bound:
            break
        view = None
        base = None  # (cost, zeroed, basis) without target constraints
        for line in edge_best:
            u, v, _ = net.lines[line]
            if labels[u] == labels[v]:
                continue
            current = edge_best[line]
            budget = (current[0] - flow) if current is not None else (1 << 62)
            if budget <= 0:
                continue
            if view is None:
                view = _PartitionView(labels, cut_lines, net, p_s)
            if base is None:
                base = _min_injection_dfs(view, p_s, 1 << 62)
            if base is not None and base[0] < budget:
                edge_best[line] = (flow + base[0], view, base)
        for bus in node_best:
            current = node_best[bus]
            budget = (current[0] - flow) if current is not None else (1 << 62)
            if budget <= 0:
                continue
            if view is None:
                view = _PartitionView(labels, cut_lines, net, p_s)
            if view.lam.get(bus) is None:
                continue
            found = _min_injection_dfs(view, p_s, budget, required_bus=bus)
            if found is not None:
                node_best[bus] = (flow + found[0], view, found)

    results = {}
    for line, payload in edge_best.items():
        if payload is None:
            results[("edge", line)] = INFEASIBLE
            continue
        total, view, (cost, zeroed, basis) = payload
        u, v, x = net.lines[line]
        row = np.zeros(view.group_count)
        row[view.labels[u]] += 1.0 / x
        row[view.labels[v]] -= 1.0 / x
        dtheta = _witness_from_partition(view, zeroed, basis, scale_row=row)
        results[("edge", line)] = _verified_result(
            net, model, edge_costs, node_costs, Fraction(total, scale), dtheta
        )
    for bus, payload in node_best.items():
        if payload is None:
            results[("node", bus)] = INFEASIBLE
            continue
        total, view, (cost, zeroed, basis) = payload
        dtheta = _witness_from_partition(view, zeroed, basis, scale_row=view.lam[bus])
        results[("node", bus)] = _verified_result(
            net, model, edge_costs, node_costs, Fraction(total, scale), dtheta
        )
    return results


def attack_cost(net: PowerNetwork, edge_costs, node_costs, dtheta, tol=ZERO_TOL) -> Fraction:
    """Structural objective of an angle perturbation: cut-line costs plus
    charges for buses with nonzero net injection shift."""
    dtheta = np.asarray(dtheta, dtype=float)
    total = Fraction(0)
    inj = np.zeros(net.bus_count)
    for (u, v, x), c in zip(net.lines, edge_costs):
        diff = (dtheta[u] - dtheta[v]) / x
        if abs(diff) > tol:
            total += c
        inj[u] += diff
        inj[v] -= diff
    for bus, p in enumerate(node_costs):
        if abs(inj[bus]) > tol:
            total += p
    return total


def _verified_result(net, model, edge_costs, node_costs, optimum, dtheta) -> OracleResult:
    recomputed = attack_cost(net, edge_costs, node_costs, dtheta)
    if recomputed != optimum:
        raise InvariantError(
            f"witness objective {recomputed} disagrees with combinatorial optimum {optimum}"
        )
    support = tuple(
        int(i) for i in np.flatnonzero(np.abs(model.h @ dtheta) > ZERO_TOL)
    )
    return OracleResult(optimum=optimum, witness=dtheta, support=support)


# ---------------------------------------------------------------------------
# Binary oracle.


def oracle_binary(
    net: PowerNetwork,
    meas: MeasurementPlacement,
    line: int,
    weights=None,
    model: ModelMatrix | None = None,
) -> OracleResult:
    """Exhaustive optimum of the 0/1-restricted problem separating the
    endpoints of ``line``; ties favor the lexicographically smallest
    membership vector."""
    if not (0 <= line < net.line_count):
        raise InputError(f"line id {line} out of range")
    n = net.bus_count
    if n > BINARY_BUS_LIMIT:
        raise SizeLimitError(f"binary oracle refuses more than {BINARY_BUS_LIMIT} buses")
    weights = WeightAssignment.resolve(net, meas, weights)
    edge_costs, node_costs = weights.edge_costs, weights.node_costs
    if model is None:
        model = build_h(net, meas)

    scale, scaled = scale_to_int(edge_costs, node_costs)
    c_s, p_s = (np.array(group, dtype=np.int64) for group in scaled)

    tails = np.array([u for (u, _, _) in net.lines], dtype=np.intp)
    heads = np.array([v for (_, v, _) in net.lines], dtype=np.intp)
    su, sv = net.lines[line][0], net.lines[line][1]

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

    dtheta = best_member.astype(float)
    optimum = Fraction(best_val, scale)
    recomputed = attack_cost(net, edge_costs, node_costs, dtheta)
    if recomputed != optimum:
        raise InvariantError("binary oracle objective recomputation mismatch")
    support = tuple(int(i) for i in np.flatnonzero(np.abs(model.h @ dtheta) > ZERO_TOL))
    return OracleResult(optimum=optimum, witness=dtheta, support=support)
