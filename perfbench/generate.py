"""Deterministic case generators for the benchmark workloads.

Cases are native ``secindex`` JSON documents. They depend only on the seed
(and, for the desk stream, on the case number), never on the program under
test, and are serialised with :func:`dump` so that the same seed always gives
the same bytes. Randomness comes from :class:`random.Random` seeded with a
string, whose sequence is stable across Python versions.

* :func:`meshed_grid`: the 2383-bus synthetic grid of ``attack-2383``, the
  size of the paper's timing study. Buses sit on a square lattice; a random
  spanning tree of the lattice keeps the grid connected and random extra
  lattice edges bring it to about 1.5 lines per bus, so it is meshed but
  sparse like a transmission grid. Every line and bus is metered (full
  measurement), which on a connected grid is observable.
* :func:`desk_case`: one case of the ``verify-desk`` stream, over the whole
  range that every oracle check of ``secindex verify`` accepts (4 to 12
  buses, at most 17 lines), with a random partial placement redrawn until it
  is observable and, for about a third of the cases, custom rational weights.
  Case sizes cycle through all size classes in a fixed interleaved order, so
  that every stretch of the stream has nearly the same mix of sizes.
"""

from __future__ import annotations

import json
import random

import numpy as np

GRID_BUSES = 2383
GRID_LINES_PER_BUS = 1.5
ALL = "all"

DESK_MIN_BUSES = 4
DESK_MAX_BUSES = 12
DESK_MAX_LINES = 17  # the partition oracle's limit
# Each metered quantity is kept with a probability drawn from this range:
# below it most draws are unobservable and get redrawn, above it the
# placement is nearly full and the bound path and heuristics see little.
DESK_PLACEMENT_SHARE = (0.35, 0.9)
DESK_WEIGHTED_SHARE = 0.3  # "some" cases carry custom rational weights
DESK_COSTS = ("1/3", "1/2", "2/3", "5/4", "3/2", 2, 3)


def dump(doc) -> bytes:
    """Canonical bytes of a case document."""
    return (json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n").encode()


def observable(doc) -> bool:
    """Whether a listed placement determines every angle but the reference
    one: the measurement matrix without its first column has full column
    rank."""
    n, lines, meas = doc["buses"], doc["lines"], doc["measurements"]
    rows = []
    for key, sign in (("flow_from", 1.0), ("flow_to", -1.0)):
        for i in meas[key]:
            u, v, x = lines[i - 1]
            row = np.zeros(n)
            row[u - 1] += sign / x
            row[v - 1] -= sign / x
            rows.append(row)
    for bus in meas["injection"]:
        row = np.zeros(n)
        for u, v, x in lines:
            if bus in (u, v):
                row[bus - 1] += 1.0 / x
                row[(v if u == bus else u) - 1] -= 1.0 / x
        rows.append(row)
    if not rows:
        return False
    return int(np.linalg.matrix_rank(np.array(rows)[:, 1:])) == n - 1


def _spanning_tree_plus(rng, bus_count, candidates, line_count):
    """A random spanning tree drawn from ``candidates`` (0-based pairs), then
    further candidates in random order until ``line_count`` lines."""
    rng.shuffle(candidates)
    parent = list(range(bus_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, rest = [], []
    for u, v in candidates:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            rest.append((u, v))
    return sorted(tree + rest[: line_count - len(tree)])


def meshed_grid(seed: int, buses: int = GRID_BUSES) -> dict:
    """The seeded synthetic meshed grid, fully measured."""
    rng = random.Random(f"meshed-grid-{seed}")
    side = 1
    while side * side < buses:
        side += 1
    candidates = []
    for b in range(buses):
        if (b + 1) % side and b + 1 < buses:
            candidates.append((b, b + 1))
        if b + side < buses:
            candidates.append((b, b + side))
    edges = _spanning_tree_plus(rng, buses, candidates, round(GRID_LINES_PER_BUS * buses))
    lines = [[u + 1, v + 1, round(rng.uniform(0.01, 0.5), 4)] for u, v in edges]
    return {
        "buses": buses,
        "lines": lines,
        "measurements": {"flow_from": ALL, "flow_to": ALL, "injection": ALL},
    }


def grid_targets(seed: int, doc: dict, count: int) -> list[int]:
    """1-based measurement ids to attack, drawn across the three kinds
    (the global order is flow_from rows, flow_to rows, injection rows)."""
    rng = random.Random(f"grid-targets-{seed}")
    m, n = len(doc["lines"]), doc["buses"]
    offsets = {"flow_from": (0, m), "flow_to": (m, m), "injection": (2 * m, n)}
    out = []
    for _ in range(count):
        offset, size = offsets[rng.choice(sorted(offsets))]
        out.append(offset + rng.randrange(size) + 1)
    return out


# Every (buses, lines) size class a connected simple graph can have within
# the oracle limits: from a spanning tree up to DESK_MAX_LINES lines or the
# complete graph. That is 79 classes; verify takes about 10 ms on the
# smallest and 0.5 s on (12, 17).
DESK_CLASSES = tuple(
    (n, m)
    for n in range(DESK_MIN_BUSES, DESK_MAX_BUSES + 1)
    for m in range(n - 1, min(DESK_MAX_LINES, n * (n - 1) // 2) + 1)
)
# Case i has size class (i * stride) mod len(DESK_CLASSES); the stride is
# coprime with the (prime) class count and near its golden section, so any stretch
# of the stream mixes small and large cases in nearly fixed proportions and a
# run's figures do not hinge on where its time limit cuts the stream.
DESK_STRIDE = 49


def desk_case(seed: int, index: int) -> dict:
    """Case ``index`` (0-based) of the seeded ``verify-desk`` stream."""
    n, m = DESK_CLASSES[index * DESK_STRIDE % len(DESK_CLASSES)]
    rng = random.Random(f"desk-case-{seed}-{index}")
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = _spanning_tree_plus(rng, n, pairs, m)
        lines = [[u + 1, v + 1, round(rng.uniform(0.05, 1.0), 3)] for u, v in edges]
        share = rng.uniform(*DESK_PLACEMENT_SHARE)
        doc = {
            "buses": n,
            "lines": lines,
            "measurements": {
                "flow_from": [i for i in range(1, m + 1) if rng.random() < share],
                "flow_to": [i for i in range(1, m + 1) if rng.random() < share],
                "injection": [b for b in range(1, n + 1) if rng.random() < share],
            },
        }
        if observable(doc):
            break
    if rng.random() < DESK_WEIGHTED_SHARE:
        doc["weights"] = {
            "edge_costs": {
                str(i): rng.choice(DESK_COSTS) for i in rng.sample(range(1, m + 1), rng.randint(1, m))
            },
            "node_costs": {
                str(b): rng.choice(DESK_COSTS) for b in rng.sample(range(1, n + 1), rng.randint(1, n))
            },
        }
    return doc
