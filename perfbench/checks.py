"""Output checks for the three workloads.

The checks read only what ``secindex`` writes (CSV, attack listing, verify
report) and the case documents the benchmark generated; they share no code
with the package. Each returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

CSV_HEADER = "measurement_id,kind,line_or_bus,index,exact,error_bound,method,attack_support"
# Value of ``secindex.power_model.RESIDUAL_TOL`` when this benchmark was defined.
RESIDUAL_TOL = 1e-9
# Entries of a 0/1 attack on these grids are sums of 1/x with x <= 0.5, so a
# touched measurement shifts by at least 2; anything below this is untouched.
TOUCH_TOL = 1e-6
VERIFY_ORACLE_CHECKS = ("oracle-sandwich", "oracle-exactness")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_index_csv(text: str, reference=None) -> list[str]:
    """Check an ``index`` CSV of a case with derived weights, where each index
    counts the measurements its attack touches. ``reference`` is the expected
    list of index strings in row order."""
    problems = []
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return [f"header is {lines[0]!r}"]
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    rows = [ln.split(",") for ln in lines[1:-1]]
    if reference is not None and len(rows) != len(reference):
        return problems + [f"{len(rows)} rows, reference has {len(reference)}"]
    for pos, row in enumerate(rows, start=1):
        if len(row) != 8:
            problems.append(f"row {pos}: {len(row)} fields")
            continue
        ident, _kind, _target, index, _exact, _bound, _method, support = row
        if ident != str(pos):
            problems.append(f"row {pos}: measurement id {ident}")
        if reference is not None and index != reference[pos - 1]:
            problems.append(f"row {pos}: index {index}, reference {reference[pos - 1]}")
        ids = support.split(";") if support else []
        if ident not in ids:
            problems.append(f"row {pos}: attack support lacks measurement {ident}")
        if Fraction(index) != len(ids):
            problems.append(f"row {pos}: index {index} but support of {len(ids)}")
    return problems


def measurement_rows(doc: dict):
    """The case's measurement rows in the global order, each a list of
    (0-based bus, coefficient) pairs: flow_from rows, flow_to rows, then
    injection rows."""
    lines, n, meas = doc["lines"], doc["buses"], doc["measurements"]

    def ids(key, count):
        raw = meas.get(key, [])
        return range(1, count + 1) if raw == "all" else sorted(set(raw))

    rows = []
    for key, sign in (("flow_from", 1.0), ("flow_to", -1.0)):
        for i in ids(key, len(lines)):
            u, v, x = lines[i - 1]
            rows.append([(u - 1, sign / x), (v - 1, -sign / x)])
    incident = [[] for _ in range(n)]
    for u, v, x in lines:
        incident[u - 1].append((u - 1, v - 1, x))
        incident[v - 1].append((v - 1, u - 1, x))
    for bus in ids("injection", n):
        row = []
        for here, other, x in incident[bus - 1]:
            row.append((here, 1.0 / x))
            row.append((other, -1.0 / x))
        rows.append(row)
    return rows


def check_attack(text: str, doc: dict, rows, target: int, expected_index=None):
    """Check an ``attack`` listing against the case. Returns (index, problems)
    where index is the number of measurements the attack touches.

    The measurement shift must be the case's measurement matrix applied to
    the 0/1 angle shift, recomputed here from the line data, it must touch
    the target, and the residual must be within ``RESIDUAL_TOL``."""
    problems = []
    lines = text.split("\n")
    if lines[0] != "quantity,id,value" or lines[-1] != "":
        return None, ["malformed attack listing"]
    theta, dz, residual = [], [], None
    for ln in lines[1:-1]:
        quantity, ident, value = ln.split(",")
        if quantity == "delta_theta":
            theta.append(float(value))
        elif quantity == "delta_z":
            dz.append(float(value))
        elif quantity == "residual_inf_norm":
            residual = float(value)
        else:
            return None, [f"unknown quantity {quantity!r}"]
    if len(theta) != doc["buses"] or len(dz) != len(rows):
        return None, [f"{len(theta)} angles and {len(dz)} shifts for {doc['buses']} buses, {len(rows)} rows"]
    if any(t not in (0.0, 1.0) for t in theta):
        problems.append("angle shift is not a 0/1 vector")
    if residual is None or not residual <= RESIDUAL_TOL:
        problems.append(f"residual {residual} exceeds {RESIDUAL_TOL}")
    touched = 0
    for k, (row, got) in enumerate(zip(rows, dz)):
        want = sum(c * theta[b] for b, c in row)
        if abs(want - got) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"delta_z[{k + 1}] is {got}, recomputed {want}")
            break
        touched += abs(want) > TOUCH_TOL
    if not abs(dz[target - 1]) > TOUCH_TOL:
        problems.append(f"attack does not touch its target {target}")
    if expected_index is not None and touched != expected_index:
        problems.append(f"index {touched}, reference {expected_index}")
    return touched, problems


def check_verify(returncode: int, text: str) -> list[str]:
    """Every line of a ``verify`` report is PASS, and the oracle checks ran."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    names = []
    for ln in text.splitlines():
        status, _, rest = ln.partition(" ")
        if status != "PASS":
            problems.append(ln)
        names.append(rest.split(" ")[0])
    for name in VERIFY_ORACLE_CHECKS:
        if name not in names:
            problems.append(f"no {name} line")
    return problems
