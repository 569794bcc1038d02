"""Case ingestion: the native JSON case format, a MATPOWER-subset reader,
and the line-oriented costly-cut instance format.

File ids are 1-based (power-systems convention); everything internal is
0-based. Case and instance files cross that boundary here, in the parsers
and ``emit_native``. The command line crosses it in ``cli``: the
``--target`` id (``_target_entry``), the CSV of ``index``
(``_report_csv``), the rows of ``attack`` (``_cmd_attack``), and the sides
and edges of ``cut`` (``_cmd_cut``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .costly_cut import CostlyCutInstance, as_cost
from .errors import CaseParseError, InputError
from .power_model import MeasurementPlacement, PowerNetwork, WeightAssignment

_TOP_KEYS = {"buses", "lines", "measurements", "weights"}
_MEAS_KEYS = {"flow_from", "flow_to", "injection"}
_WEIGHT_KEYS = {"edge_costs", "node_costs"}


@dataclass(frozen=True)
class CaseFile:
    """A parsed case: network, placement, optional weight overrides, and
    (for renumbered sources) the original bus id per internal index."""

    net: PowerNetwork
    meas: MeasurementPlacement
    weights: WeightAssignment | None = None
    bus_ids: tuple[int, ...] | None = None


def _fail(source: str, msg: str):
    raise CaseParseError(f"{source}: {msg}")


def _check_line(source, where, fbus, tbus, x):
    """The checks of one line that name its buses, by the file's ids."""
    if fbus == tbus:
        _fail(source, f"{where}: self-loop at bus {fbus}")
    if not 0 < x < math.inf:
        _fail(source, f"{where}: reactance must be positive and finite, got {x}")


def _json(source, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseParseError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise CaseParseError(f"{source}: {exc}") from exc


def _bus_id(source, where, value):
    """A MATPOWER bus id, read as a float, as the integer it must be."""
    if not value.is_integer():
        _fail(source, f"{where}: bus id {value!r} is not an integer")
    return int(value)


def _meas_ids(source, raw, count, what):
    if raw == "all":
        return tuple(range(count))
    if not isinstance(raw, list):
        _fail(source, f"measurements.{what} must be a list of ids or \"all\"")
    out = []
    for item in raw:
        if not isinstance(item, int) or isinstance(item, bool):
            _fail(source, f"measurements.{what}: id {item!r} is not an integer")
        if not (1 <= item <= count):
            _fail(source, f"measurements.{what}: id {item} out of range 1..{count}")
        out.append(item - 1)
    return tuple(out)


def _parse_weights(source, raw, net, meas):
    if not isinstance(raw, dict):
        _fail(source, "weights must be an object")
    unknown = set(raw) - _WEIGHT_KEYS
    if unknown:
        _fail(source, f"unknown weights keys: {sorted(unknown)}")
    base = WeightAssignment.from_placement(net, meas)
    edge_costs = list(base.edge_costs)
    node_costs = list(base.node_costs)
    for key, vector, count in (
        ("edge_costs", edge_costs, net.line_count),
        ("node_costs", node_costs, net.bus_count),
    ):
        costs = raw.get(key, {})
        if not isinstance(costs, dict):
            _fail(source, f"weights.{key} must be an object")
        for ident, value in costs.items():
            try:
                idx = int(ident)
            except ValueError:
                _fail(source, f"weights.{key}: id {ident!r} is not an integer")
            if not (1 <= idx <= count):
                _fail(source, f"weights.{key}: id {idx} out of range 1..{count}")
            try:
                vector[idx - 1] = as_cost(value)
            except InputError as exc:
                _fail(source, f"weights.{key}[{ident}]: {exc}")
    return WeightAssignment(edge_costs=tuple(edge_costs), node_costs=tuple(node_costs))


def parse_native_text(text: str, source: str = "<case>") -> CaseFile:
    doc = _json(source, text)
    if not isinstance(doc, dict):
        _fail(source, "top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(source, f"unknown keys: {sorted(unknown)}")
    for key in ("buses", "lines", "measurements"):
        if key not in doc:
            _fail(source, f"missing key {key!r}")
    buses = doc["buses"]
    if not isinstance(buses, int) or isinstance(buses, bool) or buses < 1:
        _fail(source, "buses must be a positive integer")
    lines = []
    if not isinstance(doc["lines"], list):
        _fail(source, "lines must be a list")
    for i, row in enumerate(doc["lines"]):
        if not (isinstance(row, list) and len(row) == 3):
            _fail(source, f"lines[{i}]: expected [from, to, reactance]")
        u, v, x = row
        for end in (u, v):
            if not isinstance(end, int) or isinstance(end, bool):
                _fail(source, f"lines[{i}]: bus id {end!r} is not an integer")
            if not (1 <= end <= buses):
                _fail(source, f"lines[{i}]: bus id {end} out of range 1..{buses}")
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            _fail(source, f"lines[{i}]: reactance {x!r} is not a number")
        _check_line(source, f"lines[{i}]", u, v, x)
        try:
            lines.append((u - 1, v - 1, float(x)))
        except OverflowError:
            _fail(source, f"lines[{i}]: reactance is an integer too large for a float")
    if not isinstance(doc["measurements"], dict):
        _fail(source, "measurements must be an object")
    unknown = set(doc["measurements"]) - _MEAS_KEYS
    if unknown:
        _fail(source, f"unknown measurements keys: {sorted(unknown)}")
    try:  # before the placement, which may list every bus
        net = PowerNetwork(bus_count=buses, lines=tuple(lines))
    except InputError as exc:
        _fail(source, str(exc))
    meas = MeasurementPlacement(
        flow_from=_meas_ids(source, doc["measurements"].get("flow_from", []), len(lines), "flow_from"),
        flow_to=_meas_ids(source, doc["measurements"].get("flow_to", []), len(lines), "flow_to"),
        injection=_meas_ids(source, doc["measurements"].get("injection", []), buses, "injection"),
    )
    weights = None
    if "weights" in doc:
        weights = _parse_weights(source, doc["weights"], net, meas)
    return CaseFile(net=net, meas=meas, weights=weights)


def parse_native(path) -> CaseFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_native_text(fh.read(), source=str(path))


def _cost_json(value: int | Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def emit_native(case: CaseFile) -> str:
    doc = {
        "buses": case.net.bus_count,
        "lines": [[u + 1, v + 1, x] for (u, v, x) in case.net.lines],
        "measurements": {
            "flow_from": [i + 1 for i in case.meas.flow_from],
            "flow_to": [i + 1 for i in case.meas.flow_to],
            "injection": [i + 1 for i in case.meas.injection],
        },
    }
    if case.weights is not None:
        doc["weights"] = {
            "edge_costs": {
                str(i + 1): _cost_json(c) for i, c in enumerate(case.weights.edge_costs)
            },
            "node_costs": {
                str(i + 1): _cost_json(p) for i, p in enumerate(case.weights.node_costs)
            },
        }
    return json.dumps(doc, indent=2) + "\n"


_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)


def _matrix_rows(source, name, blob):
    rows = []
    for lineno, line in enumerate(blob.splitlines()):
        line = line.split("%", 1)[0].replace(";", " ").strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError:
            _fail(source, f"{name}: non-numeric token in row {lineno + 1}: {line!r}")
    return rows


def parse_matpower_subset(path, sidecar_path=None) -> CaseFile:
    """Read only the bus and branch matrices of a MATPOWER-style case text.

    Branch endpoints come from columns 1-2 and reactance from column 4;
    out-of-service branches (status column 11 equal to 0) are skipped. Bus
    ids are renumbered densely in order of appearance, with the original id
    kept per internal index. The placement defaults to full measurement; a
    sidecar native file (keys: measurements, weights) overrides it, using
    original bus ids and 1-based in-service branch positions.
    """
    source = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    matrices = {m.group(1): m.group(2) for m in _MATRIX_RE.finditer(text)}
    for required in ("bus", "branch"):
        if required not in matrices:
            _fail(source, f"missing mpc.{required} matrix")
    bus_rows = _matrix_rows(source, "bus", matrices["bus"])
    branch_rows = _matrix_rows(source, "branch", matrices["branch"])
    if not bus_rows:
        _fail(source, "bus matrix is empty")

    bus_ids = []
    index_of = {}
    for i, row in enumerate(bus_rows):
        ident = _bus_id(source, f"bus row {i + 1}", row[0])
        if ident in index_of:
            _fail(source, f"duplicate bus id {ident}")
        index_of[ident] = len(bus_ids)
        bus_ids.append(ident)

    lines = []
    for i, row in enumerate(branch_rows):
        if len(row) < 4:
            _fail(source, f"branch row {i + 1}: need at least 4 columns")
        status = row[10] if len(row) > 10 else 1.0
        if status == 0:
            continue
        fbus, tbus = (_bus_id(source, f"branch row {i + 1}", end) for end in row[:2])
        for end in (fbus, tbus):
            if end not in index_of:
                _fail(source, f"branch row {i + 1}: unknown bus id {end}")
        _check_line(source, f"branch row {i + 1}", fbus, tbus, row[3])
        lines.append((index_of[fbus], index_of[tbus], float(row[3])))

    try:
        net = PowerNetwork(bus_count=len(bus_ids), lines=tuple(lines))
    except InputError as exc:
        _fail(source, str(exc))

    meas = MeasurementPlacement(
        flow_from=tuple(range(net.line_count)),
        flow_to=tuple(range(net.line_count)),
        injection=tuple(range(net.bus_count)),
    )
    weights = None
    if sidecar_path is not None:
        meas, weights = _parse_sidecar(sidecar_path, net, index_of)
    return CaseFile(net=net, meas=meas, weights=weights, bus_ids=tuple(bus_ids))


def _parse_sidecar(path, net, bus_index_of):
    source = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = _json(source, fh.read())
    if not isinstance(doc, dict):
        _fail(source, "top level must be an object")
    unknown = set(doc) - {"measurements", "weights"}
    if unknown:
        _fail(source, f"unknown keys: {sorted(unknown)}")
    raw = doc.get("measurements", {})
    if not isinstance(raw, dict):
        _fail(source, "measurements must be an object")
    unknown = set(raw) - _MEAS_KEYS
    if unknown:
        _fail(source, f"unknown measurements keys: {sorted(unknown)}")

    def buses(raw_ids):
        if raw_ids == "all":
            return tuple(range(net.bus_count))
        if not isinstance(raw_ids, list):
            _fail(source, 'measurements.injection must be a list of bus ids or "all"')
        out = []
        for ident in raw_ids:
            # JSON true and 1.0 equal the id 1 as dict keys; only ints are ids
            if not isinstance(ident, int) or isinstance(ident, bool):
                _fail(source, f"unknown bus id {ident!r}: not an integer")
            if ident not in bus_index_of:
                _fail(source, f"unknown bus id {ident}")
            out.append(bus_index_of[ident])
        return tuple(out)

    meas = MeasurementPlacement(
        flow_from=_meas_ids(source, raw.get("flow_from", "all"), net.line_count, "flow_from"),
        flow_to=_meas_ids(source, raw.get("flow_to", "all"), net.line_count, "flow_to"),
        injection=buses(raw.get("injection", "all")),
    )
    weights = None
    if "weights" in doc:
        weights = _parse_weights(source, doc["weights"], net, meas)
    return meas, weights


def parse_cut_instance_text(text: str, source: str = "<instance>") -> CostlyCutInstance:
    """Line-oriented costly-cut instance: `nodes N`, then `edge from to cost`,
    `node id cost`, `source id`, and `sink id` lines (1-based ids)."""
    node_count = None
    edges = []
    node_costs = {}
    source_id = None
    sink_id = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        where = f"{source}: line {lineno}"

        def need(count):
            if len(args) != count:
                raise CaseParseError(f"{where}: {keyword} expects {count} arguments")

        try:
            if keyword == "nodes":
                need(1)
                node_count = int(args[0])
            elif keyword == "edge":
                need(3)
                edges.append((int(args[0]) - 1, int(args[1]) - 1, as_cost(args[2])))
            elif keyword == "node":
                need(2)
                node_costs[int(args[0]) - 1] = as_cost(args[1])
            elif keyword == "source":
                need(1)
                source_id = int(args[0]) - 1
            elif keyword == "sink":
                need(1)
                sink_id = int(args[0]) - 1
            else:
                raise CaseParseError(f"{where}: unknown directive {keyword!r}")
        except CaseParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise CaseParseError(f"{where}: {exc}") from exc
    if node_count is None:
        _fail(source, "missing `nodes` line")
    if source_id is None or sink_id is None:
        _fail(source, "missing `source` or `sink` line")
    for ident in node_costs:
        if not (0 <= ident < node_count):
            _fail(source, f"node id {ident + 1} out of range")
    costs = tuple(node_costs.get(i, 0) for i in range(node_count))
    try:
        return CostlyCutInstance(
            node_count=node_count,
            edges=tuple(edges),
            node_costs=costs,
            source=source_id,
            sink=sink_id,
        )
    except InputError as exc:
        _fail(source, str(exc))


def parse_cut_instance(path) -> CostlyCutInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cut_instance_text(fh.read(), source=str(path))
