"""Case ingestion: the native JSON case format, a MATPOWER-subset reader,
and the line-oriented costly-cut instance format.

File ids are 1-based (power-systems convention); everything internal is
0-based. Case and instance files cross that boundary here, in the parsers
and ``emit_native``. The command line crosses it in ``cli``: the
``--target`` id (``_target_entry``), the CSV of ``index``
(``_report_csv``), the rows of ``attack`` (``_listing_rows``), and the
sides and edges of ``cut`` (``_cmd_cut``).

Every file is read as UTF-8 text (``read_text``); one that does not decode
is a ``CaseParseError`` that names it. A case's lines become arrays in one
validated pass. The native reader checks its ``lines`` rows in one loop
(``_native_lines``) and names the first failing row with its first
failing check; the MATPOWER reader collects its in-service branches row
by row. Both hand the columns to ``PowerNetwork.from_arrays``, which
converts them to arrays and checks that each susceptance 1/x is
finite and that the network is connected. A placement of ``"all"`` is
read as a ``range``, which ``MeasurementPlacement`` takes without sorting.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .costly_cut import CostlyCutInstance, as_cost
from .errors import CaseParseError, InputError
from .mincut import interleave
from .power_model import MeasurementPlacement, PowerNetwork, WeightAssignment, full_measurement

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


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; a file that does not decode
    is a CaseParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        _fail(str(path), f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}, {exc.reason}")


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
    """A MATPOWER bus id, read as a float, as the positive integer it must
    be: MATPOWER numbers buses from 1."""
    if not value.is_integer():
        _fail(source, f"{where}: bus id {value!r} is not an integer")
    if value < 1:
        _fail(source, f"{where}: bus id {int(value)} is not positive")
    return int(value)


def _meas_ids(source, raw, count, what):
    if raw == "all":
        return range(count)
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


# The one spelling of a weight id, a JSON key: ASCII digits, no leading zero.
_PLAIN_ID = re.compile(r"0|[1-9][0-9]*")


def _parse_weights(source, raw, net, meas, bus_index_of=None):
    """The weights block ``raw`` over the placement's derived weights. Its
    keys are ids written as plain decimal digits; any other spelling is
    refused as it was written. An ``edge_costs`` key is a 1-based line
    position; a ``node_costs`` key is a 1-based bus position, or, for a
    MATPOWER sidecar, the file's bus id, looked up in ``bus_index_of``."""
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
            if not _PLAIN_ID.fullmatch(ident):
                _fail(source, f"weights.{key}: id {ident!r} is not an integer in plain digits")
            try:
                idx = int(ident)
            except ValueError:  # more digits than Python reads: past every id
                idx = math.inf
            if key == "node_costs" and bus_index_of is not None:
                pos = bus_index_of.get(idx)
                if pos is None:
                    _fail(source, f"weights.{key}: unknown bus id {ident}")
            else:
                pos = idx - 1
                if not 0 <= pos < count:
                    _fail(source, f"weights.{key}: id {ident} out of range 1..{count}")
            try:
                vector[pos] = as_cost(value)
            except InputError as exc:
                _fail(source, f"weights.{key}[{ident}]: {exc}")
    return WeightAssignment(edge_costs=tuple(edge_costs), node_costs=tuple(node_costs))


# The least int that ``float`` rounds past the largest float: halfway from
# it, 2**1024 - 2**971, to 2**1024, where ties round to the even 2**1024.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _native_lines(source, rows, buses):
    """The 0-based from buses, to buses and reactances of the native
    ``lines`` rows, as lists, checked row by row: the first row that fails
    is named with its first failing check. Each cell is judged as it was
    written, so a bool is no number and an int past 64 bits is compared
    exactly; ``PowerNetwork.from_arrays`` converts the lists only after its
    O(1) size check, which refuses a bus count past the lines."""
    tails, heads, reactances = [], [], []
    for row in rows:
        if type(row) is not list or len(row) != 3:
            problem = "expected [from, to, reactance]"
        else:
            u, v, x = row
            if type(u) is not int:
                problem = f"bus id {u!r} is not an integer"
            elif not 1 <= u <= buses:
                problem = f"bus id {u} out of range 1..{buses}"
            elif type(v) is not int:
                problem = f"bus id {v!r} is not an integer"
            elif not 1 <= v <= buses:
                problem = f"bus id {v} out of range 1..{buses}"
            elif type(x) is not float and type(x) is not int:
                problem = f"reactance {x!r} is not a number"
            elif u == v:
                problem = f"self-loop at bus {u}"
            elif not 0 < x < math.inf:  # a NaN compares False, as it should
                problem = f"reactance must be positive and finite, got {x}"
            elif x >= _FLOAT_OVERFLOW:
                problem = "reactance is an integer too large for a float"
            else:
                tails.append(u - 1)
                heads.append(v - 1)
                reactances.append(x)
                continue
        # every row before this one was kept
        _fail(source, f"lines[{len(tails)}]: {problem}")
    return tails, heads, reactances


def _check_injections(source, net, meas, bus_ids):
    """Refuse a metered injection that cannot be indexed, naming the first
    such bus by its id in the file, ``bus_ids[bus]``: a bus with no lines,
    or one whose lines' susceptances 1/x sum past the float range, so that
    its row of H would read inf. Each bus's sum is taken in line order, as
    ``build_h`` sums the injection's terms."""
    ends = interleave(*net.endpoints)
    total = np.bincount(ends, weights=np.repeat(net.susceptances(), 2), minlength=net.bus_count)
    metered = total[meas.id_arrays[2]]
    failed = ~((metered > 0) & (metered < math.inf))
    if failed.any():
        bus = meas.injection[int(failed.argmax())]
        why = ("which has no lines" if total[bus] == 0
               else "whose lines' susceptances 1/x sum past the float range")
        _fail(source, f"metered injection at bus {bus_ids[bus]}, {why}")


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
    if not isinstance(doc["lines"], list):
        _fail(source, "lines must be a list")
    tails, heads, reactances = _native_lines(source, doc["lines"], buses)
    if not isinstance(doc["measurements"], dict):
        _fail(source, "measurements must be an object")
    unknown = set(doc["measurements"]) - _MEAS_KEYS
    if unknown:
        _fail(source, f"unknown measurements keys: {sorted(unknown)}")
    try:  # before the placement, which may list every bus
        net = PowerNetwork.from_arrays(buses, tails, heads, reactances)
    except InputError as exc:
        _fail(source, str(exc))
    meas = MeasurementPlacement(
        flow_from=_meas_ids(source, doc["measurements"].get("flow_from", []), net.line_count, "flow_from"),
        flow_to=_meas_ids(source, doc["measurements"].get("flow_to", []), net.line_count, "flow_to"),
        injection=_meas_ids(source, doc["measurements"].get("injection", []), buses, "injection"),
    )
    _check_injections(source, net, meas, range(1, buses + 1))
    weights = None
    if "weights" in doc:
        weights = _parse_weights(source, doc["weights"], net, meas)
    return CaseFile(net=net, meas=meas, weights=weights)


def parse_native(path) -> CaseFile:
    return parse_native_text(read_text(path), source=str(path))


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
    original bus ids (the injection list and the keys of
    ``weights.node_costs``) and 1-based in-service branch positions (the
    flow lists and the keys of ``weights.edge_costs``).
    """
    source = str(path)
    text = read_text(path)
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

    tails, heads, reactances = [], [], []
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
        if fbus == tbus:
            _fail(source, f"branch row {i + 1}: self-loop at bus {fbus}")
        if not 0 < row[3] < math.inf:
            _fail(source, f"branch row {i + 1}: reactance must be positive and finite, got {row[3]}")
        tails.append(index_of[fbus])
        heads.append(index_of[tbus])
        reactances.append(row[3])

    try:
        net = PowerNetwork.from_arrays(len(bus_ids), tails, heads, reactances)
    except InputError as exc:
        _fail(source, str(exc))

    meas = full_measurement(net)
    weights = None
    if sidecar_path is not None:
        meas, weights = _parse_sidecar(sidecar_path, net, index_of)
    _check_injections(source, net, meas, bus_ids)
    return CaseFile(net=net, meas=meas, weights=weights, bus_ids=tuple(bus_ids))


def _parse_sidecar(path, net, bus_index_of):
    source = str(path)
    doc = _json(source, read_text(path))
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
            return range(net.bus_count)
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
        weights = _parse_weights(source, doc["weights"], net, meas, bus_index_of)
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
    return parse_cut_instance_text(read_text(path), source=str(path))
