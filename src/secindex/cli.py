"""Command-line interface.

Subcommands: ``index`` (per-measurement security indices as CSV),
``verify`` (oracle cross-checks on a case), ``attack`` (emit one attack
vector), ``cut`` (solve a raw costly-cut instance), and ``gadget``
(one-in-three 3SAT satisfiability via the hardness construction).

Exit codes: 0 success, 1 input error, 2 internal invariant violation. A
reader that closes stdout early (``secindex index case | head``) is not an
error: the command stops quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import caseio, costly_cut, indices, oracle
from .errors import InputError, InvariantError, SizeLimitError
from .power_model import (
    INJECTION,
    ZERO_TOL,
    bdd_residual,
    build_3sat_gadget,
    build_h,
    is_observable,
    residual_tolerance,
)

CSV_HEADER = "measurement_id,kind,line_or_bus,index,exact,error_bound,method,attack_support"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _fmt_fraction(value: int | Fraction | None) -> str:
    if value is None:
        return ""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _load_case(path, sidecar=None) -> caseio.CaseFile:
    if str(path).endswith(".m"):
        return caseio.parse_matpower_subset(path, sidecar_path=sidecar)
    if sidecar is not None:
        raise InputError("--measurements sidecar only applies to MATPOWER cases")
    return caseio.parse_native(path)


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _report_csv(report: indices.IndexReport, bus_ids) -> str:
    """The index CSV of ``report``. A line is named by its 1-based position,
    a bus by its id in the case file, ``bus_ids[bus]``, or by its 1-based
    position where the case has no ids of its own."""
    rows = [CSV_HEADER]
    for e in report.entries:
        support = ";".join(str(i + 1) for i in e.attack.support)
        target = bus_ids[e.target] if bus_ids and e.kind == INJECTION else e.target + 1
        rows.append(
            ",".join(
                [
                    str(e.measurement + 1),
                    e.kind,
                    str(target),
                    _fmt_fraction(e.index),
                    "true" if e.exact else "false",
                    _fmt_fraction(e.error_bound),
                    e.method,
                    support,
                ]
            )
        )
    return "\n".join(rows) + "\n"


def _target_entry(case: caseio.CaseFile, target: int, method: str) -> indices.IndexEntry:
    """The entry of the 1-based measurement id ``target``, computed alone."""
    count = case.meas.measurement_count
    if not (1 <= target <= count):
        raise InputError(f"--target {target} out of range 1..{count}")
    return indices.index_target(case.net, case.meas, case.weights, target - 1, method=method)


def _cmd_index(args) -> int:
    case = _load_case(args.case, sidecar=args.measurements)
    if args.target is None:
        report = indices.index_all(case.net, case.meas, case.weights, method=args.method)
    else:
        report = indices.IndexReport(entries=(_target_entry(case, args.target, args.method),))
    _write(_report_csv(report, case.bus_ids), args.out)
    return 0


def _listing_rows(name: bytes, values: np.ndarray) -> bytes:
    """The rows ``name,<id>,<repr(float(value))>`` of ``values``, ids
    1-based, as bytes. ``repr`` is called once per run of values equal bit
    for bit (so -0.0 stays apart from 0.0). Each run's template row, NUL
    where the id's digits go and after the value, is copied down the run
    into one (rows x width) ``uint8`` array; the ids' digits are written
    one column at a time, and the NULs left before short ids and after
    short values are dropped. So a listing costs some tens of NumPy calls
    and work in proportion to its bytes, plus one ``repr`` per run."""
    count = len(values)
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    head = name + b"," + b"\0" * len(str(count))
    templates = [head + f",{value!r}\n".encode() for value in values[starts].tolist()]
    width = max(map(len, templates))
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in templates), np.uint8)
    runs = np.repeat(np.arange(len(starts)), np.diff(starts, append=count))
    rows = np.take(table.reshape(len(starts), width), runs, axis=0)
    ids = np.arange(1, count + 1)
    for k, column in enumerate(range(len(head) - 1, len(name), -1)):
        # digit k of every id from 10**k on, which has one
        rows[10**k - 1:, column] = ids[10**k - 1:] // 10**k % 10 + ord("0")
    return rows[rows != 0].tobytes()


def _cmd_attack(args) -> int:
    case = _load_case(args.case, sidecar=args.measurements)
    attack = _target_entry(case, args.target, indices.METHOD_EXACT).attack
    listing = b"".join((
        b"quantity,id,value\n",
        _listing_rows(b"delta_theta", attack.delta_theta),
        _listing_rows(b"delta_z", attack.delta_z),
        f"residual_inf_norm,,{float(attack.residual_inf)!r}\n".encode(),
    ))
    _write(listing.decode(), args.out)
    return 0


def _cmd_cut(args) -> int:
    inst = caseio.parse_cut_instance(args.instance)
    sol = costly_cut.solve(inst)
    print(f"objective {_fmt_fraction(sol.objective)}")
    print("source_side " + " ".join(str(i + 1) for i in sorted(sol.source_side)))
    sink_side = (i for i in range(inst.node_count) if i not in sol.source_side)
    print("sink_side " + " ".join(str(i + 1) for i in sink_side))
    print("cut_edges " + " ".join(str(i + 1) for i in sol.cut_edges))
    print("charged_nodes " + " ".join(str(i + 1) for i in sorted(sol.charged_nodes)))
    return 0


def _read_clauses(path):
    """``(variable count, clauses)`` of a ``.clauses`` file: one ``vars <n>``
    line and one line of three 1-based variable ids per clause, ``#``
    comments and blank lines ignored. Every error names the file and the
    line."""
    text = caseio.read_text(path)
    n_vars = None
    clauses = []  # (where, triple)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}: line {lineno}"
        tokens = line.split()
        is_vars = tokens[0] == "vars"
        try:
            numbers = tuple(int(t) for t in tokens[is_vars:])
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
        if not is_vars:
            if len(numbers) != 3:
                raise InputError(f"{where}: expected a triple, got {numbers}")
            clauses.append((where, numbers))
        elif n_vars is not None:
            raise InputError(f"{where}: a second `vars` line")
        elif len(numbers) != 1:
            raise InputError(f"{where}: expected `vars <n>`")
        elif numbers[0] < 1:
            raise InputError(f"{where}: need at least one variable")
        else:
            n_vars = numbers[0]
    if n_vars is None:
        raise InputError(f"{path}: missing `vars <n>` line")
    for where, triple in clauses:
        for i in triple:
            if not 1 <= i <= n_vars:
                raise InputError(f"{where}: variable {i} out of range 1..{n_vars}")
    return n_vars, [triple for _, triple in clauses]


def _cmd_gadget(args) -> int:
    n_vars, clauses = _read_clauses(args.clauses)
    # The gadget meters 3 + 2 rows per variable + 2 per clause; a gadget
    # the oracle would refuse is refused before it is built.
    rows = 3 + 2 * n_vars + 2 * len(clauses)
    if rows > oracle.ROW_LIMIT:
        raise SizeLimitError(
            f"{args.clauses}: the gadget would have {rows} rows; "
            f"the row-set oracle refuses more than {oracle.ROW_LIMIT}"
        )
    gadget = build_3sat_gadget(clauses, n_vars)
    model = build_h(gadget.net, gadget.meas)
    result = oracle.oracle_continuous(model.h, gadget.target)
    threshold = n_vars + 1
    optimum = result.optimum
    verdict = "satisfiable" if optimum == threshold else "unsatisfiable"
    print(f"variables {n_vars}")
    print(f"clauses {len(clauses)}")
    print(f"optimum {_fmt_fraction(optimum)}")
    print(f"threshold {threshold}")
    print(f"verdict {verdict}")
    return 0


def _cmd_verify(args) -> int:
    case = _load_case(args.case, sidecar=args.measurements)
    net, meas = case.net, case.meas
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        suffix = f" ({detail})" if detail else ""
        print(f"{'PASS' if passed else 'FAIL'} {name}{suffix}")

    # Each row of H must sum to zero up to rounding, judged as
    # ModelMatrix.apply judges a support, relative to the row's magnitude,
    # so the verdict does not depend on the scale of the reactances.
    model = build_h(net, meas)
    row_sums = np.abs(model.h.sum(axis=1))
    passed = bool(np.all(row_sums <= ZERO_TOL * np.abs(model.h).sum(axis=1)))
    report("row-sums-zero", passed, f"max {row_sums.max(initial=0.0):.2e}")

    if meas.measurement_count:
        report("observable", is_observable(model))

    # The three methods' reports come from one case state, which builds
    # each distinct attack once. Each attack is certified by its witness residual, which
    # ``attack_from_partition`` has already held to the residual guard's
    # bound; at desk scale, where the oracles run too, its least-squares
    # residual must pass that bound as well, checked once per distinct
    # attack.
    desk = net.bus_count <= args.max_size and net.line_count <= oracle.PARTITION_LINE_LIMIT
    state = indices._Case(net, meas, case.weights, model)
    exact_report = state.report(indices.METHOD_EXACT)
    attacks = list({id(e.attack): e.attack for e in exact_report.entries}.values())
    residual = max((a.residual_inf for a in attacks), default=0.0)
    passed = not desk or all(
        np.abs(bdd_residual(model, a.delta_z)).max(initial=0.0)
        <= residual_tolerance(model, a.delta_theta)
        for a in attacks
    )
    report("attack-residuals", passed, f"max {residual:.2e}")

    for name, method in (("ignore-nodes", indices.METHOD_IGNORE_NODES),
                         ("fold-nodes", indices.METHOD_FOLD_NODES)):
        heur = state.report(method)
        passed = all(
            h.index >= e.index for h, e in zip(heur.entries, exact_report.entries)
        )
        report(f"baseline-{name}-upper-bound", passed)

    if not desk:
        print(f"SKIP oracle-cross-check (case larger than --max-size {args.max_size})")
    else:
        edge_targets = sorted(set(meas.flow_from) | set(meas.flow_to))
        node_targets = list(meas.injection)
        results = oracle.oracle_continuous_network(
            net, meas, case.weights, edge_targets=edge_targets,
            node_targets=node_targets, model=model,
        )
        bound = state.bound
        sandwich = True
        exact_match = True
        for e in exact_report.entries:
            key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
            opt = results[key].optimum
            if opt is None:  # the oracle finds no attack where the index has one
                sandwich = exact_match = False
                continue
            gap = e.index - opt
            if not (0 <= gap <= bound):
                sandwich = False
            if e.exact and gap != 0:
                exact_match = False
        report("oracle-sandwich", sandwich, f"bound {_fmt_fraction(bound)}")
        report("oracle-exactness", exact_match)

    return 0 if ok else 2


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at the null device, so the flush at
    interpreter exit finds no closed pipe to complain about."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process:
    argparse's parsers hold reference cycles, which a parser per call would
    leave to the cyclic garbage collector."""
    parser = _Parser(prog="secindex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute security indices as CSV")
    p_index.add_argument("case")
    p_index.add_argument("--target", type=int, default=None, help="1-based measurement id")
    p_index.add_argument("--all", action="store_true", help="all measurements (default)")
    p_index.add_argument("--method", choices=list(indices.METHODS), default="exact")
    p_index.add_argument("--out", default=None)
    p_index.add_argument("--measurements", default=None, help="sidecar placement for .m cases")
    p_index.set_defaults(func=_cmd_index)

    p_verify = sub.add_parser("verify", help="run oracle cross-checks on a case")
    p_verify.add_argument("case")
    p_verify.add_argument("--max-size", type=int, default=12)
    p_verify.add_argument("--measurements", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_attack = sub.add_parser("attack", help="emit the optimal attack for one measurement")
    p_attack.add_argument("case")
    p_attack.add_argument("--target", type=int, required=True)
    p_attack.add_argument("--out", default=None)
    p_attack.add_argument("--measurements", default=None)
    p_attack.set_defaults(func=_cmd_attack)

    p_cut = sub.add_parser("cut", help="solve a raw costly-cut instance")
    p_cut.add_argument("instance")
    p_cut.set_defaults(func=_cmd_cut)

    p_gadget = sub.add_parser("gadget", help="3SAT gadget satisfiability verdict")
    p_gadget.add_argument("--clauses", required=True)
    p_gadget.set_defaults(func=_cmd_gadget)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
        if args.command == "index" and args.target is not None and args.all:
            raise InputError("--target and --all are mutually exclusive")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # With --out the command writes nothing to stdout, so a broken pipe
        # there is the output file's and an error like any other.
        if isinstance(exc, BrokenPipeError) and getattr(args, "out", None) is None:
            _stdout_to_devnull()
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
