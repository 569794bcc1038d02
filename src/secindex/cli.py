"""Command-line interface.

Subcommands: ``index`` (per-measurement security indices as CSV),
``verify`` (oracle cross-checks on a case), ``attack`` (emit one attack
vector), ``cut`` (solve a raw costly-cut instance), and ``gadget``
(one-in-three 3SAT satisfiability via the hardness construction).

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import caseio, costly_cut, indices, oracle
from .errors import InputError, InvariantError
from .power_model import (
    INJECTION,
    RESIDUAL_TOL,
    WeightAssignment,
    build_3sat_gadget,
    build_h,
    is_observable,
)

CSV_HEADER = "measurement_id,kind,line_or_bus,index,exact,error_bound,method,attack_support"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _fmt_fraction(value: Fraction | None) -> str:
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


def _report_csv(report: indices.IndexReport) -> str:
    rows = [CSV_HEADER]
    for e in report.entries:
        support = ";".join(str(i + 1) for i in e.attack.support)
        rows.append(
            ",".join(
                [
                    str(e.measurement + 1),
                    e.kind,
                    str(e.target + 1),
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
    kind, ident = case.meas.ordering()[target - 1]
    if kind == INJECTION:
        return indices.index_node_target(case.net, case.meas, case.weights, ident, method=method)
    return indices.index_edge_target(
        case.net, case.meas, case.weights, ident, end=kind, method=method
    )


def _cmd_index(args) -> int:
    case = _load_case(args.case, sidecar=args.measurements)
    if args.target is None:
        report = indices.index_all(case.net, case.meas, case.weights, method=args.method)
    else:
        report = indices.IndexReport(entries=(_target_entry(case, args.target, args.method),))
    _write(_report_csv(report), args.out)
    return 0


def _cmd_attack(args) -> int:
    case = _load_case(args.case, sidecar=args.measurements)
    entry = _target_entry(case, args.target, indices.METHOD_EXACT)
    lines = ["quantity,id,value"]
    for bus, value in enumerate(entry.attack.delta_theta):
        lines.append(f"delta_theta,{bus + 1},{float(value)!r}")
    for meas_id, value in enumerate(entry.attack.delta_z):
        lines.append(f"delta_z,{meas_id + 1},{float(value)!r}")
    lines.append(f"residual_inf_norm,,{float(entry.attack.residual_inf)!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cut(args) -> int:
    inst = caseio.parse_cut_instance(args.instance)
    sol = costly_cut.solve(inst)
    print(f"objective {_fmt_fraction(sol.objective)}")
    print("source_side " + " ".join(str(i + 1) for i in sorted(sol.source_side)))
    print("sink_side " + " ".join(str(i + 1) for i in sorted(sol.sink_side)))
    print("cut_edges " + " ".join(str(i + 1) for i in sol.cut_edges))
    print("charged_nodes " + " ".join(str(i + 1) for i in sorted(sol.charged_nodes)))
    return 0


def _cmd_gadget(args) -> int:
    with open(args.clauses, "r", encoding="utf-8") as fh:
        text = fh.read()
    n_vars = None
    clauses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "vars":
                n_vars = int(tokens[1])
            else:
                clauses.append(tuple(int(t) for t in tokens))
        except (ValueError, IndexError) as exc:
            raise InputError(f"{args.clauses}: line {lineno}: {exc}") from exc
    if n_vars is None:
        raise InputError(f"{args.clauses}: missing `vars <n>` line")
    gadget = build_3sat_gadget(clauses, n_vars)
    model = build_h(gadget.net, gadget.meas)
    result = oracle.oracle_continuous(model.h, gadget.target, relation="equals-one")
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

    model = build_h(net, meas)
    row_sums = float(np.abs(model.h.sum(axis=1)).max()) if model.h.size else 0.0
    report("row-sums-zero", row_sums <= 1e-9, f"max {row_sums:.2e}")

    if meas.measurement_count:
        report("observable", is_observable(model))

    exact_report = indices.index_all(net, meas, case.weights)
    residual = max((e.attack.residual_inf for e in exact_report.entries), default=0.0)
    report("attack-residuals", residual <= RESIDUAL_TOL, f"max {residual:.2e}")

    for name, method in (("ignore-nodes", indices.METHOD_IGNORE_NODES),
                         ("fold-nodes", indices.METHOD_FOLD_NODES)):
        heur = indices.index_all(net, meas, case.weights, method=method)
        passed = all(
            h.index >= e.index for h, e in zip(heur.entries, exact_report.entries)
        )
        report(f"baseline-{name}-upper-bound", passed)

    if net.bus_count > args.max_size or net.line_count > oracle.PARTITION_LINE_LIMIT:
        print(f"SKIP oracle-cross-check (case larger than --max-size {args.max_size})")
    else:
        edge_targets = sorted(set(meas.flow_from) | set(meas.flow_to))
        node_targets = list(meas.injection)
        results = oracle.oracle_continuous_network(
            net, meas, case.weights, edge_targets=edge_targets,
            node_targets=node_targets, model=model,
        )
        bound = indices.binary_gap_bound(net, WeightAssignment.resolve(net, meas, case.weights))
        sandwich = True
        exact_match = True
        for e in exact_report.entries:
            key = ("node", e.target) if e.kind == "injection" else ("edge", e.target)
            opt = results[key].optimum
            gap = e.index - opt
            if not (0 <= gap <= bound):
                sandwich = False
            if e.exact and gap != 0:
                exact_match = False
        report("oracle-sandwich", sandwich, f"bound {_fmt_fraction(bound)}")
        report("oracle-exactness", exact_match)

    return 0 if ok else 2


def main(argv=None) -> int:
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

    try:
        args = parser.parse_args(argv)
        if args.command == "index" and args.target is not None and args.all:
            raise InputError("--target and --all are mutually exclusive")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
