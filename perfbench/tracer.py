"""Traced runs: spans around the public callables of each ``secindex`` layer.

The program is not instrumented. :class:`Tracer` replaces callables, from
outside, at every name a caller looks them up by: a function imported by name
into another module (``secindex.costly_cut.min_cut``) is replaced there as
well as in its home module, and a method is replaced on its class. Each call
records a span (name, start, end, parent span) that stays in memory until the
run ends; :func:`layer_metrics` turns the spans into per-layer self times and
counts. Self time is a span's duration minus the time its child spans cover.

Which end-to-end metric each per-layer metric should move, and where:

* ``mincut.min_cut_s``, ``mincut.flows``, ``mincut.flows_per_line`` (max
  flows per line of the case; 1 on the sweep today): ``op_s_p50`` on
  sweep-ieee118.
* ``costly_cut.build_aux_s``, ``.aux_builds``, ``.aux_builds_per_engine``
  (useful value 1), ``.aux_edges``: ``op_s_p50`` on sweep-ieee118; they
  should not move on attack-2383.
* ``costly_cut.solve_self_s``, ``costly_cut.heuristic_s``: the tail on
  verify-desk.
* ``indices.cut_instance_s``, ``.exactness_s``, ``.engine_self_s`` (which
  includes the linear ``index_of`` scan per entry), ``.entries``:
  ``op_s_p50`` on sweep-ieee118.
* ``power_model.range_basis_s``, ``.range_basis_builds``: ``op_s_p50`` and
  ``peak_rss_mb`` on attack-2383, and the tail on verify-desk.
* ``power_model.build_h_s``, ``.build_h_calls``, ``.attack_s``,
  ``.attacks``, ``.observable_s``: ``op_s_p50`` on attack-2383 and
  verify-desk.
* ``oracle.network_s``, ``oracle.network_calls``: the tail and
  ``ops_per_s`` on verify-desk; ``oracle.attack_cost_s``: ``op_s_p50`` on
  sweep-ieee118.
* ``caseio.parse_s``, ``cli.self_s`` (argument parsing and output
  formatting), ``cli.output_bytes``: ``op_s_p50`` on attack-2383.
* ``trace.unattributed_frac`` (share of op time outside every span below
  ``secindex.cli.main``: the CLI's own code, callees no span wraps, and the
  benchmark's loop) and ``trace.overhead_frac`` (traced against untraced
  median op time) describe the trace itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import weakref

# (home module, qualified name, metric its self time is booked to). The
# private engine class is traced because ``secindex attack`` drives it
# directly; no public callable of ``indices`` runs in that command.
TARGETS = (
    ("secindex.cli", "main", "cli.self_s"),
    ("secindex.caseio", "parse_native", "caseio.parse_s"),
    ("secindex.caseio", "parse_matpower_subset", "caseio.parse_s"),
    ("secindex.power_model", "build_h", "power_model.build_h_s"),
    ("secindex.power_model", "is_observable", "power_model.observable_s"),
    ("secindex.power_model", "attack_from_partition", "power_model.attack_s"),
    ("secindex.power_model", "ModelMatrix.range_basis", "power_model.range_basis_s"),
    ("secindex.costly_cut", "solve", "costly_cut.solve_self_s"),
    ("secindex.costly_cut", "build_auxiliary", "costly_cut.build_aux_s"),
    ("secindex.costly_cut", "solve_ignore_nodes", "costly_cut.heuristic_s"),
    ("secindex.costly_cut", "solve_fold_nodes", "costly_cut.heuristic_s"),
    ("secindex.mincut", "min_cut", "mincut.min_cut_s"),
    ("secindex.mincut", "min_cut_extremes", "mincut.min_cut_s"),
    ("secindex.indices", "index_all", "indices.engine_self_s"),
    ("secindex.indices", "_Engine.__init__", "indices.engine_self_s"),
    ("secindex.indices", "_Engine.entry_for", "indices.engine_self_s"),
    ("secindex.indices", "cut_instance_for_line", "indices.cut_instance_s"),
    ("secindex.indices", "exactness_condition", "indices.exactness_s"),
    ("secindex.indices", "binary_gap_bound", "indices.exactness_s"),
    ("secindex.oracle", "oracle_continuous_network", "oracle.network_s"),
    ("secindex.oracle", "attack_cost", "oracle.attack_cost_s"),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))
ROOT = "op"
MINCUT = "secindex.mincut."
ENTRY = "secindex.cli.main"


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, note]
        self.missing = []
        self._stack = []
        self._patches = []
        self._models = weakref.WeakSet()

    def _wrap(self, name, fn, note=None):
        tracer, clock, spans, stack = self, time.perf_counter, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                spans[idx][4] = note(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every name it is looked up by."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "secindex"]
        for home, qualname, _ in TARGETS:
            owner = importlib.import_module(home)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{home}.{qualname}")
                continue
            name = f"{home}.{qualname}"
            wrapped = self._wrap(name, original, NOTES.get(name))
            sites = [(owner, attr)]
            if not path:
                sites += [
                    (m, key)
                    for m in modules
                    if m is not owner
                    for key, value in vars(m).items()
                    if value is original
                ]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapped)

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name=ROOT):
        """Record one span around a block: the benchmark's operation."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


def _aux_edges(tracer, args, result):
    return len(result.graph.edges)


def _new_model(tracer, args, result):
    """1 for the first range-basis request on a model (the one that computes
    the basis; later requests reuse it), else 0."""
    model = args[0]
    if model in tracer._models:
        return 0
    tracer._models.add(model)
    return 1


NOTES = {
    "secindex.costly_cut.build_auxiliary": _aux_edges,
    "secindex.power_model.ModelMatrix.range_basis": _new_model,
}

METRIC_OF = {f"{home}.{qualname}": metric for home, qualname, metric in TARGETS}


def self_times(spans):
    """Self time of every span, by index."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, ops: int, lines_per_op: float, output_bytes: float) -> dict:
    """Per-layer metrics per traced operation.

    ``lines_per_op`` is the mean line count of the cases the traced
    operations ran on (the base of ``mincut.flows_per_line``) and
    ``output_bytes`` the mean bytes each operation wrote.
    """
    own = self_times(spans)
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    calls = {}
    notes = {}
    root_time = unattributed = 0.0
    flows = 0
    for s, t in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        # min_cut calls min_cut_extremes: one max flow per outermost span
        if name.startswith(MINCUT) and not (s[3] >= 0 and spans[s[3]][0].startswith(MINCUT)):
            flows += 1
        if s[4] is not None:
            notes[name] = notes.get(name, 0) + s[4]
        if name == ROOT:
            root_time += s[2] - s[1]
            unattributed += t
        else:
            totals[METRIC_OF[name]] += t
            if name == ENTRY:
                unattributed += t

    def count(*names):
        return sum(calls.get(f"secindex.{n}", 0) for n in names)

    engines = count("indices._Engine.__init__")
    aux_builds = count("costly_cut.build_auxiliary")
    out = {k: v / ops for k, v in totals.items()}
    out.update({
        "mincut.flows": flows / ops,
        "mincut.flows_per_line": flows / ops / lines_per_op,
        "costly_cut.aux_builds": aux_builds / ops,
        "costly_cut.aux_builds_per_engine": aux_builds / engines if engines else 0.0,
        "costly_cut.aux_edges": notes.get("secindex.costly_cut.build_auxiliary", 0) / ops,
        "indices.engines": engines / ops,
        "indices.entries": count("indices._Engine.entry_for") / ops,
        "power_model.build_h_calls": count("power_model.build_h") / ops,
        "power_model.attacks": count("power_model.attack_from_partition") / ops,
        "power_model.range_basis_builds":
            notes.get("secindex.power_model.ModelMatrix.range_basis", 0) / ops,
        "oracle.network_calls": count("oracle.oracle_continuous_network") / ops,
        "cli.output_bytes": output_bytes,
        "trace.unattributed_frac": unattributed / root_time if root_time else 0.0,
        "trace.spans": len(spans) / ops,
    })
    return out
