"""Span tracer for the traced benchmark run.

The tracer replaces public uvlab functions in their module namespaces with
wrappers that record a span (id, name, start, end, parent span, experiment
id) and the counters that belong to that call.  Names that one uvlab module
re-imports from another (``bellqma.uniformity_measure``, ``qma2.expand``,
``optimize.consistency_accept_table`` ...) are separate bindings, so each is
wrapped on its own.  Spans stay in memory; :meth:`Tracer.write_csv` writes
them out once, when the run ends.  A span's self time is its duration minus
the durations of its direct children.

The tracer touches no file under ``src/``: it only rebinds attributes, and
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict


def _consistency_span(bound) -> str:
    mode = bound.arguments.get("mode", "exact")
    return "bellqma.consistency_exact" if mode == "exact" else "bellqma.consistency_mc"


def _consistency_counts(bound, result) -> dict:
    if bound.arguments.get("mode", "exact") == "exact":
        return {}
    samples = bound.arguments["samples"]
    return {"bellqma.mc_samples": samples,
            "bellqma.mc_draws": samples * len(bound.arguments["proofs"])}


def _operator_bytes(bound, result) -> dict:
    d = 3 * 2 ** bound.arguments["c"].n
    return {"optimize.operator_bytes": 16 * d ** 4}


# counter functions that read the call's arguments; the wrapper binds the
# arguments only for these and for span names that depend on them
_READS_ARGUMENTS = (_consistency_counts, _operator_bytes)


def _cli_counts(bound, result) -> dict:
    # result is None when main raised (argparse exits raise SystemExit)
    return {"cli.ops": 1, "cli.nonzero_exits": int(result != 0)}


# (owner, attribute, span name or function of the bound arguments, counter
# function of (bound arguments, result) or None).  Counters whose function
# reads the arguments are computed from inputs, the others from results.
BINDINGS = [
    ("uvlab.sgraph", "parse_sgc", "sgraph.parse", None),
    ("uvlab.sgraph", "expand", "sgraph.expand", None),
    ("uvlab.qma2", "expand", "sgraph.expand", None),
    ("uvlab.bellqma", "expand", "sgraph.expand", None),
    ("uvlab.provers", "expand", "sgraph.expand", None),
    ("uvlab.sgraph", "brute_force_3color", "sgraph.oracle", None),
    ("uvlab.sgraph", "min_violation_coloring", "sgraph.oracle", None),
    ("uvlab.provers.ProverStrategy", "states", "provers.build",
     lambda b, r: {"provers.proofs": len(r) if r is not None else 0}),
    ("uvlab.states", "uniformity_measure", "states.uniformity_measure",
     lambda b, r: {"states.uniformity_measure_calls": 1}),
    ("uvlab.bellqma", "uniformity_measure", "states.uniformity_measure",
     lambda b, r: {"states.uniformity_measure_calls": 1}),
    ("uvlab.qma2", "uniformity_measure", "states.uniformity_measure",
     lambda b, r: {"states.uniformity_measure_calls": 1}),
    ("uvlab.provers", "uniformity_measure", "states.uniformity_measure",
     lambda b, r: {"states.uniformity_measure_calls": 1}),
    ("uvlab.states", "swap_test", "states.swap_test", None),
    ("uvlab.qma2", "swap_test", "states.swap_test", None),
    ("uvlab.bellqma", "uniformity_stats", "bellqma.uniformity",
     lambda b, r: {"bellqma.uniformity_registers": 1}),
    ("uvlab.bellqma", "uniformity_accept_exact", "bellqma.uniformity", None),
    ("uvlab.bellqma", "z_distribution", "bellqma.uniformity", None),
    ("uvlab.bellqma", "consistency_accept", _consistency_span, _consistency_counts),
    ("uvlab.qma2", "acceptance_exact", "qma2.exact",
     lambda b, r: {"qma2.exact_calls": 1}),
    ("uvlab.qma2", "consistency_accept_table", "qma2.table", None),
    ("uvlab.optimize", "consistency_accept_table", "qma2.table", None),
    ("uvlab.qma2", "run_sampled", "qma2.sampled",
     lambda b, r: {"qma2.verdicts": 1}),
    ("uvlab.optimize", "build_acceptance_operator", "optimize.build", _operator_bytes),
    ("uvlab.optimize", "spectral_norm", "optimize.eig", None),
    ("uvlab.optimize", "seesaw", "optimize.seesaw",
     lambda b, r: {"optimize.seesaw_iterations": r.iterations if r is not None else 0}),
    ("uvlab.cli", "main", "cli.self", _cli_counts),
]


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its direct children's."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _exp in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _exp in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.experiment = "setup"
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def install(self):
        for path, attr, name, count in BINDINGS:
            owner = _owner(path)
            original = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count):
        sig = inspect.signature(fn)
        needs_args = callable(name) or count in _READS_ARGUMENTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if needs_args else None
            if bound is not None:
                bound.apply_defaults()
            span = name(bound) if callable(name) else name
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, span, start, end, parent, self.experiment))
                if count is not None:
                    self.counts.update(count(bound, result))

        return wrapper

    def write_csv(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "experiment"])
            out.writerows(self.spans)
