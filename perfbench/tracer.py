"""Span tracer that times mklridge's layers from outside the package.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back on ``uninstall``. Spans stay in memory as
``[name, parent, start, end, info]`` lists, where ``parent`` is the index
of the enclosing span (-1 for a root) and ``info`` holds counts taken at
the same boundary: computed flops, iterations and convergence. The
program is single-threaded (``jobs=1``), so one stack gives each span its
parent.

A patch site that no longer exists, for example after a rename, is
recorded in ``absent`` and skipped, so the benchmark keeps running and
reports the missing layer instead of crashing.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _fit_l2_info(args, result):
    model = result[0]
    return {"iters": model.iterations, "converged": model.converged}


def _fit_l1_info(args, result):
    return {"iters": result.iterations, "converged": result.converged}


def _combined_entries_info(args, result):
    family = args[0]
    return {"gflop": 2.0 * family.m * family.m * family.p / 1e9}


def _solve_pd_info(args, result):
    n = args[0].shape[0]
    return {"gflop": (n**3 / 3.0 + 4.0 * n * n) / 1e9}


def _method_trial_name(args):
    return f"experiment.method_trial.{args[0]}"


# (span name, owner as "module" or "module:Class", attribute, info, name from args)
SITES = (
    ("experiment.run_experiment", "mklridge.experiment", "run_experiment", None, None),
    ("experiment.build_family", "mklridge.experiment", "build_family", None, None),
    ("experiment.method_trial", "mklridge.experiment", "_run_method_trial", None,
     _method_trial_name),
    ("experiment.predict_rows", "mklridge.experiment", "_predict_rows", None, None),
    ("experiment.write_json_atomic", "mklridge.experiment", "write_json_atomic", None, None),
    ("solver.fit_l2", "mklridge.experiment", "fit_l2", _fit_l2_info, None),
    ("solver.fit_l1", "mklridge.experiment", "fit_l1", _fit_l1_info, None),
    ("solver.predict_weighted", "mklridge.experiment", "predict_weighted", None, None),
    ("solver._solve_pd", "mklridge.solver", "_solve_pd", _solve_pd_info, None),
    ("solver.quad_forms", "mklridge.solver", "quad_forms", None, None),
    ("kernels.build_gram", "mklridge.kernels", "build_gram", None, None),
    ("kernels.cross_gram", "mklridge.kernels", "cross_gram", None, None),
    ("kernels.combined_entries", "mklridge.kernels:KernelFamily", "combined_entries",
     _combined_entries_info, None),
    ("kernels.subset", "mklridge.kernels:KernelFamily", "subset", None, None),
    ("data.load_text_corpus", "mklridge.experiment", "load_text_corpus", None, None),
    ("data.build_ngram_features", "mklridge.experiment", "build_ngram_features", None, None),
    ("data.apply_vocabulary", "mklridge.experiment", "apply_vocabulary", None, None),
    ("diagnostics.kkt_residuals", "mklridge.diagnostics", "kkt_residuals", None, None),
    ("diagnostics.orthogonality_check", "mklridge.diagnostics", "orthogonality_check",
     None, None),
)


def _resolve(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Installs timing wrappers at ``SITES`` and collects their spans."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._originals = []

    def install(self):
        for name, owner_path, attr, info, name_of in SITES:
            try:
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info, name_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn, info, name_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if name_of is None else name_of(args),
                    stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper


def layer_stats(spans):
    """Per span name: calls, total_s, self_s and summed flops.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap in a single-threaded run.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, parent, start, end, info) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "gflop": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        if info and "gflop" in info:
            s["gflop"] += info["gflop"]
    return stats


def _has_ancestor(spans, i, name):
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def fit_outcomes(spans):
    """Iterations and unconverged-or-raised counts for each fit kind,
    CV fits included, plus the latency of every fit in milliseconds."""
    out = {}
    fit_ms = []
    for kind in ("solver.fit_l1", "solver.fit_l2"):
        iters = unconverged = calls = 0
        for name, parent, start, end, info in spans:
            if name != kind:
                continue
            calls += 1
            fit_ms.append(1e3 * (end - start))
            if "raised" in info:
                unconverged += 1
            else:
                iters += info["iters"]
                unconverged += not info["converged"]
        out[kind] = {"calls": calls, "iters": iters, "unconverged": unconverged}
    l1_solves = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "solver._solve_pd" and _has_ancestor(spans, i, "solver.fit_l1")
    )
    l1 = out["solver.fit_l1"]
    l1["solves_per_iter"] = l1_solves / l1["iters"] if l1["iters"] else 0.0
    fits = l1["calls"] + out["solver.fit_l2"]["calls"]
    failed = l1["unconverged"] + out["solver.fit_l2"]["unconverged"]
    out["fit_fail_frac"] = failed / fits if fits else 0.0
    out["fit_ms"] = np.asarray(fit_ms)
    return out
