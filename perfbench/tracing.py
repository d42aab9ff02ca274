"""In-memory span tracing of the gddp layers, installed from outside the package.

A :class:`Tracer` replaces public functions of ``gddp.onestage``,
``gddp.driver``, ``gddp.certify`` and ``gddp.bench`` with wrappers that
record one span per call: (name, start, end, parent span, unit id).  A
function is replaced in every module that looks its name up at call
time, because ``from .onestage import solve_onestage_convex`` binds a
second name that patching ``gddp.onestage`` alone would miss.
``ValueApprox.evaluate`` and ``ValueApprox.evaluate_batch`` are replaced
on the class.  Nothing under ``src/gddp`` is edited; ``uninstall``
restores every original.

Per-layer self time is a span's duration minus the part covered by its
direct children.
"""

from __future__ import annotations

import collections
import functools
import json
import time

import numpy as np

from gddp import bench, certify, driver, onestage
from gddp.problem import ValueApprox

# span name -> (function name, modules that look the name up at call time)
FUNCTION_PATCHES = {
    "onestage.solve_convex": ("solve_onestage_convex", (onestage, driver, certify)),
    "onestage.solve_bruteforce": ("solve_onestage_bruteforce", (onestage, driver)),
    "onestage.build_lower_bound": ("build_lower_bound", (onestage, driver)),
    "onestage.recover_duals_kkt": ("recover_duals_kkt", (onestage,)),
    "driver.run": ("run", (driver, bench)),
    "driver.gddp_iterate": ("gddp_iterate", (driver, bench)),
    "driver.bellman_error": ("bellman_error", (driver, bench)),
    "certify.certify_m1": ("certify_m1", (certify, bench)),
    "certify.rollout_greedy": ("rollout_greedy", (certify, bench)),
    "certify.greedy_action": ("greedy_action", (certify,)),
    "certify.detour_cost": ("detour_cost", (certify,)),
    "certify.tail_completion": ("tail_completion", (certify,)),
}

# span name -> method of ValueApprox
METHOD_PATCHES = {
    "problem.value": "evaluate",
    "problem.values_batch": "evaluate_batch",
}


def _note_solve(counts, name, args, kwargs, result):
    primal = result[0]
    counts[f"onestage.status.{primal.status.value}"] += 1
    if name == "onestage.solve_convex":
        V = args[1] if len(args) > 1 else kwargs["V"]
        counts["onestage.solve_convex.B_sum"] += len(V)


def _note_value(counts, name, args, kwargs, result):
    V = args[0]
    rows = np.atleast_2d(args[1]).shape[0] if name == "problem.values_batch" else 1
    counts[f"{name}.rows"] += rows
    counts["problem.bound_evals"] += len(V) * rows


NOTES = {
    "onestage.solve_convex": _note_solve,
    "onestage.solve_bruteforce": _note_solve,
    "problem.value": _note_value,
    "problem.values_batch": _note_value,
}


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.names = list(FUNCTION_PATCHES) + list(METHOD_PATCHES)
        self.spans = []  # [name index, start, end, parent span index or -1, unit id]
        self.counts = collections.Counter()
        self.unit = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        note = NOTES.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(counts, name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, (attr, modules) in FUNCTION_PATCHES.items():
            wrapper = self._wrap(name, getattr(modules[0], attr))
            for module in modules:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        for name, attr in METHOD_PATCHES.items():
            self._saved.append((ValueApprox, attr, vars(ValueApprox)[attr]))
            setattr(ValueApprox, attr, self._wrap(name, getattr(ValueApprox, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_table(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over every recorded span."""
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        if not self.spans:
            return table
        arr = np.array([s[:4] for s in self.spans], dtype=float)
        names = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parents = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        self_s = np.bincount(names, weights=dur - child, minlength=len(self.names))
        for i, name in enumerate(self.names):
            table[name] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        return table

    def write(self, path) -> None:
        """Spans as JSON: the name table and one [name, start, end, parent, unit] row per span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["name", "start", "end", "parent", "unit"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, steps_per_cert: float, active_bound_ratio: float, overhead_frac: float) -> dict:
    """The per-layer metrics of a traced run, keyed by their published names."""
    t = tracer.layer_table()
    c = tracer.counts
    convex_calls = t["onestage.solve_convex"]["calls"]
    solves = convex_calls + t["onestage.solve_bruteforce"]["calls"]
    return {
        "onestage.solve_convex.calls": convex_calls,
        "onestage.solve_convex.self_s": t["onestage.solve_convex"]["self_s"],
        "onestage.solve_convex.us_per_call": 1e6 * t["onestage.solve_convex"]["self_s"] / max(convex_calls, 1),
        "onestage.solve_convex.B_mean": c["onestage.solve_convex.B_sum"] / max(convex_calls, 1),
        "driver.bellman_error.calls": t["driver.bellman_error"]["calls"],
        "driver.bellman_error.total_s": t["driver.bellman_error"]["total_s"],
        "driver.useful_solve_ratio": t["onestage.build_lower_bound"]["calls"] / max(solves, 1),
        "driver.gddp_iterate.calls": t["driver.gddp_iterate"]["calls"],
        "driver.gddp_iterate.total_s": t["driver.gddp_iterate"]["total_s"],
        "onestage.build_lower_bound.calls": t["onestage.build_lower_bound"]["calls"],
        "onestage.build_lower_bound.self_s": t["onestage.build_lower_bound"]["self_s"],
        "problem.values_batch.calls": t["problem.values_batch"]["calls"],
        "problem.values_batch.rows": c["problem.values_batch.rows"],
        "problem.values_batch.self_s": t["problem.values_batch"]["self_s"],
        "problem.bound_evals": c["problem.bound_evals"],
        "problem.value.calls": t["problem.value"]["calls"],
        "problem.value.self_s": t["problem.value"]["self_s"],
        "onestage.solve_bruteforce.self_s": t["onestage.solve_bruteforce"]["self_s"],
        "onestage.recover_duals_kkt.self_s": t["onestage.recover_duals_kkt"]["self_s"],
        "certify.greedy_action.total_s": t["certify.greedy_action"]["total_s"],
        "certify.detour_cost.calls": t["certify.detour_cost"]["calls"],
        "certify.detour_cost.total_s": t["certify.detour_cost"]["total_s"],
        "certify.tail_completion.self_s": t["certify.tail_completion"]["self_s"],
        "certify.steps_per_cert": steps_per_cert,
        "onestage.status.infeasible": c["onestage.status.infeasible"],
        "onestage.status.numerical_failure": c["onestage.status.numerical_failure"],
        "driver.strong_duality_violations": c["onestage.build_lower_bound.raised.StrongDualityViolation"],
        "problem.active_bound_ratio": active_bound_ratio,
        "trace.overhead_frac": overhead_frac,
    }
