"""Closed-loop measurement of one workload in the current process.

One caller: each unit starts when the previous one has returned.  An
untraced run measures for a fixed number of seconds, and on until it has
``MIN_SAMPLES`` latency samples and a whole number of passes over the
workload's units (``pass_units``), and reports the end-to-end metrics.  A
traced run processes the workload's fixed number of units, so that its
counts repeat exactly for a seed; each unit runs once untraced and once
under the tracer, the two outcomes must match, and the ratio of their
times gives the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from gddp.exceptions import GddpError

from .clock import Clock
from .tracing import Tracer, layer_metrics
from .workloads import WORKLOADS, Unit

SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so that at least ten latency samples lie beyond the p90
# Largest share of operations that may raise a library error in a correct run.
# One of the 48 lqr-converge systems raises NumericalError (ROADMAP item 4):
# 2% of an untraced run, and 4% of a traced one (24 systems, each run twice)
# when it is among the first 24.  More than one in twenty is a regression.
MAX_RAISED_SHARE = 0.05
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _attempt(workload, ctx, i: int, clock: Clock, tracer=None) -> Unit:
    """One unit; an exception counts the unit as one failed operation.

    A library error (``GddpError``, e.g. ``NumericalError`` from a one-stage
    solve that did not converge) is a failure the library reports: it
    counts into ``failed`` and ``raised``, and makes the run incorrect only
    above ``MAX_RAISED_SHARE`` of the operations.  Any other exception
    makes the run incorrect.
    """
    try:
        if tracer is None:
            raw = workload.run_unit(ctx, i, clock)
        else:
            tracer.unit = i
            with tracer:
                raw = workload.run_unit(ctx, i, clock)
        return workload.assess(ctx, raw, trace_extras=tracer is not None)
    except GddpError as exc:
        traceback.print_exc(file=sys.stderr)
        return Unit([], 0, 0.0, attempted=1, failed=1, fingerprint=("raised", type(exc).__name__), info={}, raised=1)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Unit([], 0, 0.0, attempted=1, failed=1, fingerprint=("error",), info={})


def is_correct(failed: int, raised: int, attempted: int) -> bool:
    """Every failure is a library error, and those are a small share of the operations."""
    return failed == raised and raised <= MAX_RAISED_SHARE * attempted


def measure(name: str, seed: int, seconds: float, trace: bool, spans_path=None, params: dict = None) -> dict:
    """Run one workload and return its result record (metrics, counts, info).

    ``params`` overrides the workload's sizes; the tests use it for tiny runs.
    """
    workload = WORKLOADS[name](**(params or {}))
    clock = Clock()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        before = clock.scaled_s
        ctx = workload.setup(seed, clock)
        setup_s.append(clock.scaled_s - before)

    done = []
    plain = []  # the untraced pass of each unit in a traced run
    if not trace:
        start = time.perf_counter()
        samples = 0
        # a unit without samples failed; after MIN_SAMPLES units the run is long
        # enough to judge even if most of them did
        while (
            time.perf_counter() - start < seconds
            or max(samples, len(done)) < MIN_SAMPLES
            or len(done) % workload.pass_units
        ):
            done.append(_attempt(workload, ctx, len(done), clock))
            samples += len(done[-1].op_ms)
    else:
        tracer = Tracer()
        for i in range(workload.trace_units):
            plain.append(_attempt(workload, ctx, i, clock))
            done.append(_attempt(workload, ctx, i, clock, tracer))
        if spans_path is not None:
            tracer.write(spans_path)
    mismatches = sum(p.fingerprint != t.fingerprint for p, t in zip(plain, done))

    if not trace:
        op_ms = [x for u in done for x in u.op_ms]
        busy = sum(u.busy_s for u in done)
        values = {
            "setup_s": statistics.median(setup_s),
            "op_ms.p50": float(np.percentile(op_ms, 50)) if op_ms else float("nan"),
            "op_ms.p90": float(np.percentile(op_ms, 90)) if op_ms else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        }
        samples = len(op_ms)
        # 1 / mean latency: on lqr-converge one system in a hundred that needs
        # 100-400 iterations rules it, so it is printed but holds no bound
        info = {"ops_per_s": sum(u.ops for u in done) / busy if busy else 0.0}
    else:
        ratios = [u.active_bound_ratio for u in done if np.isfinite(u.active_bound_ratio)]
        steps = [u.info["steps"] for u in done if "steps" in u.info]
        plain_s, traced_s = sum(u.busy_s for u in plain), sum(u.busy_s for u in done)
        values = layer_metrics(
            tracer,
            steps_per_cert=statistics.fmean(steps) if steps else 0.0,
            active_bound_ratio=statistics.fmean(ratios) if ratios else 0.0,
            overhead_frac=traced_s / plain_s - 1.0 if plain_s else 0.0,
        )
        samples = len(done)
        info = {}

    spec = json.loads(BENCHMARK_JSON.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    everything = done + plain
    failed = sum(u.failed for u in everything) + mismatches + workload.setup_failures
    raised = sum(u.raised for u in everything) + workload.setup_failures
    attempted = sum(u.attempted for u in everything) + mismatches + workload.setup_failures
    return {
        "correct": is_correct(failed, raised, attempted),
        "attempted": attempted,
        "failed": failed,
        "raised": raised,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": samples,
        "units": len(done),
        "op": workload.op,
        "setup_s_all": setup_s,
        "wall_over_scaled": clock.raw_s / clock.scaled_s,
        "mismatches": mismatches,
        "fingerprints": [list(u.fingerprint) for u in done],
        "info": {**info, **workload.summary(done)},
    }
