"""Checks of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gddp import certify, driver, onestage  # noqa: E402
from gddp.exceptions import NumericalError  # noqa: E402
from gddp.problem import ValueApprox  # noqa: E402
from perfbench.clock import Clock  # noqa: E402
from perfbench.harness import MAX_RAISED_SHARE, is_correct, measure  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import CertifyFrozen, LqrConverge, bellman_violations  # noqa: E402

TINY = {
    "lqr-converge": {"samples": 3, "pool": 4, "trace_units": 2},
    "certify-frozen": {"systems": 2, "samples": 3, "pool": 8, "trace_units": 2},
    "ballbeam-budget": {"samples": 10, "budget": 4, "rollout_steps": 5, "grid": 101, "pool": 2, "trace_units": 2},
}
EXACT = (
    "calls",
    "rows",
    "bound_evals",
    "useful_solve_ratio",
    "B_mean",
    "steps_per_cert",
    "active_bound_ratio",
    "infeasible",
    "numerical_failure",
    "strong_duality_violations",
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(name):
    return measure(name, seed=5, seconds=0, trace=True, params=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_exactly_and_tracing_changes_no_result(name):
    first, second = _traced(name), _traced(name)
    assert first["correct"] and second["correct"]
    assert first["mismatches"] == 0  # each unit's traced outcome equals its untraced outcome
    assert first["fingerprints"] == second["fingerprints"]
    for key, metric in first["metrics"].items():
        if key.rsplit(".", 1)[-1] in EXACT:
            assert metric["value"] == second["metrics"][key]["value"], key


def test_tracer_patches_every_binding_and_restores_it():
    originals = (driver.solve_onestage_convex, certify.solve_onestage_convex, ValueApprox.evaluate)
    with Tracer():
        assert driver.solve_onestage_convex is certify.solve_onestage_convex
        assert driver.solve_onestage_convex is onestage.solve_onestage_convex
        assert driver.solve_onestage_convex is not originals[0]
        assert ValueApprox.evaluate is not originals[2]
    assert (driver.solve_onestage_convex, certify.solve_onestage_convex, ValueApprox.evaluate) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        workload = CertifyFrozen(**TINY["certify-frozen"])
        ctx = workload.setup(1, Clock())
    table = tracer.layer_table()
    run = table["driver.run"]
    assert run["calls"] == 2
    assert 0.0 < run["self_s"] < run["total_s"]
    assert table["driver.bellman_error"]["calls"] > 0
    assert sum(len(V) - 1 for V in ctx.approximations) == table["onestage.build_lower_bound"]["calls"]


def test_certificate_check_fails_against_a_wrong_optimal_value():
    workload = CertifyFrozen(**TINY["certify-frozen"])
    clock = Clock()
    ctx = workload.setup(1, clock)
    raw = workload.run_unit(ctx, 0, clock)
    assert workload.assess(ctx, raw, False).failed == 0
    ctx.P = [0.0 * P for P in ctx.P]
    assert workload.assess(ctx, raw, False).failed == 1


def test_bellman_check_flags_an_approximation_above_its_bellman_image():
    workload = LqrConverge(**TINY["lqr-converge"])
    clock = Clock()
    X, result, _ = workload.run_unit(workload.setup(1, clock), 0, clock)
    assert workload.assess(None, (X, result, 0.1), False).failed == 0
    result.trace[-1].eps_hat = -1e-3
    assert bellman_violations(result.trace) == 1
    assert workload.assess(None, (X, result, 0.1), False).failed == 1


@pytest.mark.parametrize("error", [NumericalError, ValueError])
def test_errors_count_as_failed_and_make_the_run_incorrect_when_all_raise(monkeypatch, error):
    def raising(self, ctx, i, clock):
        raise error("injected")

    monkeypatch.setattr(LqrConverge, "run_unit", raising)
    record = measure("lqr-converge", seed=5, seconds=0, trace=True, params=TINY["lqr-converge"])
    assert record["failed"] == record["attempted"] == 4
    assert record["raised"] == (4 if error is NumericalError else 0)
    assert record["correct"] is False


def test_a_few_library_errors_leave_the_run_correct():
    attempted = 100
    allowed = int(MAX_RAISED_SHARE * attempted)
    assert is_correct(allowed, allowed, attempted)
    assert not is_correct(allowed + 1, allowed + 1, attempted)  # too many library errors
    assert not is_correct(1, 0, attempted)  # a failed check is never tolerated


def _cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = _cli(ROOT, "--workload", "lqr-converge", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_library_sources():
    bare = ROOT / ".perfbench_out" / "bare"  # only BENCHMARK.json and the benchmark's own files
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _cli(bare, "--workload", "lqr-converge", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
