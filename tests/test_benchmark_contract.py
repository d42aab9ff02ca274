"""The library surface that the benchmark's tracer (perfbench/tracing.py) patches.

A refactor that renames a traced function, stops binding it in a module
the tracer patches, or changes what the tracer reads from a solve breaks
traced benchmark runs; these checks catch that in the test suite.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gddp import onestage  # noqa: E402
from gddp.problem import InputConstraintSet, ValueApprox  # noqa: E402
from perfbench.tracing import FUNCTION_PATCHES, METHOD_PATCHES, Tracer  # noqa: E402

from conftest import make_scalar_lqr  # noqa: E402


def test_traced_solve_and_value_on_scalar_lqr():
    spec = make_scalar_lqr()
    V = ValueApprox.initial(spec)
    originals = {(m, attr): getattr(m, attr) for attr, modules in FUNCTION_PATCHES.values() for m in modules}
    tracer = Tracer()
    with tracer:
        for attr, modules in FUNCTION_PATCHES.values():
            wrappers = {getattr(m, attr) for m in modules}
            assert len(wrappers) == 1, attr  # every module that binds the name sees the one wrapper
            assert wrappers != {originals[modules[0], attr]}, attr
        primal, _ = onestage.solve_onestage_convex(spec, V, np.array([2.0]))
        assert V.evaluate(primal.x_plus_star)[0] == 0.0
    assert primal.status.value == "optimal"
    assert tracer.counts["onestage.status.optimal"] == 1
    assert tracer.counts["onestage.solve_convex.B_sum"] == len(V)
    table = tracer.layer_table()
    assert table["onestage.solve_convex"]["calls"] == 1
    assert table[next(k for k, v in METHOD_PATCHES.items() if v == "evaluate")]["calls"] == 1
    assert all(getattr(m, attr) is fn for (m, attr), fn in originals.items())


def test_traced_run_calls_bellman_error_and_appends_every_built_bound():
    # the benchmark reads the sweep through driver.bellman_error and counts
    # one append per built bound; a run that bypasses either breaks it
    from gddp import GddpConfig, RandomSystemConfig, driver, generate_random_system, sample_states

    sys_cfg = RandomSystemConfig(n=2, m=1, sample_count=5)
    rng = np.random.default_rng(3)
    spec, X = generate_random_system(sys_cfg, rng), sample_states(sys_cfg, rng)
    tracer = Tracer()
    with tracer:
        result = driver.run(spec, X, GddpConfig(check_every=1))
    table = tracer.layer_table()
    assert result.converged and result.reused > 0
    assert table["driver.bellman_error"]["calls"] > 0
    assert table["onestage.build_lower_bound"]["calls"] == len(result.V_hat) - 1 == result.iterations_used


def test_traced_certificate_makes_one_greedy_solve_per_step():
    # the benchmark reads a certificate's cost through certify.greedy_action,
    # onestage.solve_convex and certify.tail_completion; a certificate that
    # steps without them hides the per-layer time of the one-stage solve
    from gddp import GddpConfig, RandomSystemConfig, certify, driver, generate_random_system, sample_states

    sys_cfg = RandomSystemConfig(n=2, m=1, sample_count=5)
    rng = np.random.default_rng(3)
    spec = generate_random_system(sys_cfg, rng)
    spec = dataclasses.replace(spec, constraints=InputConstraintSet.box(-1e3 * np.ones(1), 1e3 * np.ones(1), 2))
    V = driver.run(spec, sample_states(sys_cfg, rng), GddpConfig(check_every=1)).V_hat
    tracer = Tracer()
    with tracer:
        cert = certify.certify_m1(spec, V, np.array([2.0, -1.5]), max_steps=6)
    table = tracer.layer_table()
    steps = len(cert.per_step_eps)
    k = spec.dynamics.controllability_index
    assert steps == 6 and np.count_nonzero(cert.per_step_theta) <= k  # the last k steps are the steering tail
    assert table["certify.greedy_action"]["calls"] == steps  # tail steps included: one free optimum each
    assert table["onestage.solve_convex"]["calls"] >= steps
    assert table["certify.tail_completion"]["calls"] >= 1
    assert table["certify.detour_cost"]["calls"] == k
