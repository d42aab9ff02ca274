"""The library surface that the benchmark's tracer (perfbench/tracing.py) patches.

A refactor that renames a traced function, stops binding it in a module
the tracer patches, or changes what the tracer reads from a solve breaks
traced benchmark runs; these checks catch that in the test suite.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gddp import onestage  # noqa: E402
from gddp.problem import ValueApprox  # noqa: E402
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
