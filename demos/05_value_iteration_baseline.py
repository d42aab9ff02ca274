"""Gridded value iteration as an independent baseline.

On a discounted scalar problem the gridded solution can be compared both
to the Riccati value (where the input box is inactive) and to the bounds
produced by the dual iteration, which must stay below it everywhere up to
the discretization margin.
"""

import numpy as np

import gddp

spec = gddp.ProblemSpec(
    n=1,
    m=1,
    gamma=0.9,
    dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
    cost=gddp.StageCost(
        1, (gddp.CostTerm(0, gddp.QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)
    ),
    constraints=gddp.InputConstraintSet.box([-1.0], [1.0], 1),
    class_tag=gddp.ProblemClass.CONVEX_QUADRATIC,
)

gvf = gddp.grid_value_iteration(spec, (-10.0, 10.0), state_pts=201, input_pts=41, stop_tol=1e-4)
print(f"grid: {gvf.counts[0]} points, clamped successors: {gvf.clamped_fraction:.1%}")

ric = gddp.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 0.9)
p = float(ric.P[0, 0])

result = gddp.run(spec, [[2.0], [-3.0], [6.0]], gddp.GddpConfig(delta=1e-5, rng_seed=0))
print(f"dual iteration: {len(result.V_hat)} bounds, converged={result.converged}")

print(f"\n{'x':>6} {'grid VI':>10} {'riccati':>10} {'max bound':>10}")
for x in [0.5, 1.0, 2.0, 4.0, 8.0]:
    grid_val = gvf.evaluate([x])
    vhat, _ = result.V_hat.evaluate([x])
    print(f"{x:>6.1f} {grid_val:>10.5f} {0.5 * p * x * x:>10.5f} {vhat:>10.5f}")
print("\n(riccati ignores the input box, so it diverges from grid VI for large |x|)")

# round-trip the grid through its binary file format
import tempfile, pathlib

with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "values.bin"
    gddp.save_grid_value_function(gvf, path)
    again = gddp.load_grid_value_function(path)
    print(f"binary round trip exact: {np.array_equal(again.values, gvf.values)}")
