"""Walk through the lower-bounding iteration on a scalar problem, by hand.

System: x+ = 0.5 x + u, stage cost (x^2 + u^2)/2, |u| <= 1, no discounting.
We solve the one-stage problem at x = 2 twice and watch the two bounds
appear: first g1(x) = x^2/2, then g2(x) = x^2/2 + 0.25 x - 0.25.
"""

import numpy as np

import gddp

spec = gddp.ProblemSpec(
    n=1,
    m=1,
    gamma=1.0,
    dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
    cost=gddp.StageCost(
        1, (gddp.CostTerm(0, gddp.QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)
    ),
    constraints=gddp.InputConstraintSet.box([-1.0], [1.0], 1),
    class_tag=gddp.ProblemClass.CONVEX_QUADRATIC,
)
print(gddp.validate_spec(spec).summary())

V = gddp.ValueApprox.initial(spec)
x_hat = np.array([2.0])

for it in range(1, 3):
    err = gddp.bellman_error(spec, V, x_hat)
    primal, dual = gddp.solve_onestage_convex(spec, V, x_hat)
    print(f"\niteration {it}: Bellman error at x=2 is {err.value:.4f}")
    print(f"  one-stage optimum {primal.J_P:.4f} at u* = {primal.u_star[0]:+.4f}, "
          f"successor {primal.x_plus_star[0]:+.4f}")
    print(f"  duals: nu = {dual.nu[0]:+.4f}, weights on bounds = {np.round(dual.lambda_alpha, 4)}")
    bound = gddp.build_lower_bound(spec, x_hat, primal, dual, V)
    q = bound.materialized
    print(f"  new bound: {q.hessian[0,0]/2:.3f} x^2 {q.linear[0]:+.3f} x {q.constant:+.3f}")
    V.append(bound)

value, active = V.evaluate(x_hat)
print(f"\napproximation at x=2 is now {value:.4f} (active bound index {active})")

# the full driver reproduces the same sequence and stops at tolerance
result = gddp.run(spec, [[2.0]], gddp.GddpConfig(delta=1e-6))
print(f"driver: converged={result.converged} after {result.iterations_used} iterations, "
      f"max error {result.max_error():.2e}")

ric = gddp.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 1.0)
print(f"for reference, the unconstrained optimal value at x=2 is {0.5 * ric.P[0,0] * 4:.4f} "
      f"(the approximation is a certified lower bound)")
