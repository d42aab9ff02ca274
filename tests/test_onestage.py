import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gddp
from gddp import onestage
from gddp import (
    DualSolution,
    LowerBound,
    OneStageSolution,
    ProblemClass,
    QuadraticForm,
    SolveStatus,
    SolverConfig,
    ValueApprox,
    build_lower_bound,
    recover_duals_kkt,
    solve_onestage_bruteforce,
    solve_onestage_convex,
    zeta2,
)

from conftest import lqr_corpus, make_scalar_lqr, widen_box, worked_value_approx


def grid_min_oracle(spec, quad_bounds, x_hat, lo=-1.0, hi=1.0, pts=400001):
    """Independent objective minimizer for scalar-input problems.

    Evaluates stage cost + discounted max of explicit quadratics over a
    dense input grid, using nothing from the solver path.
    """
    u = np.linspace(lo, hi, pts)
    A = spec.dynamics.A[0, 0]
    B = spec.dynamics.B[0, 0]
    Q = spec.cost.terms[0].phi.hessian[0, 0]
    R = spec.cost.terms[0].R[0, 0]
    x = float(np.asarray(x_hat).reshape(-1)[0])
    x_plus = A * x + B * u
    vhat = np.zeros_like(u)
    for (h, l, c) in quad_bounds:
        vhat = np.maximum(vhat, 0.5 * h * x_plus**2 + l * x_plus + c)
    total = 0.5 * Q * x**2 + 0.5 * R * u**2 + spec.gamma * vhat
    k = int(np.argmin(total))
    return float(total[k]), float(u[k])


class TestWorkedSequenceOracle:
    """Frozen expected values for the scalar problem, computed by the grid oracle."""

    def test_first_stage(self, scalar_lqr):
        j, u = grid_min_oracle(scalar_lqr, [(0.0, 0.0, 0.0)], 2.0)
        assert j == pytest.approx(2.0, abs=1e-9)
        assert u == pytest.approx(0.0, abs=1e-5)

    def test_second_stage(self, scalar_lqr):
        j, u = grid_min_oracle(scalar_lqr, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 2.0)
        assert j == pytest.approx(2.25, abs=1e-9)
        assert u == pytest.approx(-0.5, abs=1e-5)


class TestSolveOnestageConvex:
    def test_initial_stage(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        primal, dual = solve_onestage_convex(scalar_lqr, V, [2.0])
        assert primal.status is SolveStatus.OPTIMAL
        assert primal.J_P == pytest.approx(2.0, abs=1e-6)
        assert primal.u_star == pytest.approx([0.0], abs=1e-6)
        assert primal.x_plus_star == pytest.approx([1.0], abs=1e-6)
        assert dual.nu == pytest.approx([0.0], abs=1e-6)
        assert dual.lambda_alpha == pytest.approx([1.0], abs=1e-6)
        assert dual.lambda_beta == pytest.approx([1.0], abs=1e-6)
        assert dual.lambda_c == pytest.approx([0.0, 0.0], abs=1e-6)

    def test_second_stage(self, scalar_lqr, worked_V):
        primal, dual = solve_onestage_convex(scalar_lqr, ValueApprox(1, spec=scalar_lqr, bounds=worked_V.bounds[:2]), [2.0])
        assert primal.J_P == pytest.approx(2.25, abs=1e-6)
        assert primal.u_star == pytest.approx([-0.5], abs=1e-6)
        assert primal.x_plus_star == pytest.approx([0.5], abs=1e-6)
        assert dual.nu == pytest.approx([0.5], abs=1e-6)
        assert dual.lambda_alpha == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_zero_state(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        primal, dual = solve_onestage_convex(scalar_lqr, V, [0.0])
        assert primal.J_P == pytest.approx(0.0, abs=1e-8)
        assert primal.u_star == pytest.approx([0.0], abs=1e-6)
        assert dual.lambda_beta == pytest.approx([1.0], abs=1e-6)
        assert dual.lambda_alpha == pytest.approx([scalar_lqr.gamma], abs=1e-6)
        assert dual.nu == pytest.approx([0.0], abs=1e-6)

    def test_infeasible_state(self):
        # state-dependent right-hand side: u <= 1 + x and u >= -1 make
        # U(x) empty for x < -2
        spec = gddp.ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
            cost=gddp.StageCost(1, (gddp.CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)),
            constraints=gddp.InputConstraintSet(
                E=[[1.0], [-1.0]], h0=[1.0, 1.0], H=[[1.0], [0.0]]
            ),
            class_tag=ProblemClass.CONVEX_QUADRATIC,
        )
        V = ValueApprox.initial(spec)
        primal, dual = solve_onestage_convex(spec, V, [-3.0])
        assert primal.status is SolveStatus.INFEASIBLE
        assert np.isinf(primal.J_P)
        primal, _ = solve_onestage_convex(spec, V, [0.0])
        assert primal.status is SolveStatus.OPTIMAL

    def test_primal_contracts_on_random_instances(self):
        rng = np.random.default_rng(21)
        for seed in range(6):
            spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=2, seed=seed))
            V = ValueApprox.initial(spec)
            for _ in range(4):
                x = rng.normal(0, 5, size=2)
                primal, dual = solve_onestage_convex(spec, V, x)
                assert primal.status is SolveStatus.OPTIMAL
                # successor consistency and input feasibility
                assert primal.x_plus_star == pytest.approx(
                    gddp.eval_dynamics(spec, x, primal.u_star), abs=1e-8
                )
                assert np.all(
                    spec.constraints.E @ primal.u_star <= spec.constraints.rhs(x) + 1e-8
                )
                # epigraph tightness: 1'beta = stage cost, alpha = value at successor
                assert primal.beta_star.sum() == pytest.approx(
                    gddp.eval_stage_cost(spec, x, primal.u_star), abs=1e-7
                )
                assert primal.alpha_star == pytest.approx(V.value(primal.x_plus_star), abs=1e-7)
                assert primal.J_P == pytest.approx(
                    gddp.eval_stage_cost(spec, x, primal.u_star)
                    + spec.gamma * V.value(primal.x_plus_star),
                    abs=1e-6,
                )
                # dual constraints and weak duality
                L = spec.cost.selector_matrix()
                assert L.T @ dual.lambda_beta == pytest.approx(np.ones(spec.cost.K), abs=1e-7)
                assert dual.lambda_alpha.sum() == pytest.approx(spec.gamma, abs=1e-7)
                assert np.all(dual.lambda_beta >= -1e-12)
                assert np.all(dual.lambda_alpha >= -1e-12)
                assert np.all(dual.lambda_c >= -1e-12)
                assert dual.J_D <= primal.J_P + 1e-6 * (1 + abs(primal.J_P))
                V.append(build_lower_bound(spec, x, primal, dual, V))


class TestZeta2:
    def test_scalar_value(self, scalar_lqr):
        val = zeta2(scalar_lqr, [0.0], [0.5], [0.0, 0.0], [1.0])
        assert val == pytest.approx(-0.125)

    def test_all_zero_multipliers(self, scalar_lqr):
        assert zeta2(scalar_lqr, [0.0], [0.0], [0.0, 0.0], [0.0]) == 0.0

    def test_range_violation_is_minus_inf(self):
        # R = 0 with a nonzero linear input direction: the infimum diverges
        spec = gddp.ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
            cost=gddp.StageCost(
                1, (gddp.CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[0.0]]),)
            ),
            constraints=gddp.InputConstraintSet.box([-1.0], [1.0], 1),
            class_tag=ProblemClass.CONVEX_QUADRATIC,
        )
        assert zeta2(spec, [0.0], [1.0], [0.0, 0.0], [1.0]) == -np.inf


class TestBuildLowerBound:
    def test_first_bound_is_half_x_squared(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        primal, dual = solve_onestage_convex(scalar_lqr, V, [2.0])
        g1 = build_lower_bound(scalar_lqr, [2.0], primal, dual, V)
        assert g1.materialized.hessian.ravel() == pytest.approx([1.0], abs=1e-6)
        assert g1.materialized.linear == pytest.approx([0.0], abs=1e-6)
        assert g1.materialized.constant == pytest.approx(0.0, abs=1e-6)
        assert g1.bound_id == 1

    def test_second_bound(self, scalar_lqr, worked_V):
        g2 = worked_V.bounds[2]
        assert g2.materialized.hessian.ravel() == pytest.approx([1.0], abs=1e-6)
        assert g2.materialized.linear == pytest.approx([0.25], abs=1e-6)
        assert g2.materialized.constant == pytest.approx(-0.25, abs=1e-6)
        assert g2.evaluate([2.0]) == pytest.approx(2.25, abs=1e-6)

    def test_zero_duals_give_phi(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        primal = OneStageSolution(
            u_star=np.zeros(1),
            x_plus_star=np.zeros(1),
            beta_star=np.zeros(1),
            alpha_star=0.0,
            J_P=0.0,
            status=SolveStatus.OPTIMAL,
        )
        dual = DualSolution(
            nu=np.zeros(1),
            lambda_c=np.zeros(2),
            lambda_beta=np.ones(1),
            lambda_alpha=np.array([1.0]),
            J_D=0.0,
            kkt_residual=0.0,
        )
        g = build_lower_bound(scalar_lqr, [0.0], primal, dual, V)
        assert g.materialized.hessian.ravel() == pytest.approx([1.0])
        assert g.materialized.linear == pytest.approx([0.0])
        assert g.materialized.constant == pytest.approx(0.0)

    def test_anchor_property(self):
        # strong duality: the new bound equals the one-stage optimum at its origin
        rng = np.random.default_rng(5)
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=3, m=1, seed=9))
        V = ValueApprox.initial(spec)
        for _ in range(8):
            x = rng.normal(0, 5, size=3)
            primal, dual = solve_onestage_convex(spec, V, x)
            g = build_lower_bound(spec, x, primal, dual, V)
            assert abs(g.evaluate(x) - primal.J_P) <= 1e-6 * (1 + abs(primal.J_P))
            V.append(g)

    def test_new_bound_curvature_is_weighted_phi_mix(self):
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=3))
        V = ValueApprox.initial(spec)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(0, 5, size=2)
            primal, dual = solve_onestage_convex(spec, V, x)
            g = build_lower_bound(spec, x, primal, dual, V)
            expected = dual.lambda_beta[0] * spec.cost.terms[0].phi.hessian
            assert g.materialized.hessian == pytest.approx(expected, abs=1e-10)
            V.append(g)

    def test_bounds_stay_below_riccati_value(self, scalar_lqr):
        # with a box too wide to bind, every generated bound must stay below
        # the known optimal value from the Riccati oracle
        spec = widen_box(scalar_lqr, 1e3)
        ric = gddp.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 1.0)
        P = ric.P
        V = ValueApprox.initial(spec)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(0, 5, size=1)
            primal, dual = solve_onestage_convex(spec, V, x)
            V.append(build_lower_bound(spec, x, primal, dual, V))
        probes = rng.normal(0, 5, size=(1000, 1))
        vstar = 0.5 * np.einsum("pi,ij,pj->p", probes, P, probes)
        assert np.all(V.values_batch(probes) <= vstar + 1e-6)


class TestBruteForce:
    def test_ball_and_beam_origin(self):
        spec = gddp.ball_and_beam_spec()
        V = ValueApprox.initial(spec)
        primal, dual = solve_onestage_bruteforce(spec, V, np.zeros(4), SolverConfig(bruteforce_grid=401))
        assert primal.status is SolveStatus.OPTIMAL
        assert primal.u_star == pytest.approx([0.0], abs=1e-8)
        assert primal.J_P == pytest.approx(0.0, abs=1e-10)

    def test_matches_convex_on_scalar(self, scalar_lqr, worked_V):
        V = ValueApprox(1, spec=scalar_lqr, bounds=worked_V.bounds[:2])
        primal, dual = solve_onestage_bruteforce(scalar_lqr, V, [2.0])
        assert primal.J_P == pytest.approx(2.25, abs=1e-3)
        assert primal.u_star == pytest.approx([-0.5], abs=1e-3)
        assert dual.nu == pytest.approx([0.5], abs=1e-2)
        assert dual.lambda_alpha == pytest.approx([0.0, 1.0], abs=1e-2)

    def test_box_binds(self, scalar_lqr, worked_V):
        V = ValueApprox(1, spec=scalar_lqr, bounds=worked_V.bounds[:2])
        primal, dual = solve_onestage_bruteforce(scalar_lqr, V, [-10.0])
        assert primal.u_star == pytest.approx([1.0], abs=1e-9)
        assert dual.lambda_c[0] > 0.1  # upper bound row is active
        # cross-check against the convex duals
        _, dual_c = solve_onestage_convex(scalar_lqr, V, [-10.0])
        assert dual.nu == pytest.approx(dual_c.nu, abs=1e-2)
        assert dual.lambda_c == pytest.approx(dual_c.lambda_c, abs=1e-2)

    def test_empty_box_is_infeasible(self):
        spec = gddp.ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
            cost=gddp.StageCost(1, (gddp.CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)),
            constraints=gddp.InputConstraintSet(E=[[1.0], [-1.0]], h0=[1.0, 1.0], H=[[1.0], [0.0]]),
            class_tag=ProblemClass.NONLINEAR_BRUTE_FORCE,
        )
        primal, _ = solve_onestage_bruteforce(spec, ValueApprox.initial(spec), [-5.0])
        assert primal.status is SolveStatus.INFEASIBLE


class TestRecoverDuals:
    def test_worked_case(self, scalar_lqr, worked_V):
        V = ValueApprox(1, spec=scalar_lqr, bounds=worked_V.bounds[:2])
        primal = OneStageSolution(
            u_star=np.array([-0.5]),
            x_plus_star=np.array([0.5]),
            beta_star=np.array([2.125]),
            alpha_star=0.125,
            J_P=2.25,
            status=SolveStatus.OPTIMAL,
        )
        dual = recover_duals_kkt(scalar_lqr, V, [2.0], primal)
        assert dual.nu == pytest.approx([0.5], abs=1e-6)
        assert dual.lambda_alpha == pytest.approx([0.0, 1.0], abs=1e-9)
        assert dual.lambda_c == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_zero_state(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        primal = OneStageSolution(
            u_star=np.zeros(1),
            x_plus_star=np.zeros(1),
            beta_star=np.zeros(1),
            alpha_star=0.0,
            J_P=0.0,
            status=SolveStatus.OPTIMAL,
        )
        dual = recover_duals_kkt(scalar_lqr, V, [0.0], primal)
        assert dual.lambda_beta == pytest.approx([1.0])
        assert dual.lambda_alpha == pytest.approx([scalar_lqr.gamma])
        assert dual.nu == pytest.approx([0.0])

    def test_tie_splits_equally(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        V.append(LowerBound.from_quadratic(1, QuadraticForm([[1.0]], [0.0], 0.0)))
        primal = OneStageSolution(
            u_star=np.zeros(1),
            x_plus_star=np.zeros(1),  # both bounds evaluate to 0 here
            beta_star=np.zeros(1),
            alpha_star=0.0,
            J_P=0.0,
            status=SolveStatus.OPTIMAL,
        )
        dual = recover_duals_kkt(scalar_lqr, V, [0.0], primal)
        assert dual.lambda_alpha == pytest.approx([0.5, 0.5])


# ---------------------------------------------------------------------------
# The exact active-set path against the interior-point method


def random_convex_spec(rng, n, m, K, J, gamma):
    """A convex-quadratic problem with J >= K cost terms and a state-dependent input box."""
    terms = []
    for j in range(J):
        L = rng.normal(size=(n, n))
        S = rng.normal(size=(m, m))
        terms.append(
            gddp.CostTerm(
                j % K,
                QuadraticForm(L @ L.T / n + 0.1 * np.eye(n), 0.5 * rng.normal(size=n), abs(rng.normal())),
                0.5 * rng.normal(size=m),
                S @ S.T / m + 0.5 * np.eye(m),
            )
        )
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    radius = rng.uniform(0.3, 1.5, size=m)
    E = np.vstack([np.eye(m), -np.eye(m)])
    return gddp.ProblemSpec(
        n=n,
        m=m,
        gamma=gamma,
        dynamics=gddp.DynamicsModel.linear(A, rng.normal(size=(n, m))),
        cost=gddp.StageCost(K, tuple(terms)),
        constraints=gddp.InputConstraintSet(E=E, h0=np.concatenate([radius, radius]), H=0.05 * rng.normal(size=(2 * m, n))),
        class_tag=ProblemClass.CONVEX_QUADRATIC,
    )


# the interior-point tolerances scale with 1 + |J_P|; tighter ones pin the
# reference input down to well below the 1e-6 the comparisons allow
TIGHT = SolverConfig(kkt_tol=1e-11, duality_gap_tol=1e-11)


def exact_solve(spec, V, x):
    x = np.asarray(x, dtype=float)
    box = spec.constraints.row_box(x)
    if box is None:
        return None
    return onestage._solve_active_set(spec, V, x, onestage.input_feasible_point(spec, x), box, SolverConfig())


def linear_bounds(slopes, offset=1.0):
    """Quadratic-form bounds a'y + offset with zero curvature, after the zero bound."""
    n = len(slopes[0])
    return [LowerBound.zero(n)] + [
        LowerBound.from_quadratic(k + 1, QuadraticForm(np.zeros((n, n)), a, offset)) for k, a in enumerate(slopes)
    ]


def identity_spec(m, lo, hi, gamma=1.0):
    """x+ = u with cost 1/2|x|^2 + 1/2|u|^2 and the box lo <= u <= hi."""
    return gddp.ProblemSpec(
        n=m,
        m=m,
        gamma=gamma,
        dynamics=gddp.DynamicsModel.linear(np.zeros((m, m)), np.eye(m)),
        cost=gddp.StageCost(1, (gddp.CostTerm(0, QuadraticForm(np.eye(m), np.zeros(m), 0.0), np.zeros(m), np.eye(m)),)),
        constraints=gddp.InputConstraintSet.box(lo, hi, m),
        class_tag=ProblemClass.CONVEX_QUADRATIC,
    )


def assert_same_solution(a, b):
    (pa, da), (pb, db) = a, b
    assert pa.status is pb.status is SolveStatus.OPTIMAL
    assert pa.J_P == pb.J_P
    np.testing.assert_array_equal(pa.u_star, pb.u_star)
    np.testing.assert_array_equal(da.lambda_alpha, db.lambda_alpha)


class TestExactActiveSet:
    @pytest.mark.parametrize(
        "n, m, K, J, gamma",
        [(2, 1, 1, 1, 1.0), (3, 1, 1, 3, 0.9), (2, 2, 2, 3, 0.95), (3, 2, 1, 2, 1.0), (3, 3, 2, 4, 0.8)],
    )
    def test_matches_interior_point(self, n, m, K, J, gamma):
        rng = np.random.default_rng(100 * n + 10 * m + J)
        spec = random_convex_spec(rng, n, m, K, J, gamma)
        V = ValueApprox.initial(spec)
        exact = faces = 0
        for x in rng.normal(0.0, 3.0, size=(12, n)):
            primal, dual = solve_onestage_convex(spec, V, x)
            ref, _ = onestage._solve_convex_ipm(spec, V, x, TIGHT)
            assert ref.status is SolveStatus.OPTIMAL
            assert abs(primal.J_P - ref.J_P) <= 1e-8 * (1.0 + abs(ref.J_P))
            # every term curvature is positive definite, so the optimal input is unique
            assert primal.u_star == pytest.approx(ref.u_star, abs=1e-6)
            if exact_solve(spec, V, x) is not None:
                exact += 1
                assert abs(dual.J_D - primal.J_P) <= 1e-12 * (1.0 + abs(primal.J_P))
                faces += bool(np.any(dual.lambda_c > 0))
            V.append(build_lower_bound(spec, x, primal, dual, V))
        assert exact >= 6  # the rest end on tied terms or three bounds and use the interior-point method
        assert faces >= 1  # some solves end on a face of the box

    def test_multiplier_sums_are_exact(self):
        rng = np.random.default_rng(7)
        for n, m, K, J, gamma in [(2, 1, 1, 2, 0.9), (3, 2, 2, 4, 0.97), (2, 3, 1, 1, 1.0)]:
            spec = random_convex_spec(rng, n, m, K, J, gamma)
            V = ValueApprox.initial(spec)
            for x in rng.normal(0.0, 3.0, size=(10, n)):
                result = exact_solve(spec, V, x)
                if result is None:
                    continue
                primal, dual = result
                assert dual.lambda_alpha.sum() == spec.gamma
                assert np.all(np.bincount(spec.cost.owners, weights=dual.lambda_beta) == 1.0)
                assert np.all(dual.lambda_alpha >= 0) and np.all(dual.lambda_beta >= 0) and np.all(dual.lambda_c >= 0)
                V.append(build_lower_bound(spec, x, primal, dual, V))

    @staticmethod
    def crease(m):
        """Cost 1/2|u|^2 plus the larger of two planes that cross at u_1 = 0.

        The optimum sits on the crease with the bound weight split in half.
        """
        slopes = [np.r_[3.0, np.ones(m - 1)], np.r_[-3.0, np.ones(m - 1)]]
        spec = identity_spec(m, -10 * np.ones(m), 10 * np.ones(m), gamma=0.9)
        return spec, ValueApprox(m, spec=spec, bounds=linear_bounds(slopes)), np.zeros(m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_kink_matches_interior_point(self, m):
        spec, V, x = self.crease(m)
        primal, dual = exact_solve(spec, V, x)
        ref, _ = onestage._solve_convex_ipm(spec, V, x, TIGHT)
        assert np.count_nonzero(dual.lambda_alpha) == 2
        assert dual.lambda_alpha[1:] == pytest.approx([0.45, 0.45], abs=1e-12)
        assert dual.lambda_alpha.sum() == spec.gamma
        assert abs(primal.J_P - ref.J_P) <= 1e-8 * (1.0 + abs(ref.J_P))
        assert primal.u_star == pytest.approx(ref.u_star, abs=1e-6)
        assert_same_solution(solve_onestage_convex(spec, V, x), (primal, dual))

    def test_kink_newton_step_cap_falls_back(self, monkeypatch):
        # one Newton step from the single-bound solution does not meet the
        # step test, so the kink is not used even where that step lands on it
        spec, V, x = self.crease(2)
        assert exact_solve(spec, V, x) is not None
        monkeypatch.setattr(onestage, "_KINK_NEWTON_STEPS", 1)
        assert exact_solve(spec, V, x) is None
        assert_same_solution(solve_onestage_convex(spec, V, x), onestage._solve_convex_ipm(spec, V, x))

    def test_non_stationary_point_is_rejected(self):
        # moving along the crease keeps both bounds tied and every check but
        # stationarity satisfied; the KKT residual must reject the point
        spec, V, x = self.crease(2)
        box = spec.constraints.row_box(x)
        solver = onestage._ActiveSetSolve(spec, V, x, V._materialized_stack(), box, SolverConfig())
        act = spec.cost.owner_argmax(np.zeros(spec.cost.J))
        u, weights = solver._kink(1, 2, act, np.zeros(2))
        no_faces = np.zeros(2, dtype=int)
        assert solver._pair(u, *solver._at(u), act, [1, 2], weights, no_faces) is not None
        moved = u + np.array([0.0, 1e-4])
        x_plus, terms, bvals = solver._at(moved)
        assert solver._active(terms, bvals, act, [1, 2])
        assert solver._pair(moved, x_plus, terms, bvals, act, [1, 2], weights, no_faces) is None

    def test_input_dimension_above_three_falls_back(self):
        spec = identity_spec(4, -np.ones(4), np.ones(4))
        V = ValueApprox(4, spec=spec, bounds=linear_bounds([np.array([1.0, -2.0, 0.5, 3.0])]))
        x = np.full(4, 0.3)
        assert exact_solve(spec, V, x) is None
        assert_same_solution(solve_onestage_convex(spec, V, x), onestage._solve_convex_ipm(spec, V, x))

    def test_non_box_row_falls_back(self):
        spec = dataclasses.replace(
            identity_spec(2, -np.ones(2), np.ones(2)),
            constraints=gddp.InputConstraintSet(E=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], h0=[1.0, 1.0, 1.0], H=np.zeros((3, 2))),
        )
        V = ValueApprox(2, spec=spec, bounds=linear_bounds([np.array([-2.0, -1.0])], offset=10.0))
        x = np.array([0.5, -0.2])
        assert exact_solve(spec, V, x) is None
        primal, dual = solve_onestage_convex(spec, V, x)
        assert dual.lambda_c[0] > 0.1  # the diagonal row binds
        assert_same_solution((primal, dual), onestage._solve_convex_ipm(spec, V, x))

    def test_three_tied_bounds_fall_back(self):
        # three planes at 120 degrees meet at u = 0, where each carries gamma / 3
        angles = 2 * np.pi * np.arange(3) / 3
        slopes = [2.0 * np.array([np.cos(a), np.sin(a)]) for a in angles]
        spec = identity_spec(2, -5 * np.ones(2), 5 * np.ones(2))
        V = ValueApprox(2, spec=spec, bounds=linear_bounds(slopes))
        x = np.zeros(2)
        assert exact_solve(spec, V, x) is None
        primal, dual = solve_onestage_convex(spec, V, x)
        assert dual.lambda_alpha[1:] == pytest.approx([1 / 3] * 3, abs=1e-6)
        assert_same_solution((primal, dual), onestage._solve_convex_ipm(spec, V, x))

    def test_kink_on_box_face_falls_back(self):
        # the crease u_2 = 0 of two planes, with u_1 held on its lower face
        spec = identity_spec(2, np.array([1.0, -5.0]), np.array([2.0, 5.0]))
        V = ValueApprox(2, spec=spec, bounds=linear_bounds([np.array([0.0, 3.0]), np.array([0.0, -3.0])]))
        x = np.zeros(2)
        assert exact_solve(spec, V, x) is None
        primal, dual = solve_onestage_convex(spec, V, x)
        assert primal.u_star == pytest.approx([1.0, 0.0], abs=1e-6)
        assert_same_solution((primal, dual), onestage._solve_convex_ipm(spec, V, x))


def full_row_pair(self, u, x_plus, terms, bvals, act, idx, weights, faces):
    """Reference for ``_ActiveSetSolve._pair``: J_D and the KKT residual over every row.

    Forms the complementarity and dual objective over all terms, bounds and
    constraint rows, and includes the multiplier-sum rows of the
    interior-point path, which are exactly zero on this path.
    """
    spec, gamma = self.spec, self.spec.gamma
    cost, cons = spec.cost, spec.constraints
    F_box = cons.E @ u - self.h
    if (F_box > onestage._TIE_TOL * (1.0 + np.abs(self.h))).any():
        return None
    beta = cost.owner_max(terms)
    alpha = float(bvals.max())
    J_P = float(beta.sum() + gamma * alpha)

    lam_beta = np.zeros(cost.J)
    lam_beta[act] = 1.0
    lam_alpha = np.zeros(len(bvals))
    lam_alpha[idx] = weights
    nu = np.asarray(weights) @ (self.Hb[idx] @ x_plus + self.lb[idx])
    grad = self.r_mat[act].sum(axis=0) + self.R_stk[act].sum(axis=0) @ u + self.W.T @ nu
    lam_c = np.zeros(cons.n_c)
    if faces.any():
        # the binding row of each face coordinate is the one row_box took its bound from
        cols, coef = cons._box_rows
        row_bound = self.h / coef
        for k in np.flatnonzero(faces):
            face = self.hi[k] if faces[k] > 0 else self.lo[k]
            row = np.flatnonzero((cols == k) & (faces[k] * coef > 0) & (row_bound == face))[0]
            lam_c[row] = max(-grad[k] / coef[row], 0.0)

    # dual objective and KKT residual as the Lagrangian at (u, lambda),
    # with the rows and residuals of the interior-point path
    F_cost = terms - beta[cost.owners]
    F_bnd = bvals - alpha
    J_D = float(beta.sum() + gamma * alpha + lam_c @ F_box + lam_beta @ F_cost + lam_alpha @ F_bnd)
    r_d = np.concatenate(
        [
            grad + cons.E.T @ lam_c,
            1.0 - np.bincount(cost.owners, weights=lam_beta, minlength=cost.K),
            [gamma - lam_alpha.sum()],
        ]
    )
    complementarity = np.concatenate([lam_c * F_box, lam_beta * F_cost, lam_alpha * F_bnd])
    kkt_residual = max(
        float(np.abs(r_d).max()), float(F_box.max(initial=0.0)), float(np.abs(complementarity).max())
    )
    if kkt_residual > self.cfg.kkt_tol * (1.0 + abs(J_P)):
        return None
    primal = OneStageSolution(
        u_star=u, x_plus_star=x_plus, beta_star=beta, alpha_star=alpha, J_P=J_P, status=SolveStatus.OPTIMAL
    )
    dual = DualSolution(
        nu=nu, lambda_c=lam_c, lambda_beta=lam_beta, lambda_alpha=lam_alpha, J_D=J_D, kkt_residual=kkt_residual
    )
    return primal, dual




def assert_bit_identical(a, b):
    for x, y in zip(a, b):
        for name in x.__dataclass_fields__:
            p, q = getattr(x, name), getattr(y, name)
            if isinstance(p, np.ndarray):
                assert p.shape == q.shape and p.tobytes() == q.tobytes(), name
            elif isinstance(p, float):
                assert p.hex() == q.hex(), name
            else:
                assert p == q, name


def solve_reference_corpus():
    """Exact one-stage solves on the inputs that the differential tests of the lean helpers run over.

    The lqr-converge corpus, the set-up of the first certify-frozen system
    (perfbench/workloads.py), a J > K spec whose state-dependent box ends
    some solves on its faces, and a point off a crease that must be rejected.
    """
    cfg = gddp.GddpConfig(delta=1e-3, picker=gddp.Picker.MAX_BELLMAN_ERROR, check_every=1)
    for spec, X in lqr_corpus():
        gddp.run(spec, X, cfg)
    sys_cfg = gddp.RandomSystemConfig(n=3, m=1, sample_count=10)
    rng = np.random.default_rng([0, 1, 0])
    spec = dataclasses.replace(
        gddp.generate_random_system(sys_cfg, rng),
        constraints=gddp.InputConstraintSet.box(-1e3 * np.ones(1), 1e3 * np.ones(1), 3),
    )
    cert_cfg = gddp.GddpConfig(delta=1e-3, max_iterations=100, picker=gddp.Picker.MAX_BELLMAN_ERROR, check_every=5)
    gddp.run(spec, gddp.sample_states(sys_cfg, rng), cert_cfg)
    spec = random_convex_spec(np.random.default_rng(7), 3, 3, 2, 4, 0.8)
    V = ValueApprox.initial(spec)
    for x in np.random.default_rng(8).normal(0.0, 3.0, size=(12, 3)):
        primal, dual = solve_onestage_convex(spec, V, x)
        V.append(build_lower_bound(spec, x, primal, dual, V))
    TestExactActiveSet().test_non_stationary_point_is_rejected()


class TestLeanPair:
    def test_bit_identical_to_the_full_row_reference(self, monkeypatch):
        lean = onestage._ActiveSetSolve._pair
        seen = {"accepted": 0, "rejected": 0}

        def both(solver, *args):
            got, ref = lean(solver, *args), full_row_pair(solver, *args)
            assert (got is None) == (ref is None)
            if ref is None:
                seen["rejected"] += 1
            else:
                seen["accepted"] += 1
                assert_bit_identical(got, ref)
            return got

        monkeypatch.setattr(onestage._ActiveSetSolve, "_pair", both)
        solve_reference_corpus()
        assert seen["accepted"] > 500
        assert seen["rejected"] >= 1


# Reference versions of the exact-path helpers, with every step written as a
# numpy expression in the same order of operations.  The helpers in
# gddp.onestage must reach the same decisions with the same bytes.


def reference_box_point(lo, hi):
    if np.any(lo > hi + 1e-12):
        return None
    mid = np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi), 0.0)
    return np.clip(mid, lo, hi)


def reference_row_box(cons, x):
    rows = cons._box_rows
    if rows is None:
        return None
    cols, coef = rows
    m = cons.E.shape[1]
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    bound = cons.rhs(x) / coef
    upper = coef > 0
    np.minimum.at(hi, cols[upper], bound[upper])
    np.maximum.at(lo, cols[~upper], bound[~upper])
    return lo, hi


def reference_box_qp(Q, c, lo, hi):
    u = np.linalg.solve(Q, -c)
    if (u >= lo).all() and (u <= hi).all():
        return u, np.zeros(len(c), dtype=int)
    for faces, on, free in onestage._FACE_SETS[len(c)]:
        u = np.where(faces < 0, lo, hi)
        if not np.isfinite(u[on]).all():
            continue
        if len(free):
            u[free] = np.linalg.solve(Q[free][:, free], -(c[free] + Q[free][:, on] @ u[on]))
            if (u[free] < lo[free]).any() or (u[free] > hi[free]).any():
                continue
        Qu = Q @ u
        if (faces * (Qu + c) > onestage._TIE_TOL * (1.0 + np.abs(c).max() + np.abs(Qu).max())).any():
            continue
        return u, faces
    return None


def reference_piece(self, i):
    H, l, W = self.Hb[i], self.lb[i], self.W
    grad0 = H @ self.drift + l
    return W.T @ H @ W, W.T @ grad0, 0.5 * (grad0 + l) @ self.drift + self.cb[i]


def reference_active(self, terms, bvals, act, idx):
    top = bvals[idx].min()
    if bvals.max() > top + onestage._TIE_TOL * (1.0 + abs(top)):
        return False
    t_act = terms[act]
    return bool((self.spec.cost.owner_max(terms) <= t_act + onestage._TIE_TOL * (1.0 + np.abs(t_act))).all())


def reference_kink(self, i, j, act, u_start):
    """The kink Newton iteration with the KKT matrix built by np.block and np.append."""
    gamma = self.spec.gamma
    Rs, rs = self.R_stk[act].sum(axis=0), self.r_mat[act].sum(axis=0)
    Pi, bi, ei = reference_piece(self, i)
    Pj, bj, ej = reference_piece(self, j)
    dP, db, de = Pi - Pj, bi - bj, ei - ej
    u, lam = u_start, 0.5 * gamma
    for _ in range(onestage._KINK_NEWTON_STEPS):
        Hl = Rs + lam * Pi + (gamma - lam) * Pj
        slope = dP @ u + db
        kkt = np.block([[Hl, slope[:, None]], [slope[None, :], np.zeros((1, 1))]])
        F = np.append(Hl @ u + rs + lam * bi + (gamma - lam) * bj, 0.5 * u @ dP @ u + db @ u + de)
        try:
            step = np.linalg.solve(kkt, -F)
        except np.linalg.LinAlgError:
            return None
        u, lam = u + step[:-1], lam + step[-1]
        if np.abs(step).max() <= 1e-12 * (1.0 + np.abs(u).max() + abs(lam)):
            break
    else:
        return None
    if not 0.0 <= lam <= gamma or (u <= self.lo).any() or (u >= self.hi).any():
        return None
    if not onestage._positive_definite(Rs + lam * Pi + (gamma - lam) * Pj):
        return None
    return u, onestage._split_gamma(gamma, lam)


def assert_same_bytes(a, b):
    """Equal structure, arrays with equal dtype, shape and bytes, floats with equal bits."""
    if isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bytes(x, y)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert isinstance(b, float) and a.hex() == b.hex()
    else:
        assert a == b and type(a) is type(b)


class TestLeanHelpers:
    def test_bit_identical_to_the_reference_expressions(self, monkeypatch):
        calls = {}

        def compare(owner, name, reference, decision=lambda r: r is not None):
            lean = getattr(owner, name)

            def both(*args):
                got, ref = lean(*args), reference(*args)
                assert_same_bytes(got, ref)
                key = (name, decision(ref))
                calls[key] = calls.get(key, 0) + 1
                return got

            monkeypatch.setattr(owner, name, both)

        Solve = onestage._ActiveSetSolve
        compare(onestage, "_box_point", reference_box_point)
        compare(onestage, "_box_qp", reference_box_qp, decision=lambda r: r is not None and bool(r[1].any()))
        compare(Solve, "_piece", reference_piece)
        compare(Solve, "_active", reference_active, decision=bool)
        compare(Solve, "_kink", reference_kink)
        compare(gddp.InputConstraintSet, "row_box", reference_row_box)
        solve_reference_corpus()
        # every helper ran, each outcome was seen, and some solves ended on a face
        assert calls[("_box_point", True)] > 500 and calls[("_box_qp", True)] > 100
        assert calls[("_piece", True)] > 500 and calls[("row_box", True)] > 500
        assert calls[("_active", True)] > 500 and calls[("_active", False)] > 50
        assert calls[("_kink", True)] > 20 and calls[("_kink", False)] >= 1

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ([-1.0, 0.0], [2.0, 3.0]),  # bounded
            ([-np.inf, 0.5], [1.0, np.inf]),  # half-open on each side
            ([-np.inf, -np.inf], [np.inf, np.inf]),  # unbounded
            ([-0.0, 0.0], [np.inf, 0.0]),  # signed zeros on the faces
            ([1e308, -1e308], [1e308, 1e308]),  # a midpoint sum that overflows
            ([1.0, 0.0], [1.0 - 1e-13, 1.0]),  # empty within the 1e-12 slack: clipped to hi
            ([2.0, 0.0], [1.0, 1.0]),  # empty
            ([np.nan, 0.0], [1.0, np.nan]),  # NaN bounds propagate
            ([], []),
        ],
    )
    def test_box_point_matches_the_reference(self, lo, hi):
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 1e308 + 1e308 in the reference
            assert_same_bytes(onestage._box_point(lo, hi), reference_box_point(lo, hi))

    def test_row_box_matches_the_reference_and_its_cached_box_is_read_only(self):
        fixed = gddp.InputConstraintSet.box(np.array([0.0, -2.0]), np.array([1.0, 1.0]), 3)  # h0 holds -0.0
        moving = gddp.InputConstraintSet(E=fixed.E, h0=fixed.h0, H=0.1 * np.ones((4, 3)))
        no_state = gddp.InputConstraintSet(E=fixed.E, h0=fixed.h0, H=np.zeros((4, 0)))
        one_sided = gddp.InputConstraintSet(E=[[1.0, 0.0], [0.0, -2.0]], h0=[1.0, -0.0], H=np.zeros((2, 3)))
        general = gddp.InputConstraintSet(E=[[1.0, 1.0]], h0=[1.0], H=np.zeros((1, 3)))
        states = [np.zeros(3), -np.ones(3), np.array([1e200, 0.0, -3.0]), np.array([np.nan, 0.0, 1.0]), np.r_[np.inf, 0.0, 0.0]]
        with np.errstate(invalid="ignore"):  # 0 * inf in H x at the non-finite states
            for cons in (fixed, moving, no_state, one_sided, general):
                for x in states:
                    assert_same_bytes(cons.row_box(x), reference_row_box(cons, x))
        for cons in (fixed, no_state, one_sided):
            box = cons.row_box(np.ones(3))
            assert box is cons.row_box(-np.ones(3))
            assert not any(a.flags.writeable for a in box)
        assert moving.row_box(np.ones(3)) is not moving.row_box(np.ones(3))
        assert general.row_box(np.zeros(3)) is None

    def test_no_caller_writes_into_the_cached_box(self):
        # a write into a read-only array raises, so each caller of row_box
        # running to its end shows that it only reads the box
        spec = make_scalar_lqr()
        box = spec.constraints.row_box(np.zeros(1))
        assert not box[0].flags.writeable and not box[1].flags.writeable
        V = worked_value_approx(spec)
        for x in ([2.0], [-3.0], [0.0]):
            assert solve_onestage_convex(spec, V, x)[0].status is SolveStatus.OPTIMAL  # the exact path and _box_qp
            brute, _ = solve_onestage_bruteforce(spec, V, x, SolverConfig(bruteforce_grid=51))
            assert brute.status is SolveStatus.OPTIMAL
            assert onestage._solve_convex_ipm(spec, V, x)[0].status is SolveStatus.OPTIMAL
        assert gddp.validate_spec(spec).accepted
        assert spec.constraints.derived_box(np.zeros(1)) is box


def load_ipm_failure():
    """(spec, V-hat, x) at which the interior-point method fails on an lqr-converge corpus system.

    Captured from ``run`` on corpus system 36 of ``perfbench/workloads.py``
    (2x1, check_every=1) at the sweep solve that ended in
    NUMERICAL_FAILURE, before the exact active-set path existed.
    """
    with open(Path(__file__).parent / "data" / "ipm_failure_lqr_corpus_36.json") as fh:
        data = json.load(fh)
    spec = gddp.problem_from_dict(data["problem"])
    bounds = [
        LowerBound.from_quadratic(k, QuadraticForm(np.array(b["H"]), np.array(b["l"]), b["c"]))
        for k, b in enumerate(data["bounds"])
    ]
    return spec, ValueApprox(spec.n, spec=spec, bounds=bounds), np.array(data["x"])


class TestInteriorPointFailureFixture:
    @pytest.mark.xfail(strict=True, reason="the interior-point method does not converge on this pair (ROADMAP item 4)")
    def test_interior_point_reaches_optimal(self):
        spec, V, x = load_ipm_failure()
        primal, _ = onestage._solve_convex_ipm(spec, V, x)
        assert primal.status is SolveStatus.OPTIMAL

    def test_public_solve_is_optimal_with_valid_multipliers(self):
        spec, V, x = load_ipm_failure()
        primal, dual = solve_onestage_convex(spec, V, x)
        assert primal.status is SolveStatus.OPTIMAL
        assert dual.lambda_alpha.sum() == spec.gamma
        assert np.all(np.bincount(spec.cost.owners, weights=dual.lambda_beta) == 1.0)
        assert np.all(dual.lambda_alpha >= 0) and np.all(dual.lambda_c >= 0)
        assert abs(dual.J_D - primal.J_P) <= 1e-12 * (1.0 + abs(primal.J_P))
