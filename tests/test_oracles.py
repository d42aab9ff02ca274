import numpy as np
import pytest

import gddp
from gddp import (
    GddpConfig,
    GridBellmanOperator,
    grid_value_iteration,
    load_grid_value_function,
    save_grid_value_function,
    solve_dare,
)
from gddp.oracles import dare_residual

from conftest import make_scalar_lqr


def random_stabilizable(rng, n, m, radius=0.95):
    A = rng.standard_normal((n, n))
    r = np.abs(np.linalg.eigvals(A)).max()
    if r > radius:
        A *= radius / r
    B = rng.standard_normal((n, m))
    return A, B


class TestSolveDare:
    def test_scalar_closed_form(self):
        # fixed point satisfies p^2 - 0.25 p - 1 = 0 for A=0.5, B=Q=R=1, gamma=1
        sol = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 1.0)
        p = float(sol.P[0, 0])
        assert p == pytest.approx(1.1327822185, abs=1e-8)
        assert p**2 - 0.25 * p - 1 == pytest.approx(0.0, abs=1e-10)
        assert sol.residual <= 1e-10

    def test_one_step_problem(self):
        sol = solve_dare([[0.0]], [[2.0]], [[3.0]], [[1.0]], 1.0)
        assert sol.P.ravel() == pytest.approx([3.0])

    def test_discounted_marginally_stable(self):
        sol = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]], 0.9)
        assert sol.residual <= 1e-10
        assert dare_residual(sol.P, np.eye(1), np.eye(1), np.eye(1), np.eye(1), 0.9) <= 1e-10

    def test_gain_is_bellman_optimal(self):
        # u = -Kx must be the argmin of the discounted one-stage problem
        rng = np.random.default_rng(3)
        A, B = random_stabilizable(rng, 2, 1)
        gamma = 0.9
        sol = solve_dare(A, B, np.eye(2), np.eye(1), gamma)
        x = rng.standard_normal(2)
        u_star = -sol.K_gain @ x

        def q_value(u):
            xp = A @ x + B @ u
            return 0.5 * x @ x + 0.5 * u @ u + gamma * 0.5 * xp @ sol.P @ xp

        for du in [-1e-4, 1e-4]:
            assert q_value(u_star + du) >= q_value(u_star) - 1e-12

    def test_random_instances_psd_and_tight(self):
        rng = np.random.default_rng(0)
        for i in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            A, B = random_stabilizable(rng, n, m)
            sol = solve_dare(A, B, np.eye(n), np.eye(m), 1.0)
            assert sol.residual <= 1e-10
            assert np.linalg.eigvalsh(sol.P).min() >= -1e-10


class TestGridValueIteration:
    def test_zero_cost_gives_zero(self):
        spec = make_scalar_lqr(Q=0.0, R=0.0, gamma=0.9)
        gvf = grid_value_iteration(spec, (-10.0, 10.0), state_pts=21, input_pts=5)
        assert np.all(gvf.values == 0.0)

    def test_matches_riccati_interior(self):
        spec = make_scalar_lqr(gamma=0.9)
        gvf = grid_value_iteration(spec, (-10.0, 10.0), state_pts=201, input_pts=41, stop_tol=1e-3)
        ric = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 0.9)
        p = float(ric.P[0, 0])
        k = float(ric.K_gain[0, 0])
        # interior points where the input box is inactive (|u*| = k|x| < 1)
        xs = np.linspace(1.0, min(3.0, 0.9 / k), 15)
        for x in np.concatenate([xs, -xs]):
            truth = 0.5 * p * x**2
            assert gvf.evaluate([x]) == pytest.approx(truth, rel=0.02)

    def test_contraction_property(self):
        spec = make_scalar_lqr(gamma=0.9)
        op = GridBellmanOperator(spec, np.array([-10.0]), np.array([10.0]), 51, 11)
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.uniform(0, 50, size=51)
            w = rng.uniform(0, 50, size=51)
            tv, tw = op.sweep(v), op.sweep(w)
            assert np.abs(tv - tw).max() <= spec.gamma * np.abs(v - w).max() + 1e-9

    def test_monotone_sweeps_from_zero(self):
        spec = make_scalar_lqr(gamma=0.9)
        op = GridBellmanOperator(spec, np.array([-10.0]), np.array([10.0]), 51, 11)
        v = np.zeros(51)
        for _ in range(10):
            nv = op.sweep(v)
            assert np.all(nv >= v - 1e-12)
            v = nv

    def test_rejects_large_state_dimension(self):
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=4, m=2, seed=0))
        with pytest.raises(gddp.ValidationError):
            grid_value_iteration(spec, (-1.0, 1.0), state_pts=5, input_pts=3)

    def test_two_dim_interpolation(self):
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=1, gamma=0.9))
        import dataclasses

        spec = dataclasses.replace(spec, gamma=0.9)
        gvf = grid_value_iteration(spec, (-4.0, 4.0), state_pts=31, input_pts=9, stop_tol=1e-3)
        # interpolation reproduces node values exactly
        axes = gvf.axes()
        for i in (0, 10, 30):
            for j in (0, 15, 30):
                x = np.array([axes[0][i], axes[1][j]])
                assert gvf.evaluate(x) == pytest.approx(gvf.values[i, j], rel=1e-12)

    def test_gddp_bounds_below_grid_values(self):
        # every generated bound must stay below the gridded value function
        # plus its local discretization margin
        spec = make_scalar_lqr(gamma=0.9)
        result = gddp.run(spec, [[2.0], [-3.0], [5.0]], GddpConfig(delta=1e-4))
        gvf = grid_value_iteration(spec, (-10.0, 10.0), state_pts=201, input_pts=41, stop_tol=1e-4)
        xs = gvf.axes()[0][(np.abs(gvf.axes()[0]) <= 8.0)]
        grid_vals = gvf.evaluate_batch(xs.reshape(-1, 1))
        cell = float(gvf.steps[0])
        lip = np.gradient(gvf.values, gvf.axes()[0])
        lip_at = np.interp(xs, gvf.axes()[0], np.abs(lip))
        margin = lip_at * cell + 1e-4 * spec.gamma / (1 - spec.gamma)
        assert np.all(result.V_hat.values_batch(xs.reshape(-1, 1)) <= grid_vals + margin + 1e-9)


class TestGridSerialization:
    def test_round_trip(self, tmp_path):
        spec = make_scalar_lqr(gamma=0.9)
        gvf = grid_value_iteration(spec, (-5.0, 5.0), state_pts=21, input_pts=5)
        path = tmp_path / "values.bin"
        save_grid_value_function(gvf, path)
        loaded = load_grid_value_function(path)
        assert np.array_equal(loaded.values, gvf.values)
        assert np.array_equal(loaded.lo, gvf.lo)
        assert np.array_equal(loaded.hi, gvf.hi)
        assert np.array_equal(loaded.counts, gvf.counts)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a grid file")
        with pytest.raises(gddp.ValidationError):
            load_grid_value_function(path)
