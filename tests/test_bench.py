import numpy as np
import pytest

import gddp
from gddp import RandomSystemConfig, generate_random_system, validate_spec
from gddp.bench import (
    BALL_AND_BEAM_X0,
    ball_and_beam_samples,
    ball_and_beam_spec,
    csv_to_rows,
    rows_to_csv,
    run_iterations_experiment,
    run_quality_experiment,
)


class TestGenerateRandomSystem:
    def test_postconditions(self):
        for seed in range(10):
            spec = generate_random_system(RandomSystemConfig(n=3, m=1, seed=seed))
            A, B = spec.dynamics.A, spec.dynamics.B
            assert np.abs(np.linalg.eigvals(A)).max() <= 0.99 + 1e-12
            ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(3)])
            assert np.linalg.matrix_rank(ctrb) == 3

    def test_deterministic(self):
        cfg = RandomSystemConfig(n=2, m=2, seed=77)
        a = generate_random_system(cfg)
        b = generate_random_system(cfg)
        assert np.array_equal(a.dynamics.A, b.dynamics.A)
        assert np.array_equal(a.dynamics.B, b.dynamics.B)

    def test_batch_validates_convex(self):
        for seed in range(20):
            spec = generate_random_system(RandomSystemConfig(n=2, m=1, seed=seed))
            report = validate_spec(spec)
            assert report.accepted
            assert report.problem_class is gddp.ProblemClass.CONVEX_QUADRATIC

    def test_rejects_bad_sample_count(self):
        with pytest.raises(gddp.ValidationError):
            RandomSystemConfig(n=2, m=1, sample_count=0)


class TestBallAndBeam:
    def test_spec_values(self):
        spec = ball_and_beam_spec()
        assert spec.dynamics.drift(np.zeros(4)) == pytest.approx(np.zeros(4))
        Fu = spec.dynamics.input_matrix(np.zeros(4))
        assert Fu.ravel() == pytest.approx([0.0, 0.0, 0.0, 0.2])
        # Q-weighted stage cost at the benchmark initial state
        cost = gddp.eval_stage_cost(spec, BALL_AND_BEAM_X0, [0.0])
        assert cost == pytest.approx(0.5 * (10.0 + 0.1745**2), abs=1e-12)
        assert validate_spec(spec).summary() == "ACCEPT NonlinearBruteForce"

    def test_drift_jacobian_matches_finite_differences(self):
        spec = ball_and_beam_spec()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(0, 0.5, size=4)
            J = spec.dynamics.drift_jacobian(x)
            fd = np.zeros((4, 4))
            for k in range(4):
                h = 1e-6 * max(1.0, abs(x[k]))
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd[:, k] = (spec.dynamics.drift(xp) - spec.dynamics.drift(xm)) / (2 * h)
            assert np.abs(J - fd).max() <= 1e-6 * (1 + np.abs(fd).max())

    def test_input_matrix_jacobian_matches_finite_differences(self):
        spec = ball_and_beam_spec()
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(0, 0.5, size=4)
            J = spec.dynamics.input_matrix_jacobian(x)
            for k in range(4):
                h = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (spec.dynamics.input_matrix(xp) - spec.dynamics.input_matrix(xm)) / (2 * h)
                assert np.abs(J[:, :, k] - fd).max() <= 1e-6 * (1 + np.abs(fd).max())

    def test_sample_mixture_shape(self):
        rng = np.random.default_rng(0)
        X = ball_and_beam_samples(10, rng)
        assert X.shape == (10, 4)
        # the populations are interleaved: odd rows come from the wider draw
        assert np.std(X[1::2]) > np.std(X[0::2])
        assert np.abs(X[0::2]).max() < 0.5  # tight population stays near the origin


class TestBruteForceValidityFixture:
    @pytest.mark.xfail(
        strict=True,
        reason="brute-force bounds anchor at x+* as if it minimized the multiplier-weighted drift term; "
        "for ball-and-beam that term is unbounded below, and V-hat exceeds T V-hat on these rollouts",
    )
    @pytest.mark.parametrize(
        "seed, episode, steps",
        # ballbeam-budget episodes: at seed 5, episode 23, step 27 read eps = -0.0149;
        # at seed 7, episode 57, step 31 read eps = -0.579
        [(5, 23, 28), (7, 57, 32)],
        ids=["seed5-episode23", "seed7-episode57"],
    )
    def test_rollout_bellman_errors_nonnegative(self, seed, episode, steps):
        # 25 round-robin iterations at grid 601, then the greedy rollout
        spec = ball_and_beam_spec()
        solver = gddp.SolverConfig(bruteforce_grid=601)
        state = gddp.GddpState.initial(spec, ball_and_beam_samples(100, np.random.default_rng([seed, episode])))
        state.bellman_errors[:] = np.inf
        cfg = gddp.GddpConfig(picker=gddp.Picker.ROUND_ROBIN, max_iterations=25, solver=solver)
        rng = np.random.default_rng(0)
        for _ in range(25):
            gddp.gddp_iterate(spec, state, cfg, rng)
        traj = gddp.rollout_greedy(spec, state.V.snapshot(), BALL_AND_BEAM_X0, steps, solver)
        assert len(traj.bellman_errors) == steps
        assert float(traj.bellman_errors.min()) >= -1e-6


class TestIterationsExperiment:
    def test_rows_and_rejection(self):
        rows = run_iterations_experiment([(1, 1)], [1, 2], delta=1e-3, seed=0)
        assert [r["M"] for r in rows] == [1, 2]
        assert all(r["converged"] for r in rows)
        assert all(1 <= r["iterations"] <= 60 for r in rows)
        with pytest.raises(gddp.ValidationError):
            run_iterations_experiment([(1, 1)], [0], seed=0)

    def test_deterministic(self):
        a = run_iterations_experiment([(2, 1)], [1, 2], seed=3)
        b = run_iterations_experiment([(2, 1)], [1, 2], seed=3)
        assert [r["iterations"] for r in a] == [r["iterations"] for r in b]

    def test_counts_nondecreasing_across_seeds(self):
        # growing the sample set should not reduce the iteration count;
        # tolerate a violation in at most one of five seeds
        bad_seeds = 0
        for seed in range(5):
            rows = run_iterations_experiment([(2, 1)], [1, 2, 5, 10], delta=1e-3, seed=seed)
            iters = [r["iterations"] for r in rows]
            if not all(a <= b for a, b in zip(iters, iters[1:])):
                bad_seeds += 1
        assert bad_seeds <= 1


class TestQualityExperiment:
    def test_zero_iterations_row_is_well_formed(self):
        row = run_quality_experiment(n=1, m=1, M=3, iters=0, eval_samples=3, seed=0)
        # with only the zero bound, relative metrics are guarded out
        assert np.isnan(row.mean_rel_bellman_error_in) or np.isfinite(row.mean_rel_bellman_error_in)
        assert row.excluded_in >= 0
        d = row.as_dict()
        assert {"n", "m", "M", "subopt_bound_in", "subopt_bound_out"} <= set(d)

    def test_small_run(self):
        row = run_quality_experiment(n=1, m=1, M=5, iters=10, eval_samples=5, seed=1)
        assert row.mean_rel_bellman_error_in >= -1e-9
        assert row.subopt_bound_in >= -1e-12


class TestCsvRoundTrip:
    def test_lossless(self):
        rows = [
            {"n": 2, "m": 1, "M": 5, "iterations": 13, "converged": True, "wall_seconds": 0.25},
            {"n": 2, "m": 1, "M": 10, "iterations": 29, "converged": False, "wall_seconds": 1.5},
        ]
        text = rows_to_csv(rows)
        parsed = csv_to_rows(text)
        assert len(parsed) == 2
        for raw, back in zip(rows, parsed):
            assert set(back) == set(raw)
            for key, val in raw.items():
                assert type(val)(back[key]) == val or str(val) == back[key]
        # re-emitting parsed rows reproduces the same text
        assert rows_to_csv(parsed) == text
