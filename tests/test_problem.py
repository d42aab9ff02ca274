import dataclasses

import numpy as np
import pytest

import gddp
from gddp import (
    CostTerm,
    DynamicsModel,
    InputConstraintSet,
    LowerBound,
    ProblemClass,
    ProblemSpec,
    QuadraticForm,
    StageCost,
    ValueApprox,
    eval_dynamics,
    eval_stage_cost,
    validate_spec,
)
from gddp.bench import ball_and_beam_samples, ball_and_beam_spec

from conftest import make_scalar_lqr


class TestQuadraticForm:
    def test_evaluate(self):
        q = QuadraticForm([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0], 3.0)
        z = np.array([1.0, 2.0])
        assert q(z) == pytest.approx(0.5 * (2 + 16) + (1 - 2) + 3)

    def test_symmetrized_at_construction(self):
        q = QuadraticForm([[1.0, 2e-13], [0.0, 1.0]], [0.0, 0.0], 0.0)
        assert np.array_equal(q.hessian, q.hessian.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(gddp.ValidationError):
            QuadraticForm([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0], 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((3, 3))
        q = QuadraticForm(H + H.T, rng.standard_normal(3), 0.7)
        X = rng.standard_normal((20, 3))
        batch = q.batch(X)
        for i in range(20):
            assert batch[i] == pytest.approx(q(X[i]), rel=1e-12)

    def test_gradient(self):
        q = QuadraticForm([[2.0]], [3.0], 0.0)
        assert q.gradient([1.5]) == pytest.approx([6.0])


class TestEvalDynamics:
    def test_scalar_lqr(self):
        spec = make_scalar_lqr()
        assert eval_dynamics(spec, [2.0], [-0.5]) == pytest.approx([0.5])

    def test_ball_and_beam_origin(self):
        spec = ball_and_beam_spec()
        out = eval_dynamics(spec, np.zeros(4), [1.0])
        assert out == pytest.approx([0.0, 0.0, 0.0, 0.2], abs=1e-12)

    def test_ball_and_beam_tilted(self):
        spec = ball_and_beam_spec()
        x = np.array([1.0, 0.0, -0.1745, 0.0])
        out = eval_dynamics(spec, x, [0.0])
        expected = np.array(
            [
                1.0,
                -9.81 * np.sin(-0.1745) * 0.1,
                -0.1745,
                -(0.1 * 9.81 * 1.0 * np.cos(-0.1745)) / (0.1 + 0.5) * 0.1,
            ]
        )
        assert out == pytest.approx(expected, abs=1e-12)
        # the hand-rounded values
        assert out == pytest.approx([1.0, 0.17034, -0.1745, -0.16101], abs=5e-5)

    def test_nonfinite_rejected(self):
        spec = make_scalar_lqr()
        with pytest.raises(gddp.ValidationError):
            eval_dynamics(spec, [np.nan], [0.0])


class TestEvalStageCost:
    def test_scalar_examples(self):
        spec = make_scalar_lqr()
        assert eval_stage_cost(spec, [2.0], [0.0]) == pytest.approx(2.0)
        assert eval_stage_cost(spec, [2.0], [-0.5]) == pytest.approx(2.125)

    def test_matches_per_k_bruteforce(self):
        # random multi-term costs: the implementation must equal the direct
        # per-epigraph-variable maximum, exactly
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            K = int(rng.integers(1, 5))
            J = int(rng.integers(K, 6))
            owners = list(range(K)) + [int(rng.integers(0, K)) for _ in range(J - K)]
            terms = []
            for j in range(J):
                A = rng.standard_normal((n, n))
                Rm = rng.standard_normal((m, m))
                terms.append(
                    CostTerm(
                        owner=owners[j],
                        phi=QuadraticForm(A + A.T, rng.standard_normal(n), float(rng.standard_normal())),
                        r=rng.standard_normal(m),
                        R=Rm @ Rm.T,
                    )
                )
            cost = StageCost(K, terms)
            x = rng.standard_normal(n)
            u = rng.standard_normal(m)
            expected = 0.0
            for k in range(K):
                expected += max(t.value(x, u) for t in terms if t.owner == k)
            assert cost.evaluate(x, u) == expected


class TestValueApprox:
    def test_zero_bound_only(self):
        V = ValueApprox(1)
        assert V.evaluate([3.7]) == (0.0, 0)

    def test_worked_bounds(self):
        V = ValueApprox(1)
        V.append(LowerBound.from_quadratic(1, QuadraticForm([[1.0]], [0.0], 0.0)))
        assert V.evaluate([2.0]) == (2.0, 1)
        V.append(LowerBound.from_quadratic(2, QuadraticForm([[1.0]], [0.25], -0.25)))
        value, idx = V.evaluate([2.0])
        assert value == pytest.approx(2.25)
        assert idx == 2

    def test_tie_breaks_to_smallest_index(self):
        V = ValueApprox(1)
        V.append(LowerBound.from_quadratic(1, QuadraticForm.zero(1)))  # identical to g0
        assert V.evaluate([1.0])[1] == 0

    def test_monotone_in_appends_and_nonnegative(self):
        spec = make_scalar_lqr()
        V = ValueApprox.initial(spec)
        rng = np.random.default_rng(3)
        probes = rng.normal(0, 5, size=(50, 1))
        prev = V.values_batch(probes)
        for x_hat in [2.0, -1.0, 4.0, 0.5]:
            p, d = gddp.solve_onestage_convex(spec, V, [x_hat])
            V.append(gddp.build_lower_bound(spec, [x_hat], p, d, V))
            cur = V.values_batch(probes)
            assert np.all(cur >= prev - 1e-12)
            assert np.all(cur >= 0.0)
            prev = cur

    @pytest.mark.parametrize("problem", ["scalar-lqr", "ball-and-beam"])
    def test_batch_matches_pointwise(self, problem):
        # the stacked kernel against the scalar reference max over
        # LowerBound.evaluate, for quadratic and coefficient-form banks
        rng = np.random.default_rng(4)
        if problem == "scalar-lqr":
            spec = make_scalar_lqr()
            V = ValueApprox.initial(spec)
            for x_hat in ([2.0], [-3.0], [0.5]):
                p, d = gddp.solve_onestage_convex(spec, V, x_hat)
                V.append(gddp.build_lower_bound(spec, x_hat, p, d, V))
            X = np.linspace(-3, 3, 17).reshape(-1, 1)
        else:
            spec = ball_and_beam_spec()
            V = ValueApprox.initial(spec)
            cfg = gddp.SolverConfig(bruteforce_grid=101)
            for x_hat in ball_and_beam_samples(4, rng):
                p, d = gddp.solve_onestage_bruteforce(spec, V, x_hat, cfg)
                V.append(gddp.build_lower_bound(spec, x_hat, p, d, V))
            X = rng.normal(0.0, 0.5, size=(40, 4))
            assert V._materialized_stack() is None
        V.append(V.bounds[2])  # an exact duplicate must tie toward the smaller index

        def reference(x):
            vals = [b.evaluate(x) for b in V.bounds]
            return max(vals), int(np.argmax(vals))

        vals, idx = V.evaluate_batch(X)
        for i, x in enumerate(X):
            ref_v, ref_j = reference(x)
            v, j = V.evaluate(x)
            assert vals[i] == pytest.approx(ref_v, rel=1e-12)
            assert v == pytest.approx(ref_v, rel=1e-12)
            assert idx[i] == j == ref_j


class TestSnapshotDuringAppend:
    def test_readers_see_consistent_prefixes(self):
        # a reader evaluating snapshots must never observe a torn list or a
        # value decrease while the driver appends new bounds
        import threading

        spec = make_scalar_lqr()
        V = gddp.ValueApprox.initial(spec)
        probes = np.linspace(-4, 4, 9).reshape(-1, 1)
        stop = threading.Event()
        failures = []

        def reader():
            prev = None
            while not stop.is_set():
                snap = V.snapshot()
                vals = snap.values_batch(probes)
                if np.any(vals < -1e-12):
                    failures.append("negative value")
                if prev is not None and np.any(vals < prev - 1e-9):
                    failures.append("value decreased")
                prev = vals

        thread = threading.Thread(target=reader)
        thread.start()
        rng = np.random.default_rng(0)
        try:
            for _ in range(30):
                x = rng.normal(0, 3, size=1)
                p, d = gddp.solve_onestage_convex(spec, V, x)
                V.append(gddp.build_lower_bound(spec, x, p, d, V))
        finally:
            stop.set()
            thread.join()
        assert not failures


class TestCoefficientMaterializedAgreement:
    def test_random_instances(self):
        # dual-derived bounds: coefficient evaluation must match the exact
        # materialized quadratic to 1e-9 relative on random probes
        rng = np.random.default_rng(11)
        cfg = gddp.RandomSystemConfig(n=2, m=1, seed=5)
        spec = gddp.generate_random_system(cfg)
        V = ValueApprox.initial(spec)
        for _ in range(6):
            x_hat = rng.normal(0, 5, size=2)
            p, d = gddp.solve_onestage_convex(spec, V, x_hat)
            V.append(gddp.build_lower_bound(spec, x_hat, p, d, V))
        probes = rng.normal(0, 5, size=(100, 2))
        for b in V.bounds[1:]:
            for x in probes:
                via_coeff = b.evaluate_from_coefficients(x)
                via_form = b.materialized(x)
                assert abs(via_coeff - via_form) <= 1e-9 * (1.0 + abs(via_form))


class TestValidateSpec:
    def test_accepts_scalar_lqr(self):
        report = validate_spec(make_scalar_lqr())
        assert report.accepted
        assert report.problem_class is ProblemClass.CONVEX_QUADRATIC
        assert report.summary() == "ACCEPT ConvexQuadratic"

    def test_rejects_singular_curvature_with_state_dependent_input_matrix(self):
        dynamics = DynamicsModel.state_dependent(
            n=1,
            m=1,
            drift_fn=lambda x: 0.5 * x,
            drift_jac_fn=lambda x: np.full(x.shape[:-1] + (1, 1), 0.5),
            input_matrix_fn=lambda x: x[..., :1, None] * 1.0,
        )
        spec = ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=dynamics,
            cost=StageCost(1, (CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[0.0]]),)),
            constraints=InputConstraintSet.box([-1.0], [1.0], 1),
            class_tag=ProblemClass.NONLINEAR_BRUTE_FORCE,
        )
        report = validate_spec(spec)
        assert not report.accepted
        assert any("strictly positive definite" in v for v in report.violations)

    def test_accepts_ball_and_beam(self):
        report = validate_spec(ball_and_beam_spec())
        assert report.accepted
        assert report.problem_class is ProblemClass.NONLINEAR_BRUTE_FORCE
        assert report.summary() == "ACCEPT NonlinearBruteForce"

    def test_rejects_mislabeled_convex(self):
        spec = ball_and_beam_spec()
        import dataclasses

        mislabeled = dataclasses.replace(spec, class_tag=ProblemClass.CONVEX_QUADRATIC)
        assert not validate_spec(mislabeled).accepted


class TestProblemJson:
    def test_round_trip(self, tmp_path):
        spec = make_scalar_lqr()
        path = tmp_path / "lqr1.json"
        gddp.save_problem(spec, path)
        loaded = gddp.load_problem(path)
        assert loaded.n == spec.n and loaded.m == spec.m
        assert loaded.gamma == spec.gamma
        assert np.array_equal(loaded.dynamics.A, spec.dynamics.A)
        assert np.array_equal(loaded.dynamics.B, spec.dynamics.B)
        assert np.array_equal(loaded.constraints.E, spec.constraints.E)
        assert np.array_equal(loaded.constraints.h0, spec.constraints.h0)
        assert loaded.cost.K == spec.cost.K
        assert np.array_equal(loaded.cost.terms[0].R, spec.cost.terms[0].R)
        assert loaded.class_tag is ProblemClass.CONVEX_QUADRATIC

    def test_owner_is_one_based_in_files(self):
        spec = make_scalar_lqr()
        data = gddp.problem_to_dict(spec)
        assert data["cost"]["terms"][0]["owner"] == 1
        again = gddp.problem_from_dict(data)
        assert again.cost.terms[0].owner == 0

    def test_state_dependent_requires_builtin(self):
        data = gddp.problem_to_dict(make_scalar_lqr())
        data["dynamics"]["form"] = "state_dependent"
        with pytest.raises(gddp.ValidationError):
            gddp.problem_from_dict(data)
        data["dynamics"]["builtin"] = "ball_and_beam"
        spec = gddp.problem_from_dict(data)
        assert spec.class_tag is ProblemClass.NONLINEAR_BRUTE_FORCE


class TestStageCost:
    def make_cost(self):
        phi = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        terms = (
            CostTerm(0, phi, [1.0], [[2.0]]),
            CostTerm(1, phi, [0.5], [[1.0]]),
            CostTerm(0, phi, [-1.0], [[3.0]]),
        )
        return StageCost(2, terms)

    def test_stacked_arrays_are_built_once_and_read_only(self):
        cost = self.make_cost()
        assert cost.r_matrix() is cost.r_matrix()
        assert cost.R_stack() is cost.R_stack()
        assert cost.owners is cost.owners
        np.testing.assert_array_equal(cost.r_matrix(), [[1.0], [0.5], [-1.0]])
        np.testing.assert_array_equal(cost.R_stack(), [[[2.0]], [[1.0]], [[3.0]]])
        np.testing.assert_array_equal(cost.owners, [0, 1, 0])
        for arr in (cost.r_matrix(), cost.R_stack(), cost.owners):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_owner_argmax_breaks_ties_to_the_smallest_index(self):
        cost = self.make_cost()
        np.testing.assert_array_equal(cost.owner_argmax(np.array([1.0, 5.0, 3.0])), [2, 1])
        np.testing.assert_array_equal(cost.owner_argmax(np.array([2.0, 5.0, 2.0])), [0, 1])
        values = np.array([1.0, 5.0, 3.0])
        np.testing.assert_array_equal(values[cost.owner_argmax(values)], cost.owner_max(values))
