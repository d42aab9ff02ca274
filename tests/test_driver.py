import numpy as np
import pytest

import gddp
from gddp import (
    GddpConfig,
    GddpState,
    LowerBound,
    Picker,
    ProblemClass,
    QuadraticForm,
    ValueApprox,
    bellman_error,
    driver,
    gddp_iterate,
    pick_next_state,
    run,
)

from conftest import lqr_corpus, make_scalar_lqr, widen_box


def make_state(spec, samples, errors=None, infeasible=None):
    state = GddpState.initial(spec, samples)
    if errors is not None:
        state.bellman_errors = np.asarray(errors, dtype=float)
    if infeasible is not None:
        state.infeasible_mask = np.asarray(infeasible, dtype=bool)
    return state


class TestBellmanError:
    def test_initial(self, scalar_lqr):
        V = ValueApprox.initial(scalar_lqr)
        err = bellman_error(scalar_lqr, V, [2.0])
        assert err.feasible
        assert err.value == pytest.approx(2.0, abs=1e-6)

    def test_after_first_bound(self, scalar_lqr, worked_V):
        V = ValueApprox(1, spec=scalar_lqr, bounds=worked_V.bounds[:2])
        err = bellman_error(scalar_lqr, V, [2.0])
        assert err.value == pytest.approx(0.25, abs=1e-6)

    def test_zero_at_optimal_value(self, scalar_lqr):
        # inject the exact unconstrained value; away from the box the
        # Bellman error must vanish
        spec = widen_box(scalar_lqr, 1e3)
        ric = gddp.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 1.0)
        V = ValueApprox.initial(spec)
        V.append(LowerBound.from_quadratic(1, QuadraticForm(ric.P, np.zeros(1), 0.0)))
        for x in [0.5, -2.0, 3.0]:
            err = bellman_error(spec, V, [x])
            assert abs(err.value) <= 1e-6

    def test_infeasible_flagged_zero(self):
        spec = gddp.ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
            cost=gddp.StageCost(1, (gddp.CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)),
            constraints=gddp.InputConstraintSet(E=[[1.0], [-1.0]], h0=[1.0, 1.0], H=[[1.0], [0.0]]),
            class_tag=ProblemClass.CONVEX_QUADRATIC,
        )
        err = bellman_error(spec, ValueApprox.initial(spec), [-5.0])
        assert (err.value, err.feasible) == (0.0, False)


class TestPickNextState:
    def test_max_error_tie_breaks_smallest(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((3, 1)), errors=[0.2, 0.9, 0.9])
        cfg = GddpConfig(picker=Picker.MAX_BELLMAN_ERROR)
        assert pick_next_state(state, cfg, np.random.default_rng(0)) == 1

    def test_round_robin_wraps(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((3, 1)))
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        rng = np.random.default_rng(0)
        picks = [pick_next_state(state, cfg, rng) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_skips_infeasible(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((3, 1)), infeasible=[False, True, False])
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        rng = np.random.default_rng(0)
        picks = [pick_next_state(state, cfg, rng) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_random_uniform_frequencies(self, scalar_lqr):
        M = 4
        state = make_state(scalar_lqr, np.zeros((M, 1)))
        cfg = GddpConfig(picker=Picker.RANDOM_UNIFORM, rng_seed=123)
        rng = np.random.default_rng(123)
        draws = 100000
        counts = np.zeros(M)
        for _ in range(draws):
            counts[pick_next_state(state, cfg, rng)] += 1
        # chi-square against uniform: 3 sigma over the 99.7% quantile scale
        expected = draws / M
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 3 dof: mean 3, std sqrt(6); 3 sigma above the mean
        assert chi2 <= 3 + 3 * np.sqrt(6.0)

    def test_random_uniform_reproducible(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((5, 1)))
        cfg = GddpConfig(picker=Picker.RANDOM_UNIFORM)
        a = [pick_next_state(state, cfg, np.random.default_rng(7)) for _ in range(10)]
        b = [pick_next_state(state, cfg, np.random.default_rng(7)) for _ in range(10)]
        assert a == b

    def test_repeat_until_tol(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((3, 1)), errors=[0.5, 0.2, 0.3])
        cfg = GddpConfig(picker=Picker.REPEAT_UNTIL_TOL, delta=1e-3)
        rng = np.random.default_rng(0)
        assert pick_next_state(state, cfg, rng) == 0
        state.last_picked = 0
        assert pick_next_state(state, cfg, rng) == 0  # still above tolerance
        state.bellman_errors[0] = 1e-6
        assert pick_next_state(state, cfg, rng) == 1  # advance cyclically

    def test_exhausted(self, scalar_lqr):
        state = make_state(scalar_lqr, np.zeros((2, 1)), infeasible=[True, True])
        cfg = GddpConfig(picker=Picker.RANDOM_UNIFORM)
        with pytest.raises(gddp.ExhaustedSamples):
            pick_next_state(state, cfg, np.random.default_rng(0))


class TestGddpIterate:
    def test_worked_sequence(self, scalar_lqr):
        state = GddpState.initial(scalar_lqr, [[2.0]])
        state.bellman_errors[:] = 1.0
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        rng = np.random.default_rng(0)
        gddp_iterate(scalar_lqr, state, cfg, rng)
        assert len(state.V) == 2
        g1 = state.V.bounds[1].materialized
        assert g1.hessian.ravel() == pytest.approx([1.0], abs=1e-6)
        assert g1.linear == pytest.approx([0.0], abs=1e-6)
        gddp_iterate(scalar_lqr, state, cfg, rng)
        assert len(state.V) == 3
        g2 = state.V.bounds[2].materialized
        assert g2.linear == pytest.approx([0.25], abs=1e-6)
        assert g2.constant == pytest.approx(-0.25, abs=1e-6)
        assert [r.J_P for r in state.history] == pytest.approx([2.0, 2.25], abs=1e-6)

    def test_infeasible_point_masked_not_bounded(self):
        spec = gddp.ProblemSpec(
            n=1,
            m=1,
            gamma=1.0,
            dynamics=gddp.DynamicsModel.linear([[0.5]], [[1.0]]),
            cost=gddp.StageCost(1, (gddp.CostTerm(0, QuadraticForm([[1.0]], [0.0], 0.0), [0.0], [[1.0]]),)),
            constraints=gddp.InputConstraintSet(E=[[1.0], [-1.0]], h0=[1.0, 1.0], H=[[1.0], [0.0]]),
            class_tag=ProblemClass.CONVEX_QUADRATIC,
        )
        state = GddpState.initial(spec, [[-5.0], [1.0]])
        state.bellman_errors[:] = 1.0
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        rng = np.random.default_rng(0)
        gddp_iterate(spec, state, cfg, rng)
        assert state.infeasible_mask[0]
        assert len(state.V) == 1  # no bound appended
        assert state.bellman_errors[0] == 0.0
        # never revisited
        for _ in range(3):
            gddp_iterate(spec, state, cfg, rng)
        assert all(rec.picked_index == 1 for rec in state.history[1:])


class TestRun:
    def test_converges_at_origin_immediately(self, scalar_lqr):
        result = run(scalar_lqr, [[0.0]], GddpConfig(delta=1e-3))
        assert result.converged
        assert result.iterations_used <= 2

    def test_worked_run_converges(self, scalar_lqr):
        result = run(scalar_lqr, [[2.0]], GddpConfig(delta=1e-3, picker=Picker.MAX_BELLMAN_ERROR))
        assert result.converged
        assert result.max_error() <= 1e-3
        # the approximation is Bellman-consistent at the sample point; the
        # frozen self-consistent value there is 2.25
        assert result.V_hat.value([2.0]) == pytest.approx(2.25, abs=1e-6)

    def test_two_state_converges(self):
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=4))
        rng = np.random.default_rng(4)
        samples = rng.normal(0, 5, size=(5, 2))
        result = run(spec, samples, GddpConfig(delta=1e-3, picker=Picker.MAX_BELLMAN_ERROR, check_every=1))
        assert result.converged
        assert 1 <= result.iterations_used <= 50

    def test_trace_supports_replay(self, scalar_lqr):
        result = run(scalar_lqr, [[2.0]], GddpConfig(delta=1e-3))
        assert len(result.trace) == result.iterations_used
        rec = result.trace[0]
        assert rec.iteration == 0
        assert rec.J_P == pytest.approx(2.0, abs=1e-6)
        assert rec.wall_ms >= 0.0

    def test_monotone_value_along_run(self):
        # nondecreasing approximation at every sample, along the whole trace
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=8))
        rng = np.random.default_rng(8)
        samples = rng.normal(0, 5, size=(4, 2))
        state = GddpState.initial(spec, samples)
        state.bellman_errors[:] = np.inf
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        prev = state.V.values_batch(samples)
        for _ in range(12):
            gddp_iterate(spec, state, cfg, np.random.default_rng(0))
            cur = state.V.values_batch(samples)
            assert np.all(cur >= prev - 1e-9)
            prev = cur

    def test_bellman_error_nonnegative_everywhere(self):
        # measured errors stay nonnegative at the samples and at random
        # off-sample probes, at every check along the run
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=13))
        rng = np.random.default_rng(13)
        samples = rng.normal(0, 5, size=(4, 2))
        state = GddpState.initial(spec, samples)
        state.bellman_errors[:] = np.inf
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN)
        probes = rng.normal(0, 5, size=(100, 2))
        for it in range(15):
            gddp_iterate(spec, state, cfg, np.random.default_rng(0))
            if it % 5 == 0:
                for x in samples:
                    assert bellman_error(spec, state.V, x).value >= -1e-6
        for x in probes:
            assert bellman_error(spec, state.V, x).value >= -1e-6

    def test_strict_increase_identity(self):
        # improvement at the picked point equals its pre-solve Bellman error
        spec = gddp.generate_random_system(gddp.RandomSystemConfig(n=2, m=1, seed=2))
        rng = np.random.default_rng(2)
        samples = rng.normal(0, 5, size=(3, 2))
        result = run(spec, samples, GddpConfig(delta=1e-4, check_every=1))
        checked = 0
        for rec in result.trace:
            if rec.infeasible or not rec.strong_duality or rec.eps_hat <= 0:
                continue
            gain = rec.v_after - rec.v_before
            assert abs(gain - rec.eps_hat) <= 1e-5 * (1 + rec.eps_hat)
            checked += 1
        assert checked > 0


class TestSolutionReuse:
    def test_reuse_matches_resolving_every_sample(self, monkeypatch):
        # the reference re-solves every sample at every sweep and pick; at the
        # default tolerances a fresh solve may take the interior-point path
        # (KKT tolerance 1e-8) where the reused one was exact, so both sides
        # run at 1e-11 to compare reuse, not solver tolerance
        tight = gddp.SolverConfig(kkt_tol=1e-11, duality_gap_tol=1e-11)
        cfg = GddpConfig(delta=1e-3, picker=Picker.MAX_BELLMAN_ERROR, check_every=1, solver=tight)
        corpus = lqr_corpus(12)
        reused = [run(spec, X, cfg) for spec, X in corpus]
        monkeypatch.setattr(driver, "_still_optimal", lambda V, primal, B: False)
        fresh = [run(spec, X, cfg) for spec, X in corpus]
        for a, b in zip(reused, fresh):
            assert (a.iterations_used, len(a.V_hat), a.converged) == (b.iterations_used, len(b.V_hat), b.converged)
            assert [r.picked_index for r in a.trace] == [r.picked_index for r in b.trace]
            for ra, rb in zip(a.trace, b.trace):
                assert abs(ra.J_P - rb.J_P) <= 1e-9 * abs(rb.J_P)
            assert b.reused == 0
            assert a.solves + a.reused == b.solves
        assert sum(a.reused for a in reused) > 0
        assert sum(a.solves for a in reused) < sum(b.solves for b in fresh)

    def _swept_state(self, spec):
        state = GddpState.initial(spec, [[2.0]])
        driver._measure_all_errors(spec, state, GddpConfig())
        assert (state.solves, state.reused) == (1, 0)
        return state

    def test_bound_above_alpha_forces_a_resolve(self, scalar_lqr):
        state = self._swept_state(scalar_lqr)
        primal, _, B = state.solutions[0]
        assert B == 1
        # a constant bound above alpha* at the cached successor cuts the old optimum off
        state.V.append(LowerBound.from_quadratic(1, QuadraticForm([[0.0]], [0.0], primal.alpha_star + 0.5)))
        expected, _ = gddp.solve_onestage(scalar_lqr, state.V.snapshot(), [2.0], gddp.SolverConfig())
        gddp_iterate(scalar_lqr, state, GddpConfig(picker=Picker.ROUND_ROBIN), np.random.default_rng(0))
        assert (state.solves, state.reused) == (2, 0)
        assert state.history[-1].J_P == expected.J_P
        assert expected.J_P > primal.J_P

    def test_bound_at_or_below_alpha_keeps_the_solution(self, scalar_lqr):
        state = self._swept_state(scalar_lqr)
        primal, dual, _ = state.solutions[0]
        state.V.append(LowerBound.from_quadratic(1, QuadraticForm([[0.0]], [0.0], primal.alpha_star)))
        gddp_iterate(scalar_lqr, state, GddpConfig(picker=Picker.ROUND_ROBIN), np.random.default_rng(0))
        assert (state.solves, state.reused) == (1, 1)
        assert state.history[-1].J_P == primal.J_P
        assert state.solutions[0] == (primal, dual, 1)
