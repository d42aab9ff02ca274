"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 10 is the long nonlinear benchmark and
carries the ``slow`` marker.
"""

import time

import numpy as np
import pytest

import gddp
from gddp import (
    GddpConfig,
    Picker,
    RandomSystemConfig,
    SolverConfig,
    ValueApprox,
    certify_m1,
    generate_random_system,
    grid_value_iteration,
    run,
    solve_dare,
)
from gddp.oracles import GridBellmanOperator

from conftest import make_scalar_lqr, widen_box

N_INSTANCES = 20
PROBES_PER_INSTANCE = 1000
QUERIES_PER_INSTANCE = 50


def _report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def criterion1_runs():
    """20 seeded unconstrained-regime instances run for 100 iterations each."""
    runs = []
    for i in range(N_INSTANCES):
        n = (i % 3) + 1
        spec = widen_box(generate_random_system(RandomSystemConfig(n=n, m=1, seed=100 + i)), 1e3)
        ric = solve_dare(spec.dynamics.A, spec.dynamics.B, np.eye(n), np.eye(1), 1.0)
        rng = np.random.default_rng(200 + i)
        samples = rng.normal(0.0, 5.0, size=(5, n))
        result = run(
            spec,
            samples,
            GddpConfig(
                delta=1e-9,
                max_iterations=100,
                picker=Picker.MAX_BELLMAN_ERROR,
                check_every=5,
                rng_seed=i,
            ),
        )
        runs.append((spec, ric, result))
    return runs


def test_criterion_01_lower_bound_validity(criterion1_runs):
    t0 = time.perf_counter()
    worst = -np.inf
    for i, (spec, ric, result) in enumerate(criterion1_runs):
        rng = np.random.default_rng(300 + i)
        probes = rng.normal(0.0, 5.0, size=(PROBES_PER_INSTANCE, spec.n))
        vstar = 0.5 * np.einsum("pi,ij,pj->p", probes, ric.P, probes)
        # the largest excess of the pointwise max is the largest over bounds
        worst = max(worst, float((result.V_hat.values_batch(probes) - vstar).max()))
    _report(
        1,
        "lower-bound validity vs Riccati",
        worst <= 1e-6,
        f"max excess {worst:.3e} over {N_INSTANCES} instances ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_02_strict_increase_identity(criterion1_runs):
    worst = 0.0
    checked = 0
    for _, _, result in criterion1_runs:
        for rec in result.trace:
            if rec.infeasible or not rec.strong_duality or rec.eps_hat <= 1e-12:
                continue
            gain = rec.v_after - rec.v_before
            worst = max(worst, abs(gain - rec.eps_hat) / (1.0 + rec.eps_hat))
            checked += 1
    _report(
        2,
        "exact improvement at the picked state",
        checked > 0 and worst <= 1e-5,
        f"max normalized deviation {worst:.3e} over {checked} improving iterations",
    )


def test_criterion_03_finite_termination():
    t0 = time.perf_counter()
    outcomes = []
    for i in range(N_INSTANCES):
        n = 1 if i < N_INSTANCES // 2 else 2
        spec = generate_random_system(RandomSystemConfig(n=n, m=1, seed=400 + i))
        rng = np.random.default_rng(500 + i)
        samples = rng.normal(0.0, 5.0, size=(5, n))
        result = run(
            spec,
            samples,
            GddpConfig(delta=1e-3, max_iterations=2000, picker=Picker.RANDOM_UNIFORM, rng_seed=i),
        )
        outcomes.append(result.converged)
    _report(
        3,
        "finite termination with the random picker",
        all(outcomes),
        f"{sum(outcomes)}/{len(outcomes)} converged ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_04_worked_scalar_sequence():
    spec = make_scalar_lqr()
    result = run(spec, [[2.0]], GddpConfig(delta=1e-3, picker=Picker.MAX_BELLMAN_ERROR))
    ok = result.converged
    jps = [rec.J_P for rec in result.trace[:2]]
    ok &= abs(jps[0] - 2.0) <= 1e-6 and abs(jps[1] - 2.25) <= 1e-6
    g1 = result.V_hat.bounds[1].materialized
    g2 = result.V_hat.bounds[2].materialized
    ok &= abs(g1.hessian[0, 0] - 1.0) <= 1e-6 and abs(g1.linear[0]) <= 1e-6 and abs(g1.constant) <= 1e-6
    ok &= (
        abs(g2.hessian[0, 0] - 1.0) <= 1e-6
        and abs(g2.linear[0] - 0.25) <= 1e-6
        and abs(g2.constant + 0.25) <= 1e-6
    )
    _report(4, "hand-derived scalar sequence", ok, f"J_P sequence {jps}")


def test_criterion_05_iteration_count_trend():
    t0 = time.perf_counter()
    rows = gddp.run_iterations_experiment([(2, 1)], [1, 2, 5, 10], delta=1e-3, seed=0)
    iters = [r["iterations"] for r in rows]
    ok = all(a <= b for a, b in zip(iters, iters[1:]))
    ok &= all(1 <= v <= 60 for v in iters)
    ok &= all(r["converged"] for r in rows)
    _report(
        5,
        "iteration counts nondecreasing in sample count",
        ok,
        f"iterations {iters} ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_06_quality_protocol():
    t0 = time.perf_counter()
    row = gddp.run_quality_experiment(n=2, m=1, M=50, iters=50, eval_samples=200, seed=0)
    ok = row.mean_rel_bellman_error_out >= row.mean_rel_bellman_error_in
    ok &= row.subopt_bound_in <= 0.15
    _report(
        6,
        "quality metrics generalization direction",
        ok,
        f"rbe in/out {row.mean_rel_bellman_error_in:.4f}/{row.mean_rel_bellman_error_out:.4f}, "
        f"subopt in {row.subopt_bound_in:.4f} ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_07_certificate_soundness(criterion1_runs):
    t0 = time.perf_counter()
    worst_left = -np.inf
    worst_right = -np.inf
    count = 0
    for i, (spec, ric, result) in enumerate(criterion1_runs):
        rng = np.random.default_rng(600 + i)
        queries = rng.normal(0.0, 5.0, size=(QUERIES_PER_INSTANCE, spec.n))
        for q in queries:
            cert = certify_m1(spec, result.V_hat, q, max_steps=30)
            vstar = float(0.5 * q @ ric.P @ q)
            worst_left = max(worst_left, cert.lower - vstar)
            worst_right = max(worst_right, vstar - cert.upper)
            count += 1
    ok = worst_left <= 1e-6 and worst_right <= 0.0
    _report(
        7,
        "certificates sandwich the optimal value",
        ok,
        f"{count} certificates, max lower excess {worst_left:.3e}, "
        f"max upper deficit {worst_right:.3e} ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_08_oracle_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    # Riccati residuals on random stabilizable instances
    ok_res = True
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        r = np.abs(np.linalg.eigvals(A)).max()
        if r > 0.95:
            A *= 0.95 / r
        B = rng.standard_normal((n, m))
        sol = solve_dare(A, B, np.eye(n), np.eye(m), 1.0)
        ok_res &= sol.residual <= 1e-10

    # sup-norm contraction of the grid operator
    spec_d = make_scalar_lqr(gamma=0.9)
    op = GridBellmanOperator(spec_d, np.array([-10.0]), np.array([10.0]), 51, 11)
    ok_contract = True
    for _ in range(100):
        v = rng.uniform(0, 50, size=51)
        w = rng.uniform(0, 50, size=51)
        ok_contract &= np.abs(op.sweep(v) - op.sweep(w)).max() <= 0.9 * np.abs(v - w).max() + 1e-9

    # gridded values match the Riccati oracle away from the boundary
    gvf = grid_value_iteration(spec_d, (-10.0, 10.0), state_pts=201, input_pts=41, stop_tol=1e-3)
    ric = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]], 0.9)
    p, k = float(ric.P[0, 0]), float(ric.K_gain[0, 0])
    xs = np.linspace(1.0, min(3.0, 0.9 / k), 20)
    xs = np.concatenate([xs, -xs])
    rels = np.abs(gvf.evaluate_batch(xs.reshape(-1, 1)) - 0.5 * p * xs**2) / (0.5 * p * xs**2)
    ok_grid = bool(rels.max() <= 0.02)

    _report(
        8,
        "oracle cross-checks",
        ok_res and ok_contract and ok_grid,
        f"riccati {ok_res}, contraction {ok_contract}, grid-vs-riccati max rel "
        f"{rels.max():.4f} ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_09_cross_solver_duals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_j = 0.0
    worst_nu = 0.0
    count = 0
    for seed in range(10):
        n = 1 if seed % 2 == 0 else 2
        spec = generate_random_system(RandomSystemConfig(n=n, m=1, seed=700 + seed))
        V = ValueApprox.initial(spec)
        for _ in range(3):
            x = rng.normal(0.0, 5.0, size=n)
            p, d = gddp.solve_onestage_convex(spec, V, x)
            V.append(gddp.build_lower_bound(spec, x, p, d, V))
        for _ in range(10):
            x = rng.normal(0.0, 5.0, size=n)
            p_c, d_c = gddp.solve_onestage_convex(spec, V, x)
            p_b, d_b = gddp.solve_onestage_bruteforce(spec, V, x)
            worst_j = max(worst_j, abs(p_c.J_P - p_b.J_P))
            worst_nu = max(worst_nu, float(np.abs(d_c.nu - d_b.nu).max()))
            count += 1
    ok = worst_j <= 1e-3 and worst_nu <= 1e-2
    _report(
        9,
        "convex and brute-force solvers agree",
        ok,
        f"{count} cases, max |dJ| {worst_j:.2e}, max |dnu| {worst_nu:.2e} "
        f"({time.perf_counter() - t0:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_10_ball_and_beam_stabilizes():
    t0 = time.perf_counter()
    rollouts = gddp.run_ball_and_beam(iters_list=(50, 100, 150, 200), seed=0, M=100, rollout_steps=60)
    finals = [float(np.linalg.norm(traj.states[-1])) for _, traj in rollouts]
    x0_norm = float(np.linalg.norm(gddp.BALL_AND_BEAM_X0))
    ok = all(a >= b - 1e-12 for a, b in zip(finals, finals[1:]))
    ok &= finals[-1] < x0_norm
    _report(
        10,
        "ball-and-beam rollouts improve with budget",
        ok,
        f"final norms {[round(f, 4) for f in finals]} vs start {x0_norm:.4f} "
        f"({time.perf_counter() - t0:.1f}s)",
    )
