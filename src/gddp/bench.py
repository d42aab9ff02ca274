"""Benchmark setups and experiment protocols at desk scale.

Provides the two experiment families used to exercise the library:
random asymptotically stable, controllable constrained linear systems
(iteration-count and solution-quality protocols), and a four-state
ball-and-beam system with frictionless-sliding simplification as the
nonlinear example.  Experiment outputs are plain row dicts ready for CSV
or JSON-lines emission.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .certify import certify_m1, rollout_greedy
from .driver import GddpConfig, GddpState, Picker, bellman_error, gddp_iterate, run
from .exceptions import AnchorUnreachable, GenerationFailed, ValidationError
from .onestage import SolverConfig
from .problem import (
    CostTerm,
    DynamicsModel,
    InputConstraintSet,
    ProblemClass,
    ProblemSpec,
    QuadraticForm,
    StageCost,
)

__all__ = [
    "RandomSystemConfig",
    "ExperimentRow",
    "generate_random_system",
    "sample_states",
    "run_iterations_experiment",
    "run_quality_experiment",
    "ball_and_beam_spec",
    "run_ball_and_beam",
    "builtin_problem",
    "rows_to_csv",
    "csv_to_rows",
]


@dataclass(frozen=True)
class RandomSystemConfig:
    n: int
    m: int
    spectral_radius_cap: float = 0.99
    sample_count: int = 10
    sample_stddev: float = 5.0  # sample states are drawn from N(0, stddev^2 I)
    seed: int = 0
    gamma: float = 1.0

    def __post_init__(self):
        if self.spectral_radius_cap <= 0 or self.sample_stddev <= 0:
            raise ValidationError("caps and standard deviations must be positive")
        if self.sample_count < 1:
            raise ValidationError("sample_count must be at least 1")


def generate_random_system(cfg: RandomSystemConfig, rng: np.random.Generator = None) -> ProblemSpec:
    """Random controllable (A, B) with spectral radius at most the cap.

    Entries are standard normal; A is rescaled when its spectral radius
    exceeds the cap.  The stage cost is 1/2 x'x + 1/2 u'u and the input is
    bounded by |u|_inf <= 1.  Pairs failing the controllability rank test
    are redrawn (at most 100 attempts).
    """
    rng = rng or np.random.default_rng(cfg.seed)
    n, m = cfg.n, cfg.m
    for _ in range(100):
        A = rng.standard_normal((n, n))
        radius = np.abs(np.linalg.eigvals(A)).max()
        if radius > cfg.spectral_radius_cap:
            A = A * (cfg.spectral_radius_cap / radius)
        B = rng.standard_normal((n, m))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            break
    else:
        raise GenerationFailed(f"no controllable pair found in 100 attempts for (n, m)=({n}, {m})")

    cost = StageCost(
        num_epigraph=1,
        terms=(CostTerm(owner=0, phi=QuadraticForm(np.eye(n), np.zeros(n), 0.0), r=np.zeros(m), R=np.eye(m)),),
    )
    return ProblemSpec(
        n=n,
        m=m,
        gamma=cfg.gamma,
        dynamics=DynamicsModel.linear(A, B),
        cost=cost,
        constraints=InputConstraintSet.box(-np.ones(m), np.ones(m), n),
        class_tag=ProblemClass.CONVEX_QUADRATIC,
    )


def sample_states(cfg: RandomSystemConfig, rng: np.random.Generator, count: int = None) -> np.ndarray:
    count = cfg.sample_count if count is None else count
    return rng.normal(0.0, cfg.sample_stddev, size=(count, cfg.n))


# ---------------------------------------------------------------------------
# Iterations-to-termination protocol


def _iterations_row(args):
    (n, m), M_list, delta, seed, max_iterations = args
    sys_cfg = RandomSystemConfig(n=n, m=m, seed=seed)
    rng = np.random.default_rng(seed)
    spec = generate_random_system(sys_cfg, rng)
    # one sample pool per system; each M uses its prefix so sets are nested
    pool = sample_states(sys_cfg, rng, count=max(M_list))
    rows = []
    for M in M_list:
        if M < 1:
            raise ValidationError("sample counts must be at least 1")
        cfg = GddpConfig(
            delta=delta,
            max_iterations=max_iterations,
            picker=Picker.MAX_BELLMAN_ERROR,
            check_every=1,  # error measurement at every iteration, as in the pure largest-error rule
            rng_seed=seed,
        )
        t0 = time.perf_counter()
        result = run(spec, pool[:M], cfg)
        rows.append(
            {
                "n": n,
                "m": m,
                "M": M,
                "iterations": result.iterations_used,
                "converged": result.converged,
                "wall_seconds": time.perf_counter() - t0,
            }
        )
    return rows


def run_iterations_experiment(dims, M_list, delta: float = 1e-3, seed: int = 0, max_iterations: int = 2000, jobs: int = 1):
    """Iterations until the Bellman tolerance, per (n, m) instance and sample count.

    One random system per (n, m) row; the largest-error picker with a
    convergence check every iteration.  Returns CSV-ready row dicts.
    """
    tasks = [((n, m), list(M_list), delta, seed, max_iterations) for (n, m) in dims]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_iterations_row, tasks))
    else:
        chunks = [_iterations_row(t) for t in tasks]
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# Solution-quality protocol


@dataclass
class ExperimentRow:
    n: int
    m: int
    M: int
    iterations_to_delta: int
    mean_rel_bellman_error_in: float
    mean_rel_bellman_error_out: float
    subopt_bound_in: float
    subopt_bound_out: float
    wall_seconds: float
    excluded_in: int = 0
    excluded_out: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _relative_bellman_errors(spec, V, X, solver_cfg):
    """Mean of (TV(x) - V(x)) / V(x); near-zero values are excluded and counted."""
    rels = []
    excluded = 0
    for x in X:
        err = bellman_error(spec, V, x, solver_cfg)
        if not err.feasible:
            excluded += 1
            continue
        v = V.value(x)
        if v < 1e-9:
            excluded += 1
            continue
        rels.append(err.value / v)
    return (float(np.mean(rels)) if rels else np.nan), excluded


def _subopt_bound(spec, V, X, solver_cfg, max_steps):
    """Value-weighted mean certificate gap: sum of gaps over sum of values."""
    gap_sum = 0.0
    val_sum = 0.0
    excluded = 0
    for x in X:
        cert = None
        for steps in (max_steps, 2 * max_steps, 4 * max_steps):
            try:
                cert = certify_m1(spec, V, x, max_steps=steps, cfg=solver_cfg)
                break
            except AnchorUnreachable:
                continue
        if cert is None or cert.lower < 1e-9:
            excluded += 1
            continue
        gap_sum += cert.upper - cert.lower
        val_sum += cert.lower
    if val_sum <= 0:
        return np.nan, excluded
    return gap_sum / val_sum, excluded


def run_quality_experiment(
    n: int,
    m: int,
    M: int,
    iters: int,
    eval_samples: int,
    seed: int = 0,
    rollout_steps: int = None,
) -> ExperimentRow:
    """Fixed-budget run followed by in/out-of-sample quality metrics.

    Runs the random-uniform picker for exactly ``iters`` bound-generating
    iterations, then reports mean relative Bellman errors and value-weighted
    greedy-rollout suboptimality bounds on the sample set and on a fresh
    evaluation set drawn from the same distribution.
    """
    sys_cfg = RandomSystemConfig(n=n, m=m, sample_count=M, seed=seed)
    rng = np.random.default_rng(seed)
    spec = generate_random_system(sys_cfg, rng)
    X_in = sample_states(sys_cfg, rng)
    X_out = sample_states(sys_cfg, rng, count=eval_samples)
    solver_cfg = SolverConfig()
    if rollout_steps is None:
        rollout_steps = 50 if n >= 8 else 30

    t0 = time.perf_counter()
    state = GddpState.initial(spec, X_in)
    cfg = GddpConfig(picker=Picker.RANDOM_UNIFORM, rng_seed=seed, max_iterations=iters, solver=solver_cfg)
    pick_rng = np.random.default_rng(seed)
    state.bellman_errors[:] = np.inf
    for _ in range(iters):
        gddp_iterate(spec, state, cfg, pick_rng)
    V = state.V

    rbe_in, exc_in_r = _relative_bellman_errors(spec, V, X_in, solver_cfg)
    rbe_out, exc_out_r = _relative_bellman_errors(spec, V, X_out, solver_cfg)
    sub_in, exc_in_s = _subopt_bound(spec, V, X_in, solver_cfg, rollout_steps)
    sub_out, exc_out_s = _subopt_bound(spec, V, X_out, solver_cfg, rollout_steps)

    return ExperimentRow(
        n=n,
        m=m,
        M=M,
        iterations_to_delta=iters,
        mean_rel_bellman_error_in=rbe_in,
        mean_rel_bellman_error_out=rbe_out,
        subopt_bound_in=sub_in,
        subopt_bound_out=sub_out,
        wall_seconds=time.perf_counter() - t0,
        excluded_in=exc_in_r + exc_in_s,
        excluded_out=exc_out_r + exc_out_s,
    )


# ---------------------------------------------------------------------------
# Ball and beam (frictionless-sliding simplification)

_BB_MASS = 0.1  # ball mass [kg]
_BB_JBEAM = 0.5  # beam moment of inertia [kg m^2]
_BB_GRAV = 9.81  # [m/s^2]
_BB_DT = 0.1  # discretization interval [s]
_BB_TAU_MAX = 3.0  # torque bound [N m]


def _bb_drift(x):
    x = np.asarray(x, dtype=float)
    r, rdot, th, thdot = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    denom = _BB_MASS * r**2 + _BB_JBEAM
    acc = np.stack(
        [
            rdot,
            r * thdot**2 - _BB_GRAV * np.sin(th),
            thdot,
            -(2.0 * _BB_MASS * r * rdot + _BB_MASS * _BB_GRAV * r * np.cos(th)) / denom,
        ],
        axis=-1,
    )
    return x + _BB_DT * acc


def _bb_drift_jac(x):
    x = np.asarray(x, dtype=float)
    r, rdot, th, thdot = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    denom = _BB_MASS * r**2 + _BB_JBEAM
    num = 2.0 * _BB_MASS * r * rdot + _BB_MASS * _BB_GRAV * r * np.cos(th)
    J = np.zeros(x.shape[:-1] + (4, 4))
    J[..., 0, 0] = 1.0
    J[..., 0, 1] = _BB_DT
    J[..., 1, 0] = _BB_DT * thdot**2
    J[..., 1, 1] = 1.0
    J[..., 1, 2] = -_BB_DT * _BB_GRAV * np.cos(th)
    J[..., 1, 3] = _BB_DT * 2.0 * r * thdot
    J[..., 2, 2] = 1.0
    J[..., 2, 3] = _BB_DT
    dnum_dr = 2.0 * _BB_MASS * rdot + _BB_MASS * _BB_GRAV * np.cos(th)
    J[..., 3, 0] = -_BB_DT * (dnum_dr * denom - num * 2.0 * _BB_MASS * r) / denom**2
    J[..., 3, 1] = -_BB_DT * 2.0 * _BB_MASS * r / denom
    J[..., 3, 2] = _BB_DT * _BB_MASS * _BB_GRAV * r * np.sin(th) / denom
    J[..., 3, 3] = 1.0
    return J


def _bb_input_matrix(x):
    x = np.asarray(x, dtype=float)
    denom = _BB_MASS * x[..., 0] ** 2 + _BB_JBEAM
    Fu = np.zeros(x.shape[:-1] + (4, 1))
    Fu[..., 3, 0] = _BB_DT / denom
    return Fu


def _bb_input_matrix_jac(x):
    x = np.asarray(x, dtype=float)
    r = x[..., 0]
    denom = _BB_MASS * r**2 + _BB_JBEAM
    J = np.zeros(x.shape[:-1] + (4, 1, 4))
    J[..., 3, 0, 0] = -_BB_DT * 2.0 * _BB_MASS * r / denom**2
    return J


def ball_and_beam_spec() -> ProblemSpec:
    """Euler-discretized ball-and-beam regulation problem.

    State (r, rdot, theta, thetadot): ball position along the beam, its
    velocity, beam angle, and angular rate; the single input is the pivot
    torque, bounded by |u| <= 3.  Stage cost 1/2 x' diag(10,1,1,1) x +
    1/2 * 0.01 u^2.
    """
    dynamics = DynamicsModel.state_dependent(
        n=4,
        m=1,
        drift_fn=_bb_drift,
        drift_jac_fn=_bb_drift_jac,
        input_matrix_fn=_bb_input_matrix,
        input_matrix_jac_fn=_bb_input_matrix_jac,
    )
    Q = np.diag([10.0, 1.0, 1.0, 1.0])
    cost = StageCost(
        num_epigraph=1,
        terms=(CostTerm(owner=0, phi=QuadraticForm(Q, np.zeros(4), 0.0), r=np.zeros(1), R=np.array([[0.01]])),),
    )
    return ProblemSpec(
        n=4,
        m=1,
        gamma=1.0,
        dynamics=dynamics,
        cost=cost,
        constraints=InputConstraintSet.box(np.array([-_BB_TAU_MAX]), np.array([_BB_TAU_MAX]), 4),
        class_tag=ProblemClass.NONLINEAR_BRUTE_FORCE,
    )


BALL_AND_BEAM_X0 = np.array([1.0, 0.0, -0.1745, 0.0])


def ball_and_beam_samples(M: int, rng: np.random.Generator) -> np.ndarray:
    """Half of the sample states wide (std 0.5), half tight (std 0.1) around the origin.

    The two populations are interleaved so that cyclic pickers cover both
    evenly at every iteration budget.
    """
    wide = rng.normal(0.0, 0.5, size=(M // 2, 4))
    tight = rng.normal(0.0, 0.1, size=(M - M // 2, 4))
    rows = []
    for i in range(max(len(wide), len(tight))):
        if i < len(tight):
            rows.append(tight[i])
        if i < len(wide):
            rows.append(wide[i])
    return np.array(rows)


def run_ball_and_beam(
    iters_list=(50, 100, 150, 200),
    seed: int = 0,
    M: int = 100,
    rollout_steps: int = 50,
    x0=None,
    grid_points: int = 601,
    picker: Picker = Picker.ROUND_ROBIN,
):
    """Incremental-budget runs with a greedy rollout snapshot at each budget.

    A single run is advanced through the sorted iteration budgets; at each
    checkpoint the greedy policy under the current approximation is rolled
    out from ``x0`` and recorded.  Returns a list of (budget, trajectory).
    """
    spec = ball_and_beam_spec()
    rng = np.random.default_rng(seed)
    samples = ball_and_beam_samples(M, rng)
    x0 = BALL_AND_BEAM_X0 if x0 is None else np.asarray(x0, dtype=float)

    solver_cfg = SolverConfig(bruteforce_grid=grid_points)
    cfg = GddpConfig(picker=picker, rng_seed=seed, max_iterations=max(iters_list), solver=solver_cfg)
    state = GddpState.initial(spec, samples)
    state.bellman_errors[:] = np.inf
    pick_rng = np.random.default_rng(seed)

    out = []
    done = 0
    for budget in sorted(iters_list):
        while done < budget:
            gddp_iterate(spec, state, cfg, pick_rng)
            done += 1
        traj = rollout_greedy(spec, state.V.snapshot(), x0, rollout_steps, solver_cfg)
        out.append((budget, traj))
    return out


def builtin_problem(name: str) -> ProblemSpec:
    """Named nonlinear models referencable from JSON problem files."""
    registry = {"ball_and_beam": ball_and_beam_spec}
    if name not in registry:
        raise ValidationError(f"unknown builtin problem {name!r}; known: {sorted(registry)}")
    return registry[name]()


# ---------------------------------------------------------------------------
# CSV helpers


def rows_to_csv(rows, columns=None) -> str:
    if not rows:
        return ""
    columns = list(rows[0].keys()) if columns is None else list(columns)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


def csv_to_rows(text: str):
    reader = csv.DictReader(io.StringIO(text))
    return [dict(r) for r in reader]
