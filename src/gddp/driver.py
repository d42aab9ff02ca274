"""Iteration driver: pick a sample state, solve one stage, add the bound.

Runs the lower-bounding loop over a fixed sample set until the largest
Bellman error over the feasible samples drops below a tolerance.  The
Bellman error of the current approximation is measured for every sample
at a configurable cadence; in between, pickers work with the most recent
measurements instead of re-solving.  Samples whose one-stage problem is
infeasible have an infinite optimal value; they are flagged, given a zero
Bellman error by convention, and never picked again.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import ExhaustedSamples, NumericalError, StrongDualityViolation, ValidationError
from .onestage import (
    SolveStatus,
    SolverConfig,
    build_lower_bound,
    solve_onestage_bruteforce,
    solve_onestage_convex,
)
from .problem import ProblemClass, ProblemSpec, ValueApprox

__all__ = [
    "Picker",
    "GddpConfig",
    "GddpState",
    "GddpResult",
    "IterationRecord",
    "BellmanError",
    "bellman_error",
    "pick_next_state",
    "gddp_iterate",
    "run",
    "solve_onestage",
]


class Picker(enum.Enum):
    RANDOM_UNIFORM = "random-uniform"
    ROUND_ROBIN = "round-robin"
    MAX_BELLMAN_ERROR = "max-error"
    REPEAT_UNTIL_TOL = "repeat-until-tol"


@dataclass(frozen=True)
class GddpConfig:
    delta: float = 1e-3
    max_iterations: int = 1000
    picker: Picker = Picker.MAX_BELLMAN_ERROR
    check_every: int = 5
    rng_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValidationError("Bellman tolerance delta must be strictly positive")
        if self.check_every < 1:
            raise ValidationError("check_every must be at least 1")
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be nonnegative")


@dataclass
class IterationRecord:
    iteration: int
    picked_index: int
    J_P: float
    duality_gap: float
    v_before: float
    v_after: float
    eps_hat: float
    max_bellman_error: float
    wall_ms: float
    infeasible: bool = False
    strong_duality: bool = True


@dataclass
class GddpState:
    """The sample set, its latest Bellman errors and the approximation built so far.

    ``solutions`` maps a sample index to (primal, dual, B): its last
    one-stage solution and the bank size B at that solve.  The solution
    is optimal for the current bank as long as every bound appended since,
    evaluated at x+*, is at most alpha* (the multipliers of those bounds
    are zero; ``dual.lambda_alpha`` keeps length B).
    ``solves`` and ``reused`` count fresh one-stage solves and reused
    solutions.
    """

    V: ValueApprox
    sample_set: np.ndarray  # (M, n)
    bellman_errors: np.ndarray  # (M,)
    infeasible_mask: np.ndarray  # (M,) bool
    iteration: int = 0
    history: list = field(default_factory=list)
    rr_next: int = 0
    last_picked: Optional[int] = None
    solutions: dict = field(default_factory=dict)
    solves: int = 0
    reused: int = 0

    @classmethod
    def initial(cls, spec: ProblemSpec, sample_set) -> "GddpState":
        X = np.atleast_2d(np.asarray(sample_set, dtype=float))
        if X.shape[1] != spec.n:
            raise ValidationError(f"sample set has state dimension {X.shape[1]}, expected {spec.n}")
        M = len(X)
        return cls(
            V=ValueApprox.initial(spec),
            sample_set=X,
            bellman_errors=np.full(M, np.inf),
            infeasible_mask=np.zeros(M, dtype=bool),
        )

    @property
    def feasible_indices(self) -> np.ndarray:
        return np.nonzero(~self.infeasible_mask)[0]


@dataclass
class GddpResult:
    V_hat: ValueApprox
    iterations_used: int
    converged: bool
    final_errors: np.ndarray
    trace: list
    solves: int  # fresh one-stage solves, sweeps and picks together
    reused: int  # one-stage solutions reused instead of solved

    def max_error(self) -> float:
        finite = self.final_errors[np.isfinite(self.final_errors)]
        return float(finite.max()) if len(finite) else 0.0


class BellmanError(NamedTuple):
    value: float
    feasible: bool
    solution: Optional[tuple] = None  # (primal, dual) of the one-stage solve


def solve_onestage(spec: ProblemSpec, V: ValueApprox, x, cfg: SolverConfig):
    """Class-appropriate one-stage solve."""
    if spec.class_tag is ProblemClass.CONVEX_QUADRATIC:
        return solve_onestage_convex(spec, V, x, cfg)
    return solve_onestage_bruteforce(spec, V, x, cfg)


def bellman_error(spec: ProblemSpec, V: ValueApprox, x, cfg: Optional[SolverConfig] = None) -> BellmanError:
    """One-stage optimum minus current value at x; zero (flagged) if U(x) is empty."""
    cfg = cfg or SolverConfig()
    primal, dual = solve_onestage(spec, V, x, cfg)
    if primal.status is SolveStatus.INFEASIBLE:
        return BellmanError(0.0, False, (primal, dual))
    if primal.status is not SolveStatus.OPTIMAL:
        raise NumericalError(f"one-stage solve failed while measuring the Bellman error at x={np.asarray(x)}")
    return BellmanError(primal.J_P - V.value(x), True, (primal, dual))


def _still_optimal(V: ValueApprox, primal, B: int) -> bool:
    """Whether every bound from index B on lies at or below alpha* at x+*."""
    return len(V) == B or bool(V._bound_values(primal.x_plus_star[None])[0, B:].max() <= primal.alpha_star)


def _reuse(state: GddpState, idx: int):
    """Sample idx's cached (primal, dual) if still optimal for the current bank, else None."""
    entry = state.solutions.get(idx)
    if entry is None or not _still_optimal(state.V, entry[0], entry[2]):
        return None
    state.reused += 1
    return entry[:2]


def _measure_all_errors(spec: ProblemSpec, state: GddpState, cfg: GddpConfig) -> None:
    for idx in state.feasible_indices:
        x = state.sample_set[idx]
        cached = _reuse(state, idx)
        if cached is not None:
            state.bellman_errors[idx] = cached[0].J_P - state.V.value(x)
            continue
        err = bellman_error(spec, state.V, x, cfg.solver)
        state.solves += 1
        if not err.feasible:
            state.infeasible_mask[idx] = True
            state.bellman_errors[idx] = 0.0
        else:
            state.bellman_errors[idx] = err.value
            state.solutions[idx] = (*err.solution, len(state.V))


def _converged(state: GddpState, delta: float) -> bool:
    feas = state.feasible_indices
    if len(feas) == 0:
        return True  # every sample has infinite optimal value; errors are zero by convention
    return bool(np.max(state.bellman_errors[feas]) <= delta)


def pick_next_state(state: GddpState, cfg: GddpConfig, rng: np.random.Generator) -> int:
    """Choose the sample index for the next one-stage solve."""
    feas = state.feasible_indices
    if len(feas) == 0:
        raise ExhaustedSamples("all sample points are infeasible")
    picker = cfg.picker
    if picker is Picker.RANDOM_UNIFORM:
        return int(rng.choice(feas))
    if picker is Picker.ROUND_ROBIN:
        M = len(state.sample_set)
        for off in range(M):
            idx = (state.rr_next + off) % M
            if not state.infeasible_mask[idx]:
                state.rr_next = (idx + 1) % M
                return idx
        raise ExhaustedSamples("all sample points are infeasible")
    if picker is Picker.MAX_BELLMAN_ERROR:
        errs = np.where(state.infeasible_mask, -np.inf, state.bellman_errors)
        return int(np.argmax(errs))  # argmax returns the smallest index on ties
    if picker is Picker.REPEAT_UNTIL_TOL:
        last = state.last_picked
        if last is not None and not state.infeasible_mask[last] and state.bellman_errors[last] > cfg.delta:
            return last
        M = len(state.sample_set)
        start = 0 if last is None else (last + 1) % M
        for off in range(M):
            idx = (start + off) % M
            if not state.infeasible_mask[idx] and state.bellman_errors[idx] > cfg.delta:
                return idx
        raise ExhaustedSamples("every feasible sample is at tolerance")
    raise ValidationError(f"unknown picker {picker}")


def gddp_iterate(spec: ProblemSpec, state: GddpState, cfg: GddpConfig, rng: np.random.Generator) -> GddpState:
    """One pick and one one-stage solve; appends the new bound or flags infeasibility.

    A still-optimal cached solution of the picked sample replaces the solve
    (see :class:`GddpState`).
    """
    t0 = time.perf_counter()
    idx = pick_next_state(state, cfg, rng)
    state.last_picked = idx
    x_hat = state.sample_set[idx]
    v_before = state.V.value(x_hat)

    cached = _reuse(state, idx)
    if cached is None:
        primal, dual = solve_onestage(spec, state.V, x_hat, cfg.solver)
        state.solves += 1
        state.solutions[idx] = (primal, dual, len(state.V))
    else:
        primal, dual = cached
    if primal.status is SolveStatus.INFEASIBLE:
        state.infeasible_mask[idx] = True
        state.bellman_errors[idx] = 0.0
        state.history.append(
            IterationRecord(
                iteration=state.iteration,
                picked_index=idx,
                J_P=np.inf,
                duality_gap=0.0,
                v_before=v_before,
                v_after=v_before,
                eps_hat=0.0,
                max_bellman_error=_current_max_error(state),
                wall_ms=(time.perf_counter() - t0) * 1e3,
                infeasible=True,
            )
        )
        state.iteration += 1
        return state
    if primal.status is not SolveStatus.OPTIMAL:
        raise NumericalError(
            f"one-stage solve failed at iteration {state.iteration} (sample {idx}, x={x_hat})"
        )

    strong = True
    try:
        bound = build_lower_bound(spec, x_hat, primal, dual, state.V)
    except StrongDualityViolation as exc:
        bound = exc.bound  # still valid; improvement is no longer guaranteed
        strong = False
    state.V.append(bound)

    v_after = max(v_before, bound.evaluate(x_hat))
    eps_hat = primal.J_P - v_before
    state.bellman_errors[idx] = max(primal.J_P - v_after, 0.0)
    gap = abs(primal.J_P - dual.J_D) / (1.0 + abs(primal.J_P))
    state.history.append(
        IterationRecord(
            iteration=state.iteration,
            picked_index=idx,
            J_P=primal.J_P,
            duality_gap=gap,
            v_before=v_before,
            v_after=v_after,
            eps_hat=eps_hat,
            max_bellman_error=_current_max_error(state),
            wall_ms=(time.perf_counter() - t0) * 1e3,
            strong_duality=strong,
        )
    )
    state.iteration += 1
    return state


def _current_max_error(state: GddpState) -> float:
    feas = state.feasible_indices
    if len(feas) == 0:
        return 0.0
    vals = state.bellman_errors[feas]
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if len(vals) else np.inf


def run(spec: ProblemSpec, sample_set, cfg: Optional[GddpConfig] = None) -> GddpResult:
    """Run the lower-bounding loop to tolerance or the iteration cap.

    Bellman errors for all samples are re-measured every ``cfg.check_every``
    iterations; the loop stops when their maximum over feasible samples is
    at most ``cfg.delta`` (converged) or after ``cfg.max_iterations`` picks.
    A re-measurement, like a pick, re-solves a sample only when a bound
    appended since its last solve lies above that solve's alpha* at its
    successor x+*; otherwise the last optimum still holds and its error is
    J_P - V(x).
    """
    cfg = cfg or GddpConfig()
    state = GddpState.initial(spec, sample_set)
    if len(state.sample_set) == 0:
        raise ValidationError("sample set must be nonempty")
    rng = np.random.default_rng(cfg.rng_seed)
    converged = False

    while True:
        if state.iteration % cfg.check_every == 0:
            _measure_all_errors(spec, state, cfg)
            if _converged(state, cfg.delta):
                converged = True
                break
        if state.iteration >= cfg.max_iterations:
            break
        try:
            gddp_iterate(spec, state, cfg, rng)
        except ExhaustedSamples:
            _measure_all_errors(spec, state, cfg)
            converged = _converged(state, cfg.delta)
            break

    return GddpResult(
        V_hat=state.V,
        iterations_used=state.iteration,
        converged=converged,
        final_errors=state.bellman_errors.copy(),
        trace=state.history,
        solves=state.solves,
        reused=state.reused,
    )

