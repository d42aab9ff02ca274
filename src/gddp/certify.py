"""Suboptimality certificates for a value approximation.

Relates the approximation to the true optimal value at a query state by
sandwiching: the approximation itself is the lower bound, and an upper
bound is accumulated along a feasible trajectory ending at an anchor
state where the approximation is known to be exact (a zero-cost
equilibrium).  Each trajectory step contributes its Bellman error and a
detour cost, the extra one-stage cost of forcing that particular
successor instead of the one-stage optimum; greedy steps contribute zero
detour cost by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .driver import solve_onestage
from .exceptions import (
    AnchorUnreachable,
    BoxViolated,
    InfeasibleState,
    NumericalError,
    Unreachable,
    ValidationError,
)
from .onestage import SolverConfig, SolveStatus, solve_onestage_convex
from .problem import (
    CostTerm,
    DynamicsModel,
    InputConstraintSet,
    ProblemClass,
    ProblemSpec,
    QuadraticForm,
    StageCost,
    ValueApprox,
    eval_dynamics,
    eval_stage_cost,
)

__all__ = [
    "CertMethod",
    "Trajectory",
    "SuboptimalityCertificate",
    "greedy_action",
    "detour_cost",
    "rollout_greedy",
    "tail_completion",
    "certify_m1",
    "certify_m2",
    "accumulate_certificate_terms",
    "certificate_to_dict",
]


class CertMethod(enum.Enum):
    M1 = "M1"
    MIXED = "Mixed"


@dataclass
class Trajectory:
    states: list  # x_0 .. x_T
    inputs: list  # u_0 .. u_{T-1}
    stage_costs: np.ndarray  # length T
    feasible: bool
    bellman_errors: Optional[np.ndarray] = None  # length T when recorded

    @property
    def horizon(self) -> int:
        return len(self.inputs)


@dataclass
class SuboptimalityCertificate:
    query_state: np.ndarray
    lower: float  # value of the approximation at the query state
    upper: float
    per_step_theta: np.ndarray
    per_step_eps: np.ndarray
    terminal_anchor: np.ndarray
    method: CertMethod
    gamma: float
    trajectory: Trajectory = field(repr=False, default=None)

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def accumulate_certificate_terms(gamma: float, thetas, eps) -> float:
    """Discounted sum of per-step detour costs and Bellman errors.

    Plain left-to-right accumulation so certificates can be re-verified
    bit for bit from their recorded terms.
    """
    total = 0.0
    for t in range(len(eps)):
        total += gamma**t * (thetas[t] + eps[t])
    return total


def greedy_action(spec: ProblemSpec, V: ValueApprox, x, cfg: Optional[SolverConfig] = None):
    """One-stage minimizer at x: returns (u, x_plus, one-stage optimum)."""
    cfg = cfg or SolverConfig()
    primal, _ = solve_onestage(spec, V, x, cfg)
    if primal.status is SolveStatus.INFEASIBLE:
        raise InfeasibleState(f"no admissible input at x={np.asarray(x)}")
    if primal.status is not SolveStatus.OPTIMAL:
        raise NumericalError(f"greedy one-stage solve failed at x={np.asarray(x)}")
    return primal.u_star, primal.x_plus_star, primal.J_P


def _min_cost_to_reach(spec: ProblemSpec, x, y, cfg: SolverConfig) -> float:
    """Minimum stage cost of an admissible input mapping x to y exactly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    W = spec.dynamics.input_matrix(x)
    rhs = y - spec.dynamics.drift(x)
    u_p, *_ = np.linalg.lstsq(W, rhs, rcond=None)
    if np.linalg.norm(W @ u_p - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise Unreachable(f"state {y} is not reachable from {x} in one step")

    # null space of W: remaining input freedom on the slice f(x, u) = y
    _, sv, Vt = np.linalg.svd(W)
    tolr = max(W.shape) * (sv.max(initial=0.0)) * np.finfo(float).eps
    rank = int((sv > tolr).sum())
    N = Vt[rank:].T  # (m, q)

    if N.shape[1] == 0:
        if not spec.constraints.contains(x, u_p):
            raise Unreachable(f"the unique input reaching {y} from {x} violates the input constraints")
        return eval_stage_cost(spec, x, u_p)

    # minimize the stage cost over u = u_p + N z via a one-off epigraph solve
    terms = []
    for t in spec.cost.terms:
        r_t = N.T @ (t.r + t.R @ u_p)
        R_t = N.T @ t.R @ N
        const = t.phi(x) + float(t.r @ u_p + 0.5 * u_p @ t.R @ u_p)
        terms.append(
            CostTerm(owner=t.owner, phi=QuadraticForm(np.zeros((1, 1)), np.zeros(1), const), r=r_t, R=R_t)
        )
    q = N.shape[1]
    cons = spec.constraints
    sub_cons = (
        InputConstraintSet(E=cons.E @ N, h0=cons.rhs(x) - cons.E @ u_p, H=np.zeros((cons.n_c, 1)))
        if cons.n_c
        else InputConstraintSet.unconstrained(q, 1)
    )
    sub = ProblemSpec(
        n=1,
        m=q,
        gamma=1.0,
        dynamics=DynamicsModel.linear(np.zeros((1, 1)), np.zeros((1, q))),
        cost=StageCost(num_epigraph=spec.cost.K, terms=terms),
        constraints=sub_cons,
        class_tag=ProblemClass.CONVEX_QUADRATIC,
    )
    primal, _ = solve_onestage_convex(sub, ValueApprox.initial(sub), np.zeros(1), cfg)
    if primal.status is SolveStatus.INFEASIBLE:
        raise Unreachable(f"no admissible input reaches {y} from {x}")
    if primal.status is not SolveStatus.OPTIMAL:
        raise NumericalError("constrained-successor stage-cost minimization failed")
    return primal.J_P  # alpha term is zero at the optimum


def detour_cost(
    spec: ProblemSpec,
    V: ValueApprox,
    x,
    y,
    cfg: Optional[SolverConfig] = None,
    free_optimum: Optional[float] = None,
) -> float:
    """Increase in one-stage cost when the successor is pinned to y.

    ``free_optimum`` may carry a previously computed unconstrained
    one-stage optimum at x to avoid a repeated solve.
    """
    cfg = cfg or SolverConfig()
    if free_optimum is None:
        _, _, free_optimum = greedy_action(spec, V, x, cfg)
    pinned = _min_cost_to_reach(spec, x, y, cfg) + spec.gamma * V.value(np.asarray(y, dtype=float))
    return pinned - free_optimum


def rollout_greedy(spec: ProblemSpec, V: ValueApprox, x0, steps: int, cfg: Optional[SolverConfig] = None) -> Trajectory:
    """Apply the greedy policy for up to ``steps`` steps, recording Bellman errors.

    Stops early (with ``feasible=False``) if a state with an empty input
    set is reached.
    """
    cfg = cfg or SolverConfig()
    if steps < 1:
        raise ValidationError("rollout needs at least one step")
    x = np.asarray(x0, dtype=float)
    states = [x]
    inputs = []
    costs = []
    eps = []
    feasible = True
    for _ in range(steps):
        try:
            u, x_next, j_p = greedy_action(spec, V, states[-1], cfg)
        except InfeasibleState:
            feasible = False
            break
        eps.append(j_p - V.value(states[-1]))
        inputs.append(u)
        costs.append(eval_stage_cost(spec, states[-1], u))
        states.append(x_next)
    return Trajectory(
        states=states,
        inputs=inputs,
        stage_costs=np.array(costs),
        feasible=feasible,
        bellman_errors=np.array(eps),
    )


def tail_completion(spec: ProblemSpec, x_near, anchor) -> np.ndarray:
    """Exact k-step steering of x_near to the anchor for linear dynamics.

    Returns the minimum-norm input sequence (k, m) solving the k-step
    reachability system, k being the controllability index.  Raises
    :class:`BoxViolated` (with the sequence attached) when any step
    violates the input constraints along the induced trajectory.
    """
    dyn = spec.dynamics
    if not dyn.is_affine:
        raise ValidationError("tail completion requires linear dynamics")
    A, B, a = dyn.A, dyn.B, dyn.a
    x_near = np.asarray(x_near, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    k = dyn.controllability_index

    # x_k = A^k x + sum_i A^{k-1-i} (a + B u_i)
    G = np.zeros((spec.n, k * spec.m))
    drift_sum = np.zeros(spec.n)
    A_pow = np.eye(spec.n)
    for i in range(k - 1, -1, -1):
        G[:, i * spec.m : (i + 1) * spec.m] = A_pow @ B
        drift_sum += A_pow @ a
        A_pow = A_pow @ A
    target = anchor - A_pow @ x_near - drift_sum
    u_flat, *_ = np.linalg.lstsq(G, target, rcond=None)
    if np.linalg.norm(G @ u_flat - target) > 1e-9 * (1.0 + np.linalg.norm(target)):
        raise Unreachable("anchor not reachable in k steps from the given state")
    inputs = u_flat.reshape(k, spec.m)

    x = x_near
    for t in range(k):
        if not spec.constraints.contains(x, inputs[t]):
            raise BoxViolated(f"tail-completion input at step {t} violates the input constraints", inputs=inputs)
        x = eval_dynamics(spec, x, inputs[t])
    return inputs


def _check_anchor(spec: ProblemSpec, anchor: np.ndarray) -> None:
    """The anchor must be maintainable at zero stage cost with u = 0."""
    zero_u = np.zeros(spec.m)
    if abs(eval_stage_cost(spec, anchor, zero_u)) > 1e-9:
        raise ValidationError("anchor state is not a zero-cost equilibrium: stage cost nonzero")
    if np.linalg.norm(eval_dynamics(spec, anchor, zero_u) - anchor) > 1e-9:
        raise ValidationError("anchor state is not an equilibrium under zero input")
    if not spec.constraints.contains(anchor, zero_u):
        raise ValidationError("zero input is not admissible at the anchor state")


def certify_m1(
    spec: ProblemSpec,
    V: ValueApprox,
    x,
    anchor=None,
    max_steps: int = 30,
    cfg: Optional[SolverConfig] = None,
) -> SuboptimalityCertificate:
    """Greedy-rollout certificate with an exact steering tail.

    Rolls the greedy policy forward from x, accumulating discounted
    Bellman errors (detour costs are zero on greedy steps).  For linear
    dynamics the final k steps are replaced by an exact minimum-norm
    steering sequence into the anchor, whose transitions contribute their
    detour costs; the attempt starts k steps before ``max_steps`` and is
    retried each step once inside that window.  Tiny negative solver noise
    in the recorded terms is clipped at zero so the accumulated upper
    bound stays valid.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=float)
    anchor = np.zeros(spec.n) if anchor is None else np.asarray(anchor, dtype=float)
    _check_anchor(spec, anchor)
    lower = V.value(x)

    k_tail = spec.dynamics.controllability_index if spec.dynamics.is_affine else None

    states = [x]
    inputs = []
    costs = []
    thetas = []
    eps = []
    tail_done = False
    anchor_tol = 1e-9 * (1.0 + np.linalg.norm(anchor))

    t = 0
    while t < max_steps:
        x_t = states[-1]
        if np.linalg.norm(x_t - anchor) <= anchor_tol:
            tail_done = True
            break
        in_tail_window = k_tail is not None and t >= max_steps - k_tail
        if in_tail_window:
            try:
                tail = tail_completion(spec, x_t, anchor)
            except (BoxViolated, Unreachable):
                tail = None
            if tail is not None:
                for u_t in tail:
                    x_cur = states[-1]
                    u_free, _, j_free = greedy_action(spec, V, x_cur, cfg)
                    x_next = eval_dynamics(spec, x_cur, u_t)
                    theta = detour_cost(spec, V, x_cur, x_next, cfg, free_optimum=j_free)
                    eps.append(max(j_free - V.value(x_cur), 0.0))
                    thetas.append(max(theta, 0.0))
                    inputs.append(u_t)
                    costs.append(eval_stage_cost(spec, x_cur, u_t))
                    states.append(x_next)
                    t += 1
                tail_done = True
                break
        u, x_next, j_p = greedy_action(spec, V, x_t, cfg)
        eps.append(max(j_p - V.value(x_t), 0.0))
        thetas.append(0.0)
        inputs.append(u)
        costs.append(eval_stage_cost(spec, x_t, u))
        states.append(x_next)
        t += 1

    if not tail_done and np.linalg.norm(states[-1] - anchor) > anchor_tol:
        raise AnchorUnreachable(
            f"could not steer to the anchor within {max_steps} steps (final distance "
            f"{np.linalg.norm(states[-1] - anchor):.3e})"
        )

    # pin the final state to the anchor exactly; steering is exact up to lstsq noise
    states[-1] = anchor.copy()
    traj = Trajectory(
        states=states, inputs=inputs, stage_costs=np.array(costs), feasible=True, bellman_errors=np.array(eps)
    )
    upper = lower + accumulate_certificate_terms(spec.gamma, thetas, eps)
    return SuboptimalityCertificate(
        query_state=x,
        lower=lower,
        upper=upper,
        per_step_theta=np.array(thetas),
        per_step_eps=np.array(eps),
        terminal_anchor=anchor,
        method=CertMethod.M1,
        gamma=spec.gamma,
        trajectory=traj,
    )


def certify_m2(
    spec: ProblemSpec, V: ValueApprox, waypoints: Trajectory, cfg: Optional[SolverConfig] = None
) -> SuboptimalityCertificate:
    """Certificate along a pre-constructed feasible waypoint trajectory.

    Detour costs are charged at every transition.  Bellman errors are
    measured and included at every waypoint rather than assumed zero
    (conservative mixed accounting: the algorithm only drives errors to a
    positive tolerance, and waypoints need not be sample points), so the
    certificate method is reported as ``Mixed``.
    """
    cfg = cfg or SolverConfig()
    if waypoints.horizon < 1:
        raise ValidationError("waypoint trajectory needs at least one transition")
    anchor = np.asarray(waypoints.states[-1], dtype=float)
    _check_anchor(spec, anchor)

    x0 = np.asarray(waypoints.states[0], dtype=float)
    lower = V.value(x0)
    thetas = []
    eps = []
    for t in range(waypoints.horizon):
        x_t = np.asarray(waypoints.states[t], dtype=float)
        x_next = np.asarray(waypoints.states[t + 1], dtype=float)
        _, _, j_free = greedy_action(spec, V, x_t, cfg)
        theta = detour_cost(spec, V, x_t, x_next, cfg, free_optimum=j_free)
        thetas.append(max(theta, 0.0))
        eps.append(max(j_free - V.value(x_t), 0.0))

    upper = lower + accumulate_certificate_terms(spec.gamma, thetas, eps)
    return SuboptimalityCertificate(
        query_state=x0,
        lower=lower,
        upper=upper,
        per_step_theta=np.array(thetas),
        per_step_eps=np.array(eps),
        terminal_anchor=anchor,
        method=CertMethod.MIXED,
        gamma=spec.gamma,
        trajectory=waypoints,
    )


def certificate_to_dict(cert: SuboptimalityCertificate) -> dict:
    """JSON-ready view: query state, bracket, method, and per-step terms."""
    steps = []
    for t in range(len(cert.per_step_eps)):
        step = {
            "x": np.asarray(cert.trajectory.states[t]).tolist(),
            "u": np.asarray(cert.trajectory.inputs[t]).tolist() if t < len(cert.trajectory.inputs) else None,
            "theta": float(cert.per_step_theta[t]),
            "eps": float(cert.per_step_eps[t]),
        }
        steps.append(step)
    return {
        "query_state": np.asarray(cert.query_state).tolist(),
        "lower": float(cert.lower),
        "upper": float(cert.upper),
        "method": cert.method.value,
        "steps": steps,
    }
