"""One-stage problem construction, solution, and lower-bound extraction.

The one-stage problem at parameter state x_hat,

    minimize    1'beta + gamma * alpha
    over        u, beta, alpha
    s.t.        E u <= h(x_hat)                                (lambda_c)
                e_j' beta >= phi_j(x_hat) + r_j'u + 1/2 u'R_j u  (lambda_beta)
                alpha >= g_i(f_x(x_hat) + F_u(x_hat) u)          (lambda_alpha)

is a linear objective over convex quadratic constraints once the successor
state is substituted out.  Its optimal value equals the Bellman operator
applied to the current approximation at x_hat, and its dual solution
parameterizes a new lower bound on the optimal value function that is
valid over the whole state space.  The multiplier of the eliminated
dynamics constraint is recovered as nu = sum_i lambda_alpha_i grad
g_i(x_plus).

Two solution paths are provided.  The convex-quadratic class is solved
exactly on a guessed active set (one bound, or two tied bounds, and one
term per owner over an input box), with closed-form multipliers that an
exact KKT check accepts; anything the check rejects goes to a primal-dual
interior-point method.  The nonlinear class uses a gridded brute-force
search with Newton polish and KKT-based dual recovery.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NumericalError, StrongDualityViolation, ValidationError
from .problem import (
    DynamicsForm,
    LowerBound,
    ProblemSpec,
    QuadraticForm,
    ValueApprox,
    Zeta2Term,
)

__all__ = [
    "SolverConfig",
    "SolveStatus",
    "OneStageSolution",
    "DualSolution",
    "solve_onestage_convex",
    "solve_onestage_bruteforce",
    "recover_duals_kkt",
    "zeta2",
    "build_lower_bound",
    "input_feasible_point",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration limits for the one-stage solvers."""

    kkt_tol: float = 1e-8
    max_iters: int = 200
    duality_gap_tol: float = 1e-7
    bruteforce_grid: Optional[int] = None  # per input dimension; None -> 2001 (m=1) or 101
    refine_newton_steps: int = 5

    def __post_init__(self):
        if self.kkt_tol <= 0 or self.max_iters <= 0 or self.duality_gap_tol <= 0:
            raise ValidationError("solver tolerances and iteration limits must be positive")
        if self.bruteforce_grid is not None and self.bruteforce_grid <= 0:
            raise ValidationError("brute-force grid count must be positive")
        if self.refine_newton_steps < 0:
            raise ValidationError("refinement step count must be nonnegative")

    def grid_points(self, m: int) -> int:
        if self.bruteforce_grid is not None:
            return int(self.bruteforce_grid)
        return 2001 if m == 1 else 101


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class OneStageSolution:
    u_star: np.ndarray
    x_plus_star: np.ndarray
    beta_star: np.ndarray
    alpha_star: float
    J_P: float
    status: SolveStatus


@dataclass(frozen=True)
class DualSolution:
    nu: np.ndarray
    lambda_c: np.ndarray
    lambda_beta: np.ndarray
    lambda_alpha: np.ndarray
    J_D: float
    kkt_residual: float


def _infeasible_pair(spec: ProblemSpec, n_bounds: int):
    primal = OneStageSolution(
        u_star=np.full(spec.m, np.nan),
        x_plus_star=np.full(spec.n, np.nan),
        beta_star=np.full(spec.cost.K, np.nan),
        alpha_star=np.nan,
        J_P=np.inf,
        status=SolveStatus.INFEASIBLE,
    )
    dual = DualSolution(
        nu=np.zeros(spec.n),
        lambda_c=np.zeros(spec.constraints.n_c),
        lambda_beta=np.zeros(spec.cost.J),
        lambda_alpha=np.zeros(n_bounds),
        J_D=np.inf,
        kkt_residual=np.inf,
    )
    return primal, dual


def _box_point(lo, hi):
    """The box midpoint (0 on unbounded axes) clipped into lo <= u <= hi, or None when empty."""
    lo, hi = lo.tolist(), hi.tolist()
    if any(a > b + 1e-12 for a, b in zip(lo, hi)):
        return None
    point = []
    for a, b in zip(lo, hi):
        mid = 0.5 * (a + b) if math.isfinite(a) and math.isfinite(b) else 0.0
        # np.clip: the larger of mid and a, then the smaller of that and b, each keeping a NaN first operand
        mid = mid if mid > a or mid != mid else a
        point.append(mid if mid < b or mid != mid else b)
    return np.array(point, dtype=float)


def input_feasible_point(spec: ProblemSpec, x_hat: np.ndarray):
    """A point of U(x_hat) = {u : E u <= h(x_hat)}, or None when empty.

    Box-shaped rows are intersected directly; general polyhedra fall back
    to a tiny phase-I linear program.
    """
    cons = spec.constraints
    m = spec.m
    if cons.n_c == 0:
        return np.zeros(m)
    box = cons.row_box(x_hat)
    if box is not None:
        return _box_point(*box)

    from scipy.optimize import linprog

    h = cons.rhs(x_hat)

    # minimize t subject to E u - t <= h; t* > 0 certifies emptiness
    c = np.zeros(m + 1)
    c[-1] = 1.0
    A = np.hstack([cons.E, -np.ones((cons.n_c, 1))])
    res = linprog(c, A_ub=A, b_ub=h, bounds=[(None, None)] * m + [(-1.0, None)], method="highs")
    if not res.success:
        raise NumericalError(f"phase-I feasibility LP failed: {res.message}")
    if res.x[-1] > 1e-9 * (1.0 + np.abs(h).max(initial=0.0)):
        return None
    return res.x[:m]


# ---------------------------------------------------------------------------
# Convex path: epigraph problem and interior-point solver


class _EpigraphProblem:
    """The one-stage problem at x_hat reduced to z = (u, beta, alpha).

    All bound constraints are convex quadratics of the successor state and
    become convex quadratics of u after substituting x_plus = drift + W u.
    """

    def __init__(self, spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray):
        stack = V._materialized_stack()
        if stack is None:
            raise ValidationError("convex one-stage solve requires every bound to be materialized")
        Hb, lb, cb = stack  # (I+1, n, n), (I+1, n), (I+1,)
        self.spec = spec
        self.x_hat = np.asarray(x_hat, dtype=float)
        self.m = spec.m
        self.K = spec.cost.K
        self.J = spec.cost.J
        self.n_bounds = len(cb)
        self.n_c = spec.constraints.n_c
        self.dim = self.m + self.K + 1
        self.p = self.n_c + self.J + self.n_bounds

        self.drift = spec.dynamics.drift(self.x_hat)
        self.W = spec.dynamics.input_matrix(self.x_hat)
        self.E = spec.constraints.E
        self.h = spec.constraints.rhs(self.x_hat)
        self.phi_hat = spec.cost.phi_vector(self.x_hat)
        self.r_mat = spec.cost.r_matrix()
        self.R_stack = spec.cost.R_stack()
        self.owners = spec.cost.owners

        W = self.W
        Hc = np.einsum("inm,m->in", Hb, self.drift) + lb  # H_i drift + l_i
        self.Pu = np.einsum("na,inm,mb->iab", W, Hb, W)  # (I+1, m, m)
        self.bu = Hc @ W  # (I+1, m)
        self.du = 0.5 * np.einsum("in,n->i", Hc + lb, self.drift) + cb
        # note: 0.5 * (H d + 2 l)' d + c ... expand: 0.5 d'Hd + l'd + c
        self.Hb = Hb
        self.lb = lb
        self.cb = cb

        self.c_obj = np.concatenate([np.zeros(self.m), np.ones(self.K), [spec.gamma]])

        self._rows_cost = slice(self.n_c, self.n_c + self.J)
        self._rows_bnd = slice(self.n_c + self.J, self.p)

    def split(self, z):
        return z[: self.m], z[self.m : self.m + self.K], z[-1]

    def x_plus(self, u):
        return self.drift + self.W @ u

    def constraint_values(self, z):
        u, beta, alpha = self.split(z)
        F = np.empty(self.p)
        if self.n_c:
            F[: self.n_c] = self.E @ u - self.h
        Ru = np.einsum("jab,b->ja", self.R_stack, u)
        F[self._rows_cost] = (
            self.phi_hat + self.r_mat @ u + 0.5 * np.einsum("ja,a->j", Ru, u) - beta[self.owners]
        )
        Pu_u = np.einsum("iab,b->ia", self.Pu, u)
        F[self._rows_bnd] = 0.5 * np.einsum("ia,a->i", Pu_u, u) + self.bu @ u + self.du - alpha
        return F, Ru, Pu_u

    def jacobian(self, Ru, Pu_u):
        Jm = np.zeros((self.p, self.dim))
        if self.n_c:
            Jm[: self.n_c, : self.m] = self.E
        Jm[self._rows_cost, : self.m] = self.r_mat + Ru
        Jm[np.arange(self.n_c, self.n_c + self.J), self.m + self.owners] = -1.0
        Jm[self._rows_bnd, : self.m] = Pu_u + self.bu
        Jm[self._rows_bnd, -1] = -1.0
        return Jm

    def lagrangian_hessian(self, lam):
        Hu = np.einsum("j,jab->ab", lam[self._rows_cost], self.R_stack) + np.einsum(
            "i,iab->ab", lam[self._rows_bnd], self.Pu
        )
        H = np.zeros((self.dim, self.dim))
        H[: self.m, : self.m] = Hu
        return H

    def start_point(self, u0):
        z = np.zeros(self.dim)
        z[: self.m] = u0
        term_vals = self.phi_hat + self.r_mat @ u0 + 0.5 * np.einsum("jab,a,b->j", self.R_stack, u0, u0)
        z[self.m : self.m + self.K] = self.spec.cost.owner_max(term_vals) + 1.0
        xp = self.x_plus(u0)
        bvals = 0.5 * np.einsum("iab,a,b->i", self.Hb, xp, xp) + self.lb @ xp + self.cb
        z[-1] = bvals.max() + 1.0
        return z


def _max_step(v, dv):
    neg = dv < -1e-300
    if not neg.any():
        return np.inf
    return float((-v[neg] / dv[neg]).min())


def _ipm_solve(prob: _EpigraphProblem, cfg: SolverConfig, u0):
    """Infeasible-start Mehrotra predictor-corrector on the epigraph system."""
    z = prob.start_point(u0)
    F, Ru, Pu_u = prob.constraint_values(z)
    s = np.maximum(-F, 1e-2)
    lam = np.ones(prob.p)
    c = prob.c_obj
    p = prob.p

    converged = False
    for _ in range(cfg.max_iters):
        Jm = prob.jacobian(Ru, Pu_u)
        r_d = c + Jm.T @ lam
        r_p = F + s
        obj = float(c @ z)
        scale = 1.0 + abs(obj)
        prim_viol = max(0.0, float(F.max()))
        comp = float(np.abs(lam * F).max())
        gap = float(abs(lam @ F))
        if (
            np.abs(r_d).max() <= cfg.kkt_tol * scale
            and prim_viol <= cfg.kkt_tol * scale
            and np.abs(r_p).max() <= cfg.kkt_tol * scale
            and comp <= cfg.kkt_tol * scale
            and gap <= cfg.duality_gap_tol * scale
        ):
            converged = True
            break

        mu = float(s @ lam) / p
        H = prob.lagrangian_hessian(lam)
        D = lam / np.maximum(s, 1e-300)
        M = H + Jm.T @ (D[:, None] * Jm)
        ridge = 1e-13 * max(1.0, float(np.abs(M).max()))

        def newton(r_c):
            rhs = -r_d - Jm.T @ (D * r_p - r_c / np.maximum(s, 1e-300))
            reg = ridge
            for _ in range(6):
                try:
                    Mreg = M + reg * np.eye(prob.dim)
                    dz = np.linalg.solve(Mreg, rhs)
                    dz += np.linalg.solve(Mreg, rhs - Mreg @ dz)  # one refinement step
                    break
                except np.linalg.LinAlgError:
                    reg *= 100.0
            else:
                raise NumericalError("interior-point Newton system is singular")
            dlam = D * (Jm @ dz + r_p) - r_c / np.maximum(s, 1e-300)
            ds = -(r_c + s * dlam) / np.maximum(lam, 1e-300)
            return dz, dlam, ds

        # predictor (sigma = 0)
        r_c_aff = lam * s
        dz_a, dlam_a, ds_a = newton(r_c_aff)
        a_aff = min(1.0, 0.999 * min(_max_step(s, ds_a), _max_step(lam, dlam_a)))
        mu_aff = float((s + a_aff * ds_a) @ (lam + a_aff * dlam_a)) / p
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1

        # keep complementarity from racing ahead of the other residuals:
        # collapsing the products first wrecks the conditioning of M while
        # stationarity is still unconverged
        res_floor = 0.05 * max(float(np.abs(r_d).max()), float(np.abs(r_p).max()))
        mu_target = max(sigma * mu, min(res_floor, mu))

        # corrector
        r_c = lam * s - mu_target + ds_a * dlam_a
        dz, dlam, ds = newton(r_c)
        alpha = min(1.0, 0.995 * min(_max_step(s, ds), _max_step(lam, dlam)))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break
        z = z + alpha * dz
        s = np.maximum(s + alpha * ds, 1e-300)
        lam = np.maximum(lam + alpha * dlam, 1e-300)
        F, Ru, Pu_u = prob.constraint_values(z)

    return z, lam, converged


def _solve_convex_ipm(
    spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, cfg: Optional[SolverConfig] = None, u0=None
):
    """The interior-point solve of the epigraph problem, started from the input ``u0``.

    ``u0`` defaults to :func:`input_feasible_point`.  Returns the primal
    and dual solutions as :func:`solve_onestage_convex` does.
    """
    cfg = cfg or SolverConfig()
    x_hat = np.asarray(x_hat, dtype=float)
    if u0 is None:
        u0 = input_feasible_point(spec, x_hat)
        if u0 is None:
            return _infeasible_pair(spec, len(V))

    prob = _EpigraphProblem(spec, V, x_hat)
    z, lam, converged = _ipm_solve(prob, cfg, u0)
    if not converged:
        primal = OneStageSolution(
            u_star=z[: spec.m],
            x_plus_star=prob.x_plus(z[: spec.m]),
            beta_star=z[spec.m : spec.m + spec.cost.K],
            alpha_star=float(z[-1]),
            J_P=float(prob.c_obj @ z),
            status=SolveStatus.NUMERICAL_FAILURE,
        )
        dual = DualSolution(
            nu=np.zeros(spec.n),
            lambda_c=lam[: prob.n_c],
            lambda_beta=lam[prob._rows_cost],
            lambda_alpha=lam[prob._rows_bnd],
            J_D=np.nan,
            kkt_residual=np.inf,
        )
        return primal, dual

    # polish: with u fixed, the optimal epigraph variables are analytic
    u = z[: spec.m]
    x_plus = prob.x_plus(u)
    term_vals = prob.phi_hat + prob.r_mat @ u + 0.5 * np.einsum("jab,a,b->j", prob.R_stack, u, u)
    beta = spec.cost.owner_max(term_vals)
    bvals = 0.5 * np.einsum("iab,a,b->i", prob.Hb, x_plus, x_plus) + prob.lb @ x_plus + prob.cb
    alpha = float(bvals.max())
    J_P = float(beta.sum() + spec.gamma * alpha)

    lam_c = lam[: prob.n_c].copy()
    lam_beta = lam[prob._rows_cost].copy()
    lam_alpha = lam[prob._rows_bnd].copy()
    nu = np.einsum("i,in->n", lam_alpha, np.einsum("inm,m->in", prob.Hb, x_plus) + prob.lb)

    z_pol = np.concatenate([u, beta, [alpha]])
    F_pol, Ru, Pu_u = prob.constraint_values(z_pol)
    Jm = prob.jacobian(Ru, Pu_u)
    r_d = prob.c_obj + Jm.T @ lam
    J_D = float(prob.c_obj @ z_pol + lam @ F_pol)
    kkt_residual = max(
        float(np.abs(r_d).max()),
        max(0.0, float(F_pol.max())),
        float(np.abs(lam * F_pol).max()),
    )

    primal = OneStageSolution(
        u_star=u, x_plus_star=x_plus, beta_star=beta, alpha_star=alpha, J_P=J_P, status=SolveStatus.OPTIMAL
    )
    dual = DualSolution(
        nu=nu, lambda_c=lam_c, lambda_beta=lam_beta, lambda_alpha=lam_alpha, J_D=J_D, kkt_residual=kkt_residual
    )
    return primal, dual


# ---------------------------------------------------------------------------
# Convex path, exact: one active bound (or two tied ones) and one term per owner

_MAX_REPICKS = 3  # new guesses of the active bound and terms after the first
_KINK_NEWTON_STEPS = 10
_TIE_TOL = 1e-12  # relative slack of the active-set checks

# each coordinate free (0), on its lower (-1) or on its upper (+1) face, with
# the indices of the face and free coordinates: every choice with at least
# one face, fewest faces first (_box_qp tries the all-free one before these)
_FACE_SETS = {
    m: [
        (f, np.flatnonzero(f), np.flatnonzero(f == 0))
        for f in sorted((np.array(c) for c in itertools.product((0, -1, 1), repeat=m)), key=lambda f: np.abs(f).sum())
    ][1:]
    for m in (1, 2, 3)
}


def _positive_definite(Q: np.ndarray) -> bool:
    w = Q[0] if len(Q) == 1 else np.linalg.eigvalsh(Q)
    return bool(w[0] > 1e-12 * max(1.0, w[-1]))


def _box_qp(Q, c, lo, hi):
    """Minimizer of 1/2 u'Q u + c'u over lo <= u <= hi, Q positive definite, m <= 3.

    Tries every choice of the coordinates that sit on a face, none first
    and then fewest faces first, and returns the first whose free part
    lies in the box and whose face multipliers have the right sign up to
    rounding, with the faces (-1 lower, 0 free, +1 upper).  Returns None
    when no choice passes.
    """
    u = np.linalg.solve(Q, -c)
    if all(a <= v <= b for v, a, b in zip(u.tolist(), lo.tolist(), hi.tolist())):
        return u, np.zeros(len(c), dtype=int)
    for faces, on, free in _FACE_SETS[len(c)]:
        u = np.where(faces < 0, lo, hi)
        if not np.isfinite(u[on]).all():
            continue
        if len(free):
            u[free] = np.linalg.solve(Q[free][:, free], -(c[free] + Q[free][:, on] @ u[on]))
            if (u[free] < lo[free]).any() or (u[free] > hi[free]).any():
                continue
        Qu = Q @ u
        # a lower face needs a gradient >= 0, an upper face one <= 0
        if (faces * (Qu + c) > _TIE_TOL * (1.0 + np.abs(c).max() + np.abs(Qu).max())).any():
            continue
        return u, faces
    return None


def _split_gamma(gamma: float, lam: float) -> tuple:
    """(lam, gamma - lam) rounded so that the two sum to gamma exactly."""
    small = min(lam, gamma - lam)
    big = gamma - small
    small = gamma - big  # exact: big lies in [gamma/2, gamma] (Sterbenz)
    return (small, big) if lam <= gamma - lam else (big, small)


class _ActiveSetSolve:
    """The one-stage problem at x_hat on a guessed active set, solved exactly.

    With bound i and one term a_k per owner active, the problem is the
    box-constrained quadratic

        minimize  sum_k [r_ak'u + 1/2 u'R_ak u] + gamma * g_i(drift + W u)

    whose KKT point has closed-form multipliers: lambda_alpha = gamma e_i,
    lambda_beta one-hot per owner, lambda_c from stationarity on the box
    faces.  A guess is accepted only when every other bound and term lies
    at or below the active ones at the solution (up to ``_TIE_TOL``), so
    the multipliers are dual feasible exactly, and when the KKT residual,
    stationarity included, is within ``cfg.kkt_tol``, so the Lagrangian,
    convex in u with the curvature of the reduced problem, is minimized
    at u.
    """

    def __init__(self, spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, stack, box, cfg: SolverConfig):
        self.spec, self.V, self.cfg = spec, V, cfg
        self.Hb, self.lb, self.cb = stack
        self.lo, self.hi = box
        self.drift = spec.dynamics.drift(x_hat)
        self.W = spec.dynamics.input_matrix(x_hat)
        self.h = spec.constraints.rhs(x_hat)
        self.phi = spec.cost.phi_vector(x_hat)
        self.r_mat = spec.cost.r_matrix()
        self.R_stk = spec.cost.R_stack()
        self._owners = spec.cost.owners.tolist()
        self._sums = {}
        self._pieces = {}

    def solve(self, u0):
        """(primal, dual) from at most 1 + ``_MAX_REPICKS`` guesses, or None.

        A guess is one bound and one term per owner, the largest at the
        last successor.  When another bound rises above a single-bound
        guess with the same terms, the kink between the two is tried
        next; if it has no admissible point, the other bound is the next
        guess, and if a third bound rises above the kink, that one is.
        """
        cost, gamma = self.spec.cost, self.spec.gamma
        _, terms, bvals = self._at(u0)
        i, act = int(bvals.argmax()), cost.owner_argmax(terms)
        tried = set()
        for _ in range(_MAX_REPICKS + 1):
            guess = (i, tuple(act.tolist()))
            if guess in tried:
                return None
            tried.add(guess)
            P, b, _ = self._piece(i)
            Rs, rs = self._summed(act)
            Q = Rs + gamma * P
            if not _positive_definite(Q):
                return None
            sol = _box_qp(Q, rs + gamma * b, self.lo, self.hi)
            if sol is None:
                return None
            u, faces = sol
            x_plus, terms, bvals = self._at(u)
            if self._active(terms, bvals, act, [i]):
                return self._pair(u, x_plus, terms, bvals, act, [i], [gamma], faces)
            nxt, act_next = int(bvals.argmax()), cost.owner_argmax(terms)
            if nxt != i and act_next.tolist() == act.tolist():
                kink = self._kink(i, nxt, act, u)
                if kink is not None:
                    u, weights = kink
                    x_plus, terms, bvals = self._at(u)
                    if self._active(terms, bvals, act, [i, nxt]):
                        return self._pair(u, x_plus, terms, bvals, act, [i, nxt], weights, np.zeros(len(u), dtype=int))
                    nxt, act_next = int(bvals.argmax()), cost.owner_argmax(terms)
            i, act = nxt, act_next
        return None

    def _at(self, u):
        """Successor, term values and every bound's value at the successor."""
        x_plus = self.drift + self.W @ u
        terms = self.phi + self.r_mat @ u + 0.5 * np.einsum("jab,a,b->j", self.R_stk, u, u)
        return x_plus, terms, self.V._bound_values(x_plus[None])[0]

    def _summed(self, act):
        """(sum of R_a, sum of r_a) over the active terms act, computed once per set."""
        key = tuple(act.tolist())
        if key not in self._sums:
            self._sums[key] = self.R_stk[act].sum(axis=0), self.r_mat[act].sum(axis=0)
        return self._sums[key]

    def _piece(self, i):
        """Bound i as a function of the input: 1/2 u'P u + b'u + e, computed once per bound."""
        if i not in self._pieces:
            H, l, W = self.Hb[i], self.lb[i], self.W
            grad0 = H @ self.drift + l
            self._pieces[i] = W.T @ H @ W, W.T @ grad0, 0.5 * (grad0 + l) @ self.drift + self.cb[i]
        return self._pieces[i]

    def _active(self, terms, bvals, act, idx) -> bool:
        """No bound above the active ones and no term above its owner's active term."""
        # a NaN value makes bvals.max() NaN and the test pass whatever top is,
        # so the smaller active value may be taken without NaN propagation
        top = min(bvals[j] for j in idx)
        if bvals.max() > top + _TIE_TOL * (1.0 + abs(top)):
            return False
        # each owner's largest term lies at or below the owner's limit exactly
        # when each of its terms does, NaN included
        terms = terms.tolist()
        limit = [t + _TIE_TOL * (1.0 + abs(t)) for t in (terms[a] for a in act.tolist())]
        return all(t <= limit[k] for t, k in zip(terms, self._owners))

    def _kink(self, i, j, act, u_start):
        """Input and (lambda_i, lambda_j) of the kink between bounds i and j, or None.

        Solves stationarity with lambda_alpha = (lam, gamma - lam) on (i, j)
        and g_i = g_j at the successor by Newton's method on (u, lam) from
        the input u_start.  Requires the step test met within
        ``_KINK_NEWTON_STEPS`` steps, 0 <= lam <= gamma, the input strictly
        inside the box and positive definite curvature; the caller checks
        the other bounds and terms, and the KKT residual.
        """
        gamma = self.spec.gamma
        Rs, rs = self._summed(act)
        Pi, bi, ei = self._piece(i)
        Pj, bj, ej = self._piece(j)
        dP, db, de = Pi - Pj, bi - bj, ei - ej
        m = len(u_start)
        kkt, F = np.zeros((m + 1, m + 1)), np.empty(m + 1)  # [[H_lam, slope], [slope', 0]] and the residual
        u, lam = u_start, 0.5 * gamma
        for _ in range(_KINK_NEWTON_STEPS):
            Hl = Rs + lam * Pi + (gamma - lam) * Pj
            slope = dP @ u + db
            kkt[:m, :m] = Hl
            kkt[:m, m] = kkt[m, :m] = slope
            F[:m] = Hl @ u + rs + lam * bi + (gamma - lam) * bj
            F[m] = 0.5 * u @ dP @ u + db @ u + de
            try:
                step = np.linalg.solve(kkt, -F)
            except np.linalg.LinAlgError:
                return None
            u, lam = u + step[:-1], lam + step[-1]
            if np.abs(step).max() <= 1e-12 * (1.0 + np.abs(u).max() + abs(lam)):
                break
        else:
            return None  # the step cap ended the iteration short of convergence
        if not 0.0 <= lam <= gamma:
            return None
        if any(a <= l or a >= h for a, l, h in zip(u.tolist(), self.lo.tolist(), self.hi.tolist())):
            return None
        if not _positive_definite(Rs + lam * Pi + (gamma - lam) * Pj):
            return None
        return u, _split_gamma(gamma, lam)

    def _pair(self, u, x_plus, terms, bvals, act, idx, weights, faces):
        """Primal and dual solutions of an accepted guess.

        None if u leaves U(x_hat) or the KKT residual, stationarity
        included, exceeds ``cfg.kkt_tol * (1 + |J_P|)``.
        """
        spec, gamma = self.spec, self.spec.gamma
        cost, cons = spec.cost, spec.constraints
        F_box = cons.E @ u - self.h
        if any(f > _TIE_TOL * (1.0 + abs(h)) for f, h in zip(F_box.tolist(), self.h.tolist())):
            return None
        beta = cost.owner_max(terms)
        alpha = float(bvals.max())
        J_P = float(beta.sum() + gamma * alpha)

        lam_beta = np.zeros(cost.J)
        lam_beta[act] = 1.0
        lam_alpha = np.zeros(len(bvals))
        lam_alpha[idx] = weights
        if len(idx) == 1:
            # one active bound carries all of gamma: the weighted sums are gamma times its gradient and residual
            i = idx[0]
            nu = gamma * (self.Hb[i] @ x_plus + self.lb[i])
            comp_bnd = [gamma * (bvals[i] - alpha)]
            comp_bnd_sum = comp_bnd[0]
        else:
            weights = np.asarray(weights)
            nu = weights @ (self.Hb[idx] @ x_plus + self.lb[idx])
            F_bnd = bvals[idx] - alpha
            comp_bnd, comp_bnd_sum = weights * F_bnd, weights @ F_bnd
        Rs, rs = self._summed(act)
        grad = rs + Rs @ u + self.W.T @ nu
        lam_c = np.zeros(cons.n_c)
        if any(faces.tolist()):
            # the binding row of each face coordinate is the one row_box took its bound from
            cols, coef = cons._box_rows
            row_bound = self.h / coef
            for k in np.flatnonzero(faces):
                face = self.hi[k] if faces[k] > 0 else self.lo[k]
                row = np.flatnonzero((cols == k) & (faces[k] * coef > 0) & (row_bound == face))[0]
                lam_c[row] = max(-grad[k] / coef[row], 0.0)
            grad = grad + cons.E.T @ lam_c  # with no face it adds +0, which |.| below does not see

        # dual objective and KKT residual as the Lagrangian at (u, lambda), with
        # the rows and residuals of the interior-point path; only the active
        # terms (lambda_beta = 1) and bounds (the weights) carry multipliers,
        # and the multiplier sums hold exactly by construction
        F_cost = terms[act] - beta
        comp_box = lam_c * F_box
        J_D = float(J_P + comp_box.sum() + F_cost.sum() + comp_bnd_sum)
        kkt_residual = max(
            float(np.abs(np.concatenate([grad, comp_box, F_cost, comp_bnd])).max()),
            float(F_box.max(initial=0.0)),
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


def _solve_active_set(spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, u0, box, cfg: SolverConfig):
    """The exact solve over the input box (lo, hi) from its point u0, or None.

    None when it does not apply or does not verify.  It applies to inputs
    of dimension at most 3, with every bound materialized as a quadratic.
    """
    stack = V._materialized_stack()
    if stack is None or spec.m > 3:
        return None
    return _ActiveSetSolve(spec, V, x_hat, stack, box, cfg).solve(u0)


def solve_onestage_convex(
    spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, cfg: Optional[SolverConfig] = None
):
    """Solve the epigraph one-stage problem and return primal and dual solutions.

    Requires every bound of ``V`` to be materialized as a convex quadratic.
    An empty input set U(x_hat) yields ``SolveStatus.INFEASIBLE``.  When
    every constraint row is a box row, the solve first tries an exact
    active set (one bound, or two tied bounds, and one term per owner,
    over an input box of dimension at most 3) and returns it when its
    check passes: no bound or term above the active ones, multipliers
    dual feasible exactly, and KKT residuals within ``cfg.kkt_tol``.
    Otherwise it runs the interior-point method, whose result has KKT
    residuals within ``cfg.kkt_tol`` and relative duality gap within
    ``cfg.duality_gap_tol``.
    """
    cfg = cfg or SolverConfig()
    x_hat = np.asarray(x_hat, dtype=float)
    box = spec.constraints.row_box(x_hat)
    u0 = input_feasible_point(spec, x_hat) if box is None else _box_point(*box)
    if u0 is None:
        return _infeasible_pair(spec, len(V))
    if box is not None:
        exact = _solve_active_set(spec, V, x_hat, u0, box, cfg)
        if exact is not None:
            return exact
    return _solve_convex_ipm(spec, V, x_hat, cfg, u0)


# ---------------------------------------------------------------------------
# zeta2 and bound construction


def zeta2(spec: ProblemSpec, x: np.ndarray, nu: np.ndarray, lambda_c: np.ndarray, lambda_beta: np.ndarray) -> float:
    """Input-infimum term of the dual objective at state x.

    Computes inf over unrestricted u of w(x)'u + 1/2 u'M u with
    w(x) = F_u(x)'nu + E'lambda_c + Rbar'lambda_beta and M the
    lambda_beta-weighted sum of input curvatures: the value is
    -1/2 w'M^+ w on the range of M and -inf otherwise (an inadmissible
    dual candidate).
    """
    term = _zeta2_term(spec, nu, lambda_c, lambda_beta)
    return term.value(spec, np.asarray(x, dtype=float))


def _zeta2_term(spec: ProblemSpec, nu, lambda_c, lambda_beta) -> Zeta2Term:
    nu = np.asarray(nu, dtype=float).reshape(-1)
    lambda_c = np.asarray(lambda_c, dtype=float).reshape(-1)
    lambda_beta = np.asarray(lambda_beta, dtype=float).reshape(-1)
    w_const = spec.constraints.E.T @ lambda_c + spec.cost.r_matrix().T @ lambda_beta
    M = np.einsum("j,jab->ab", lambda_beta, spec.cost.R_stack())
    return Zeta2Term(nu=nu, w_const=w_const, M=0.5 * (M + M.T))


def build_lower_bound(
    spec: ProblemSpec,
    x_hat: np.ndarray,
    primal: OneStageSolution,
    dual: DualSolution,
    V: ValueApprox,
    strong_duality_tol: float = 1e-7,
) -> LowerBound:
    """Materialize the new lower bound from a one-stage solution at x_hat.

    Uses the difference form anchored at the one-stage optimum: the new
    function equals the primal optimum at x_hat plus the multiplier-weighted
    differences of the stage-cost state part, the constraint right-hand
    side, the drift, and (for state-dependent input matrices) the input
    infimum term.  When the primal/dual gap exceeds ``strong_duality_tol``
    the bound is anchored at the dual objective instead, which remains
    valid, and :class:`StrongDualityViolation` is raised with the bound
    attached.
    """
    if primal.status is not SolveStatus.OPTIMAL:
        raise NumericalError(f"cannot build a bound from a {primal.status.value} one-stage solution")
    x_hat = np.asarray(x_hat, dtype=float)
    gap = abs(primal.J_P - dual.J_D) / (1.0 + abs(primal.J_P))
    strong = gap <= strong_duality_tol
    base = primal.J_P if strong else dual.J_D

    state_dep = spec.dynamics.form is DynamicsForm.STATE_DEPENDENT
    zeta2_spec = _zeta2_term(spec, dual.nu, dual.lambda_c, dual.lambda_beta) if state_dep else None

    p_hat = float(
        dual.lambda_beta @ spec.cost.phi_vector(x_hat)
        - dual.lambda_c @ spec.constraints.rhs(x_hat)
        + dual.nu @ spec.dynamics.drift(x_hat)
    )
    offset = base - p_hat
    if zeta2_spec is not None:
        z_hat = zeta2_spec.value(spec, x_hat)
        if not np.isfinite(z_hat):
            raise NumericalError("dual candidate inadmissible: input-infimum term diverges at x_hat")
        offset -= z_hat

    materialized = None
    if spec.dynamics.is_affine and all(t.phi.dim == spec.n for t in spec.cost.terms) and not state_dep:
        H = np.einsum("j,jab->ab", dual.lambda_beta, np.stack([t.phi.hessian for t in spec.cost.terms]))
        lin = (
            np.stack([t.phi.linear for t in spec.cost.terms]).T @ dual.lambda_beta
            - spec.constraints.H.T @ dual.lambda_c
            + spec.dynamics.A.T @ dual.nu
        )
        qf = QuadraticForm(H, lin, 0.0)
        materialized = qf.shifted(base - qf(x_hat))

    bound = LowerBound(
        bound_id=len(V),
        coeff_lambda_beta=np.asarray(dual.lambda_beta, dtype=float),
        coeff_lambda_c=np.asarray(dual.lambda_c, dtype=float),
        coeff_nu=np.asarray(dual.nu, dtype=float),
        offset=offset,
        zeta2_spec=zeta2_spec,
        materialized=materialized,
        spec=spec,
    )

    anchor = bound.evaluate(x_hat)
    if abs(anchor - base) > 1e-6 * (1.0 + abs(base)):
        raise NumericalError(f"bound fails to anchor at its origin state: g(x_hat)={anchor}, expected {base}")
    if not strong:
        raise StrongDualityViolation(
            f"one-stage duality gap {gap:.3e} exceeds {strong_duality_tol:.1e}; "
            "bound anchored at the dual objective",
            bound=bound,
            gap=gap,
        )
    return bound


# ---------------------------------------------------------------------------
# Brute-force path


def _grid_axes(lo, hi, pts):
    return [np.linspace(lo[d], hi[d], pts) for d in range(len(lo))]


def _objective_batch(spec: ProblemSpec, V: ValueApprox, x_hat, U):
    """Stage cost plus discounted value at the successors, for input rows U."""
    drift = spec.dynamics.drift(x_hat)
    W = spec.dynamics.input_matrix(x_hat)
    X_plus = drift + U @ W.T
    phis = spec.cost.phi_vector(x_hat)
    r_mat = spec.cost.r_matrix()
    R_stk = spec.cost.R_stack()
    term_vals = phis + U @ r_mat.T + 0.5 * np.einsum("jab,pa,pb->pj", R_stk, U, U)
    cost = spec.cost.owner_max(term_vals).sum(axis=1)
    vhat = V.values_batch(X_plus)
    return cost + spec.gamma * vhat, X_plus


def _refine_newton(spec, V, x_hat, u, box, steps):
    """Damped Newton polish on the locally active smooth piece, box-clipped."""
    lo, hi = box
    drift = spec.dynamics.drift(x_hat)
    W = spec.dynamics.input_matrix(x_hat)
    r_mat = spec.cost.r_matrix()
    R_stk = spec.cost.R_stack()
    phis = spec.cost.phi_vector(x_hat)

    def total(uu):
        val, _ = _objective_batch(spec, V, x_hat, uu.reshape(1, -1))
        return float(val[0])

    def piece_grad(uu, act_terms, bound):
        g = np.zeros(spec.m)
        for j in act_terms:
            g += r_mat[j] + R_stk[j] @ uu
        xp = drift + W @ uu
        g += spec.gamma * (W.T @ bound.gradient(xp))
        return g

    f_cur = total(u)
    for _ in range(steps):
        term_vals = phis + r_mat @ u + 0.5 * np.einsum("jab,a,b->j", R_stk, u, u)
        act_terms = spec.cost.owner_argmax(term_vals)
        active = V.bounds[V.evaluate(drift + W @ u)[1]]
        grad = piece_grad(u, act_terms, active)
        # finite-difference Hessian of the frozen-piece gradient
        H = np.zeros((spec.m, spec.m))
        for d in range(spec.m):
            step = 1e-6 * max(1.0, abs(u[d]))
            up, um = u.copy(), u.copy()
            up[d] += step
            um[d] -= step
            H[:, d] = (piece_grad(up, act_terms, active) - piece_grad(um, act_terms, active)) / (2 * step)
        H = 0.5 * (H + H.T)
        try:
            d_dir = -np.linalg.solve(H + 1e-12 * np.eye(spec.m), grad)
        except np.linalg.LinAlgError:
            d_dir = -grad
        if not np.all(np.isfinite(d_dir)):
            break
        t = 1.0
        improved = False
        for _ in range(25):
            cand = np.clip(u + t * d_dir, lo, hi)
            f_new = total(cand)
            if f_new < f_cur - 1e-14 * (1 + abs(f_cur)):
                u, f_cur, improved = cand, f_new, True
                break
            t *= 0.5
        if not improved:
            break
    return u


def solve_onestage_bruteforce(
    spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, cfg: Optional[SolverConfig] = None
):
    """Grid search over the input box with Newton polish and dual recovery.

    Intended for the nonlinear problem class with small input dimension;
    accuracy is grid-limited, so downstream tightness contracts are relaxed
    to about 1e-4.  Duals are recovered from the active set at the optimum
    via :func:`recover_duals_kkt`.
    """
    cfg = cfg or SolverConfig()
    x_hat = np.asarray(x_hat, dtype=float)
    box = spec.constraints.derived_box(x_hat)
    if box is None:
        raise ValidationError("brute-force solver requires box-shaped input constraints")
    lo, hi = box
    if np.any(lo > hi + 1e-12):
        return _infeasible_pair(spec, len(V))
    lo = np.minimum(lo, hi)

    pts = cfg.grid_points(spec.m)
    axes = _grid_axes(lo, hi, pts)
    mesh = np.meshgrid(*axes, indexing="ij")
    U = np.stack([g.reshape(-1) for g in mesh], axis=1)
    vals, _ = _objective_batch(spec, V, x_hat, U)
    if not np.any(np.isfinite(vals)):
        primal, dual = _infeasible_pair(spec, len(V))
        return (
            OneStageSolution(primal.u_star, primal.x_plus_star, primal.beta_star, primal.alpha_star,
                             np.nan, SolveStatus.NUMERICAL_FAILURE),
            dual,
        )
    u = U[int(np.argmin(vals))].copy()
    if cfg.refine_newton_steps > 0:
        u = _refine_newton(spec, V, x_hat, u, (lo, hi), cfg.refine_newton_steps)

    x_plus = spec.dynamics.drift(x_hat) + spec.dynamics.input_matrix(x_hat) @ u
    beta = spec.cost.owner_max(spec.cost.term_values(x_hat, u))
    alpha = V.value(x_plus)
    J_P = float(beta.sum() + spec.gamma * alpha)
    primal = OneStageSolution(
        u_star=u, x_plus_star=x_plus, beta_star=beta, alpha_star=float(alpha), J_P=J_P, status=SolveStatus.OPTIMAL
    )
    dual = recover_duals_kkt(spec, V, x_hat, primal)
    return primal, dual


def recover_duals_kkt(spec: ProblemSpec, V: ValueApprox, x_hat: np.ndarray, primal: OneStageSolution) -> DualSolution:
    """Reconstruct multipliers from the active set at a near-optimal point.

    Mass gamma is spread equally over the bounds active at the successor,
    unit mass per epigraph variable over its active cost terms, and the
    input-constraint multipliers solve the stationarity condition on the
    active rows (minimum-norm when rank-deficient, then clipped at zero).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    u = primal.u_star
    x_plus = primal.x_plus_star
    bounds = V.bounds

    bvals = V._bound_values(x_plus.reshape(1, -1))[0]
    vmax = bvals.max()
    act_b = bvals >= vmax - 1e-7 * (1.0 + abs(vmax))
    lambda_alpha = np.where(act_b, spec.gamma / act_b.sum(), 0.0)
    nu = np.zeros(spec.n)
    for i in np.nonzero(act_b)[0]:
        nu += lambda_alpha[i] * bounds[i].gradient(x_plus)

    term_vals = spec.cost.term_values(x_hat, u)
    owners = spec.cost.owners
    lambda_beta = np.zeros(spec.cost.J)
    for k in range(spec.cost.K):
        sel = owners == k
        vk = term_vals[sel]
        act = vk >= vk.max() - 1e-7 * (1.0 + abs(vk.max()))
        lambda_beta[np.nonzero(sel)[0][act]] = 1.0 / act.sum()

    M = np.einsum("j,jab->ab", lambda_beta, spec.cost.R_stack())
    Fu = spec.dynamics.input_matrix(x_hat)
    resid_vec = M @ u + spec.cost.r_matrix().T @ lambda_beta + Fu.T @ nu

    lambda_c = np.zeros(spec.constraints.n_c)
    if spec.constraints.n_c:
        h = spec.constraints.rhs(x_hat)
        slack = h - spec.constraints.E @ u
        act_rows = np.nonzero(slack <= 1e-6 * (1.0 + np.abs(h)))[0]
        if len(act_rows):
            E_act = spec.constraints.E[act_rows]
            sol = np.linalg.lstsq(E_act.T, -resid_vec, rcond=None)[0]
            lambda_c[act_rows] = np.clip(sol, 0.0, None)

    stat = resid_vec + spec.constraints.E.T @ lambda_c
    comp_terms = []
    if spec.constraints.n_c:
        comp_terms.append(np.abs(lambda_c * (spec.constraints.E @ u - spec.constraints.rhs(x_hat))).max())
    kkt_residual = max(float(np.abs(stat).max()), *(float(t) for t in comp_terms), 0.0)

    # dual objective as the Lagrangian at the primal point
    slack_terms = 0.0
    if spec.constraints.n_c:
        slack_terms += float(lambda_c @ (spec.constraints.E @ u - spec.constraints.rhs(x_hat)))
    slack_terms += float(lambda_beta @ (term_vals - primal.beta_star[owners]))
    slack_terms += float(lambda_alpha @ (bvals - primal.alpha_star))
    J_D = primal.J_P + slack_terms

    return DualSolution(
        nu=nu,
        lambda_c=lambda_c,
        lambda_beta=lambda_beta,
        lambda_alpha=lambda_alpha,
        J_D=J_D,
        kkt_residual=kkt_residual,
    )
