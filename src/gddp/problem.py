"""Problem data model and the pointwise-max value approximation.

Defines the discounted infinite-horizon control problem

    minimize  sum_t  gamma^t * l(x_t, u_t)
    over      u_0, u_1, ...
    s.t.      x_{t+1} = f(x_t, u_t),   E u_t <= h(x_t),

with input-affine dynamics f(x, u) = f_x(x) + F_u(x) u and a stage cost
that is a sum of K terms, each the maximum of quadratics-in-u with a
quadratic state part.  The optimal value function is approximated from
below by the pointwise maximum of lower-bounding functions derived from
one-stage dual solutions (see :mod:`gddp.onestage`).
"""

from __future__ import annotations

import copy
import enum
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import NumericalError, ValidationError

__all__ = [
    "QuadraticForm",
    "DynamicsForm",
    "DynamicsModel",
    "CostTerm",
    "StageCost",
    "InputConstraintSet",
    "ProblemClass",
    "ProblemSpec",
    "Zeta2Term",
    "LowerBound",
    "ValueApprox",
    "ValidationReport",
    "validate_spec",
    "eval_dynamics",
    "eval_stage_cost",
    "load_problem",
    "save_problem",
    "problem_from_dict",
    "problem_to_dict",
]


def _as_matrix(a, rows, cols, name):
    arr = np.asarray(a, dtype=float)
    if arr.shape != (rows, cols):
        raise ValidationError(f"{name}: expected shape {(rows, cols)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_vector(a, size, name):
    arr = np.asarray(a, dtype=float).reshape(-1)
    if arr.shape != (size,):
        raise ValidationError(f"{name}: expected length {size}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return arr


@dataclass(frozen=True)
class QuadraticForm:
    """q(z) = 1/2 z' H z + l' z + c with H symmetric.

    The hessian is symmetrized at construction; asymmetric input beyond
    1e-12 relative is rejected as a likely data error.
    """

    hessian: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self):
        h = np.asarray(self.hessian, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError(f"quadratic form hessian must be square, got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValidationError("quadratic form hessian has non-finite entries")
        asym = np.abs(h - h.T).max()
        scale = max(1.0, np.abs(h).max())
        if asym > 1e-12 * scale * 10:
            raise ValidationError(f"quadratic form hessian asymmetric (|H - H'| = {asym:.3e})")
        object.__setattr__(self, "hessian", 0.5 * (h + h.T))
        object.__setattr__(self, "linear", _as_vector(self.linear, h.shape[0], "quadratic form linear"))
        c = float(self.constant)
        if not np.isfinite(c):
            raise ValidationError("quadratic form constant is non-finite")
        object.__setattr__(self, "constant", c)

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "QuadraticForm":
        return cls(np.zeros((dim, dim)), np.zeros(dim), 0.0)

    def __call__(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.hessian @ z + self.linear @ z + self.constant)

    def batch(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate at each row of Z, shape (P, dim) -> (P,)."""
        Z = np.asarray(Z, dtype=float)
        return 0.5 * np.einsum("pi,ij,pj->p", Z, self.hessian, Z) + Z @ self.linear + self.constant

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.hessian @ np.asarray(z, dtype=float) + self.linear

    def shifted(self, delta: float) -> "QuadraticForm":
        return QuadraticForm(self.hessian, self.linear, self.constant + delta)


class DynamicsForm(enum.Enum):
    CONSTANT_B = "constant_b"
    STATE_DEPENDENT = "state_dependent"


@dataclass(frozen=True)
class DynamicsModel:
    """Input-affine dynamics x+ = f_x(x) + F_u(x) u.

    Two shapes are supported: a constant input matrix B, or a
    state-dependent input matrix (which the solver only accepts together
    with strictly convex input costs).  The drift f_x is either affine
    (A, a) or a user-supplied evaluator with an analytic Jacobian.
    Nonlinear evaluators must be vectorized over a leading batch axis:
    arguments of shape (..., n) map to (..., n) (drift), (..., n, n)
    (Jacobian) and (..., n, m) (input matrix).
    """

    form: DynamicsForm
    n: int
    m: int
    A: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    drift_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    drift_jac_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    input_matrix_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    input_matrix_jac_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)

    @classmethod
    def linear(cls, A, B, a=None) -> "DynamicsModel":
        """Affine dynamics x+ = A x + a + B u (constant input matrix)."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        A = _as_matrix(A, n, n, "A")
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != n:
            B = B.reshape(n, -1)
        m = B.shape[1]
        B = _as_matrix(B, n, m, "B")
        a = np.zeros(n) if a is None else _as_vector(a, n, "a")
        return cls(form=DynamicsForm.CONSTANT_B, n=n, m=m, A=A, a=a, B=B)

    @classmethod
    def state_dependent(
        cls,
        n: int,
        m: int,
        drift_fn,
        drift_jac_fn,
        input_matrix_fn,
        input_matrix_jac_fn=None,
    ) -> "DynamicsModel":
        """Nonlinear drift with a state-dependent input matrix."""
        return cls(
            form=DynamicsForm.STATE_DEPENDENT,
            n=n,
            m=m,
            drift_fn=drift_fn,
            drift_jac_fn=drift_jac_fn,
            input_matrix_fn=input_matrix_fn,
            input_matrix_jac_fn=input_matrix_jac_fn,
        )

    @property
    def is_affine(self) -> bool:
        return self.A is not None

    @functools.cached_property
    def controllability_index(self) -> int:
        """Smallest k with [B, AB, ..., A^{k-1}B] of full row rank; computed once, affine models only."""
        A, B = self.A, self.B
        n = A.shape[0]
        blocks = []
        Ak_B = B.copy()
        for k in range(1, n + 1):
            blocks.append(Ak_B)
            if np.linalg.matrix_rank(np.hstack(blocks)) == n:
                return k
            Ak_B = A @ Ak_B
        raise ValidationError("the pair (A, B) is not controllable")

    def drift(self, x: np.ndarray) -> np.ndarray:
        """f_x(x); accepts (..., n) batches."""
        x = np.asarray(x, dtype=float)
        if self.is_affine:
            return x @ self.A.T + self.a
        return np.asarray(self.drift_fn(x), dtype=float)

    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.is_affine:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return self.A
            return np.broadcast_to(self.A, x.shape[:-1] + self.A.shape)
        return np.asarray(self.drift_jac_fn(np.asarray(x, dtype=float)), dtype=float)

    def input_matrix(self, x: np.ndarray) -> np.ndarray:
        """F_u(x), shape (..., n, m)."""
        if self.form is DynamicsForm.CONSTANT_B:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return self.B
            return np.broadcast_to(self.B, x.shape[:-1] + self.B.shape)
        return np.asarray(self.input_matrix_fn(np.asarray(x, dtype=float)), dtype=float)

    def input_matrix_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d F_u / d x at a single state, shape (n, m, n).

        Falls back to central differences when no analytic Jacobian was
        supplied (only needed for dual recovery with state-dependent F_u).
        """
        x = np.asarray(x, dtype=float)
        if self.form is DynamicsForm.CONSTANT_B:
            return np.zeros((self.n, self.m, self.n))
        if self.input_matrix_jac_fn is not None:
            return np.asarray(self.input_matrix_jac_fn(x), dtype=float)
        jac = np.zeros((self.n, self.m, self.n))
        for k in range(self.n):
            step = 1e-6 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            jac[:, :, k] = (self.input_matrix(xp) - self.input_matrix(xm)) / (2.0 * step)
        return jac


@dataclass(frozen=True)
class CostTerm:
    """One epigraph constraint: e_owner' beta >= phi(x) + r'u + 1/2 u'R u."""

    owner: int  # 0-based index into the K epigraph variables
    phi: QuadraticForm
    r: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).reshape(-1)
        m = r.shape[0]
        object.__setattr__(self, "r", _as_vector(r, m, "cost term r"))
        R = np.asarray(self.R, dtype=float)
        R = 0.5 * (R + R.T)
        object.__setattr__(self, "R", _as_matrix(R, m, m, "cost term R"))

    def value(self, x: np.ndarray, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return self.phi(x) + float(self.r @ u + 0.5 * u @ self.R @ u)


@dataclass(frozen=True)
class StageCost:
    """l(x, u) = sum_k max over terms owned by k of [phi_j(x) + r_j'u + 1/2 u'R_j u]."""

    num_epigraph: int  # K
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        K = int(self.num_epigraph)
        if K < 1:
            raise ValidationError("stage cost needs at least one epigraph variable")
        if len(self.terms) < K:
            raise ValidationError("stage cost needs J >= K terms")
        for t in self.terms:
            if not 0 <= t.owner < K:
                raise ValidationError(f"cost term owner {t.owner} outside 0..{K - 1}")
        owned = {t.owner for t in self.terms}
        if owned != set(range(K)):
            missing = sorted(set(range(K)) - owned)
            raise ValidationError(f"epigraph variables without any cost term: {missing}")

    @property
    def K(self) -> int:
        return self.num_epigraph

    @property
    def J(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def owners(self) -> np.ndarray:
        """Owner index of each term, shape (J,); computed once, read-only."""
        return _read_only(np.array([t.owner for t in self.terms], dtype=int))

    @functools.cached_property
    def _owner_mask(self) -> np.ndarray:
        """(K, J) mask of the terms each owner holds; every owner has one."""
        return _read_only(self.owners == np.arange(self.K)[:, None])

    @functools.cached_property
    def _r_rows(self) -> np.ndarray:
        return _read_only(np.stack([t.r for t in self.terms]))

    @functools.cached_property
    def _R_blocks(self) -> np.ndarray:
        return _read_only(np.stack([t.R for t in self.terms]))

    def selector_matrix(self) -> np.ndarray:
        """L with rows e_j', shape (J, K); L' lambda_beta = 1 is the dual constraint."""
        L = np.zeros((self.J, self.K))
        L[np.arange(self.J), self.owners] = 1.0
        return L

    def r_matrix(self) -> np.ndarray:
        """Stacked r_j rows, shape (J, m); the same read-only array on every call."""
        return self._r_rows

    def R_stack(self) -> np.ndarray:
        """Stacked R_j blocks, shape (J, m, m); the same read-only array on every call."""
        return self._R_blocks

    def phi_vector(self, x: np.ndarray) -> np.ndarray:
        """phi_j(x) for all j, shape (J,)."""
        return np.array([t.phi(x) for t in self.terms])

    def phi_batch(self, X: np.ndarray) -> np.ndarray:
        """phi values for each row of X, shape (P, J)."""
        return np.stack([t.phi.batch(X) for t in self.terms], axis=1)

    def phi_grad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Gradients of phi_j at x as rows, shape (J, n)."""
        return np.stack([t.phi.gradient(x) for t in self.terms])

    def owner_max(self, term_values: np.ndarray) -> np.ndarray:
        """Maximum over each owner's terms: (..., J) term values -> (..., K)."""
        return np.where(self._owner_mask, np.asarray(term_values)[..., None, :], -np.inf).max(axis=-1)

    def owner_argmax(self, term_values: np.ndarray) -> np.ndarray:
        """Index in 0..J-1 of each owner's largest term, smallest on ties: (J,) -> (K,)."""
        return np.where(self._owner_mask, np.asarray(term_values), -np.inf).argmax(axis=-1)

    def evaluate(self, x: np.ndarray, u: np.ndarray) -> float:
        # left-to-right sum, equal to a term-by-term accumulation
        return float(sum(self.owner_max(self.term_values(x, u)), 0.0))

    def term_values(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # per-term evaluation so the result agrees exactly with a
        # term-by-term maximum computed by callers
        return np.array([t.value(x, u) for t in self.terms])


@dataclass(frozen=True)
class InputConstraintSet:
    """Polyhedral state-dependent input constraints E u <= h0 + H x."""

    E: np.ndarray
    h0: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.E, dtype=float)
        if E.ndim != 2:
            E = E.reshape(0, 0) if E.size == 0 else np.atleast_2d(E)
        n_c, m = E.shape
        object.__setattr__(self, "E", _as_matrix(E, n_c, m, "E"))
        object.__setattr__(self, "h0", _as_vector(self.h0, n_c, "h0"))
        H = np.asarray(self.H, dtype=float)
        if H.size == 0:
            H = np.zeros((n_c, 0))
        object.__setattr__(self, "H", np.atleast_2d(H))

    @classmethod
    def box(cls, lo, hi, n: int) -> "InputConstraintSet":
        """|u| bounds lo <= u <= hi encoded as E = [I; -I], h constant."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        m = lo.shape[0]
        E = np.vstack([np.eye(m), -np.eye(m)])
        h0 = np.concatenate([hi, -lo])
        return cls(E=E, h0=h0, H=np.zeros((2 * m, n)))

    @classmethod
    def unconstrained(cls, m: int, n: int) -> "InputConstraintSet":
        return cls(E=np.zeros((0, m)), h0=np.zeros(0), H=np.zeros((0, n)))

    @property
    def n_c(self) -> int:
        return self.E.shape[0]

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """h(x) = h0 + H x."""
        if self.H.shape[1] == 0:
            return self.h0.copy()
        return self.h0 + self.H @ np.asarray(x, dtype=float)

    def rhs_batch(self, X: np.ndarray) -> np.ndarray:
        if self.n_c == 0:
            return np.zeros((np.asarray(X).shape[0], 0))
        if self.H.shape[1] == 0:
            return np.broadcast_to(self.h0, (np.asarray(X).shape[0], self.n_c)).copy()
        return self.h0 + np.asarray(X, dtype=float) @ self.H.T

    def contains(self, x: np.ndarray, u: np.ndarray, tol: float = 1e-8) -> bool:
        if self.n_c == 0:
            return True
        return bool(np.all(self.E @ np.asarray(u, dtype=float) <= self.rhs(x) + tol))

    @functools.cached_property
    def _box_rows(self):
        """(column, coefficient) of each row of E, or None unless every row has one nonzero."""
        nonzero = self.E != 0
        if not (nonzero.sum(axis=1) == 1).all():
            return None
        cols = nonzero.argmax(axis=1)
        return _read_only(cols), _read_only(self.E[np.arange(self.n_c), cols])

    def row_box(self, x: np.ndarray):
        """Elementwise input bounds (lo, hi) at x, possibly infinite.

        Every row of E must be a (scaled) +-unit vector; the rows are
        intersected at the given state.  Returns None when some row is not.
        When no row depends on x, the bounds at a finite x are the same
        read-only arrays on every call.
        """
        if self._fixed_box is not None and all(map(math.isfinite, np.asarray(x, dtype=float).ravel().tolist())):
            return self._fixed_box  # H x is +0 at a finite x, so h(x) equals h(0)
        return self._intersect(x)

    def _intersect(self, x: np.ndarray):
        rows = self._box_rows
        if rows is None:
            return None
        cols, coef = rows
        m = self.E.shape[1]
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        bound = self.rhs(x) / coef
        upper = coef > 0
        np.minimum.at(hi, cols[upper], bound[upper])
        np.maximum.at(lo, cols[~upper], bound[~upper])
        return lo, hi

    @functools.cached_property
    def _fixed_box(self):
        """row_box at x = 0, read-only, when every row is a box row and H is zero; else None."""
        if self._box_rows is None or self.H.any():
            return None
        return tuple(_read_only(a) for a in self._intersect(np.zeros(self.H.shape[1])))

    def derived_box(self, x: np.ndarray):
        """Finite elementwise input bounds at x, or None when not box-shaped."""
        box = self.row_box(x)
        return box if box is not None and np.all(np.isfinite(box)) else None


class ProblemClass(enum.Enum):
    CONVEX_QUADRATIC = "convex_quadratic"
    NONLINEAR_BRUTE_FORCE = "nonlinear_brute_force"


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one control problem instance."""

    n: int
    m: int
    gamma: float
    dynamics: DynamicsModel
    cost: StageCost
    constraints: InputConstraintSet
    class_tag: ProblemClass

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValidationError(f"discount factor must lie in (0, 1], got {self.gamma}")
        if self.dynamics.n != self.n or self.dynamics.m != self.m:
            raise ValidationError("dynamics dimensions disagree with problem dimensions")
        if self.constraints.E.shape[1] != self.m:
            raise ValidationError("constraint matrix E has wrong input dimension")
        for t in self.cost.terms:
            if t.r.shape[0] != self.m:
                raise ValidationError("cost term r has wrong input dimension")
            if t.phi.dim != self.n:
                raise ValidationError("cost term phi has wrong state dimension")


def eval_dynamics(spec: ProblemSpec, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Successor state f(x, u) = f_x(x) + F_u(x) u."""
    x = _as_vector(x, spec.n, "x")
    u = _as_vector(u, spec.m, "u")
    out = spec.dynamics.drift(x) + spec.dynamics.input_matrix(x) @ u
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"dynamics produced non-finite successor at x={x}, u={u}")
    return out


def eval_stage_cost(spec: ProblemSpec, x: np.ndarray, u: np.ndarray) -> float:
    """Stage cost l(x, u): per-epigraph-variable maximum, summed over k."""
    x = _as_vector(x, spec.n, "x")
    u = _as_vector(u, spec.m, "u")
    return spec.cost.evaluate(x, u)


# ---------------------------------------------------------------------------
# Lower bounds and the pointwise-max approximation


@dataclass(frozen=True)
class Zeta2Term:
    """Pointwise evaluation data for the input-infimum term of a bound.

    Evaluates zeta2(x) = inf_u [w(x)'u + 1/2 u'M u] = -1/2 w(x)' M^+ w(x)
    with w(x) = F_u(x)'nu + E'lambda_c + Rbar'lambda_beta, where M is the
    lambda_beta-weighted mix of input curvatures.  Returns -inf when w(x)
    leaves the range of M (the dual candidate is not admissible there).
    """

    nu: np.ndarray
    w_const: np.ndarray
    M: np.ndarray
    eigvals: np.ndarray = field(repr=False, default=None)
    eigvecs: np.ndarray = field(repr=False, default=None)

    RANGE_TOL = 1e-8

    def __post_init__(self):
        if self.eigvals is None:
            vals, vecs = np.linalg.eigh(self.M)
            object.__setattr__(self, "eigvals", vals)
            object.__setattr__(self, "eigvecs", vecs)

    def _split(self):
        cutoff = max(self.eigvals.max(initial=0.0), 0.0) * 1e-12 + 1e-300
        pos = self.eigvals > cutoff
        return pos

    def value_of_w(self, w: np.ndarray) -> float:
        pos = self._split()
        y = self.eigvecs.T @ w
        w_norm = np.linalg.norm(w)
        perp = np.linalg.norm(y[~pos])
        if perp > self.RANGE_TOL * max(w_norm, 1e-30):
            return -np.inf
        if not pos.any():
            return 0.0
        return float(-0.5 * np.sum(y[pos] ** 2 / self.eigvals[pos]))

    def w_at(self, spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
        return spec.dynamics.input_matrix(x).T @ self.nu + self.w_const

    def value(self, spec: ProblemSpec, x: np.ndarray) -> float:
        return self.value_of_w(self.w_at(spec, x))

    def gradient(self, spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
        """d zeta2 / d x; requires the input-matrix Jacobian."""
        w = self.w_at(spec, x)
        pos = self._split()
        y = self.eigvecs.T @ w
        pinv_w = self.eigvecs[:, pos] @ (y[pos] / self.eigvals[pos]) if pos.any() else np.zeros_like(w)
        dFu = spec.dynamics.input_matrix_jacobian(x)  # (n, m, n)
        dw_dx = np.einsum("nmk,n->mk", dFu, self.nu)  # (m, n)
        return -dw_dx.T @ pinv_w


@dataclass(frozen=True)
class LowerBound:
    """One lower-bounding function g_i(x) with its originating dual data.

    Coefficient form:

        g(x) = lambda_beta' phi(x) - lambda_c' h(x) + nu' f_x(x)
               + zeta2(x) + offset

    For the convex-quadratic class the same function is materialized as an
    exact :class:`QuadraticForm` (``materialized``) and evaluation uses it.
    Synthetic bounds (e.g. an injected quadratic) may carry empty
    coefficient arrays and only the materialized form.
    """

    bound_id: int
    coeff_lambda_beta: np.ndarray
    coeff_lambda_c: np.ndarray
    coeff_nu: np.ndarray
    offset: float
    zeta2_spec: Optional[Zeta2Term] = None
    materialized: Optional[QuadraticForm] = None
    spec: Optional[ProblemSpec] = field(default=None, repr=False)

    @classmethod
    def zero(cls, n: int) -> "LowerBound":
        """The trivial bound g_0(x) = 0."""
        return cls(
            bound_id=0,
            coeff_lambda_beta=np.zeros(0),
            coeff_lambda_c=np.zeros(0),
            coeff_nu=np.zeros(n),
            offset=0.0,
            materialized=QuadraticForm.zero(n),
        )

    @classmethod
    def from_quadratic(cls, bound_id: int, form: QuadraticForm) -> "LowerBound":
        """Wrap an externally known quadratic lower bound (e.g. an oracle value)."""
        return cls(
            bound_id=bound_id,
            coeff_lambda_beta=np.zeros(0),
            coeff_lambda_c=np.zeros(0),
            coeff_nu=np.zeros(form.dim),
            offset=0.0,
            materialized=form,
        )

    def evaluate(self, x: np.ndarray) -> float:
        if self.materialized is not None:
            return self.materialized(x)
        return self.evaluate_from_coefficients(x)

    def evaluate_from_coefficients(self, x: np.ndarray) -> float:
        spec = self.spec
        if spec is None:
            raise ValueError("bound has no attached problem; cannot evaluate coefficients")
        val = float(
            self.coeff_lambda_beta @ spec.cost.phi_vector(x)
            - self.coeff_lambda_c @ spec.constraints.rhs(x)
            + self.coeff_nu @ spec.dynamics.drift(x)
            + self.offset
        )
        if self.zeta2_spec is not None:
            val += self.zeta2_spec.value(spec, x)
        return val

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.materialized is not None:
            return self.materialized.gradient(x)
        spec = self.spec
        grad = (
            spec.cost.phi_grad_matrix(x).T @ self.coeff_lambda_beta
            - spec.constraints.H.T @ self.coeff_lambda_c
            + spec.dynamics.drift_jacobian(x).T @ self.coeff_nu
        )
        if self.zeta2_spec is not None:
            grad = grad + self.zeta2_spec.gradient(spec, x)
        return grad


def _quadratic_row(bound: LowerBound) -> tuple:
    q = bound.materialized
    return q.hessian, q.linear, q.constant


def _coefficient_row(bound: LowerBound, spec: ProblemSpec) -> tuple:
    if spec is None:
        raise ValueError("coefficient-form bounds need a value approximation with an attached problem")
    lam_beta, lam_c, nu, offset = bound.coeff_lambda_beta, bound.coeff_lambda_c, bound.coeff_nu, bound.offset
    if lam_beta.shape != (spec.cost.J,) or lam_c.shape != (spec.constraints.n_c,):
        # the zero bound carries no multipliers; any other quadratic-only
        # bound has no coefficient form to stack
        q = bound.materialized
        if q is None or q.hessian.any() or q.linear.any() or q.constant != 0.0:
            raise ValueError(f"bound {bound.bound_id} has no coefficient form for this problem")
        lam_beta, lam_c, nu, offset = np.zeros(spec.cost.J), np.zeros(spec.constraints.n_c), np.zeros(spec.n), 0.0
    z = bound.zeta2_spec
    if z is None:
        m = spec.m
        return lam_beta, lam_c, nu, offset, np.zeros(spec.n), np.zeros(m), np.ones(m), np.eye(m), np.zeros(m, dtype=bool)
    pos = z._split()
    return lam_beta, lam_c, nu, offset, z.nu, z.w_const, np.where(pos, z.eigvals, 1.0), z.eigvecs, pos


def _stack_rows(rows) -> tuple:
    return tuple(np.stack(col) for col in zip(*rows))


def _extend(arrays: tuple, row: tuple) -> tuple:
    return tuple(np.concatenate([a, np.asarray(r)[None]]) for a, r in zip(arrays, row))


@dataclass(frozen=True)
class _BoundBank:
    """The bounds of a :class:`ValueApprox` as rows of stacked arrays.

    ``quadratic`` is (H, l, c) with shapes (B, n, n), (B, n), (B,) when
    every bound is materialized, and None otherwise.  ``coefficient`` is
    set exactly when ``quadratic`` is not: the multiplier rows lambda_beta
    (B, J), lambda_c (B, n_c), nu (B, n) and the offsets (B,), then the
    stacked zeta2 data nu (B, n), w_const (B, m), eigenvalues (B, m) with
    the non-positive ones replaced by 1, eigenvectors (B, m, m) and the
    positive-eigenvalue mask (B, m).  A bound without a zeta2 term has
    zero zeta2 rows, which evaluate to 0.  The arrays are never written
    after construction.
    """

    bounds: tuple
    quadratic: Optional[tuple]
    coefficient: Optional[tuple]

    @classmethod
    def stacked(cls, bounds: tuple, spec: Optional[ProblemSpec]) -> "_BoundBank":
        if all(b.materialized is not None for b in bounds):
            return cls(bounds, _stack_rows(_quadratic_row(b) for b in bounds), None)
        return cls(bounds, None, _stack_rows(_coefficient_row(b, spec) for b in bounds))

    def appended(self, bound: LowerBound, spec: Optional[ProblemSpec]) -> "_BoundBank":
        bounds = self.bounds + (bound,)
        if self.coefficient is not None:
            return _BoundBank(bounds, None, _extend(self.coefficient, _coefficient_row(bound, spec)))
        if bound.materialized is not None:
            return _BoundBank(bounds, _extend(self.quadratic, _quadratic_row(bound)), None)
        return _BoundBank.stacked(bounds, spec)

    def values(self, X: np.ndarray, spec: Optional[ProblemSpec]) -> np.ndarray:
        """Every bound's value at each row of X: (P, n) -> (P, B).

        Each bound is evaluated with the same arithmetic at every index, so
        identical bounds tie exactly.
        """
        if self.quadratic is not None:
            H, lin, con = self.quadratic
            if len(X) == 1:
                # one state: per bound the products of QuadraticForm.__call__,
                # so a single-point value equals the scalar reference bit for bit
                row, col = X[:, None, :], X[0][:, None]
                return (np.matmul(np.matmul(0.5 * row, H), col) + np.matmul(lin[:, None, :], col))[:, 0, 0][None] + con
            return 0.5 * np.einsum("pi,bij,pj->pb", X, H, X) + np.einsum("pi,bi->pb", X, lin) + con
        lam_beta, lam_c, nu, offset, z_nu, w_const, eigvals, eigvecs, pos = self.coefficient
        vals = (
            np.einsum("pj,bj->pb", spec.cost.phi_batch(X), lam_beta)
            - np.einsum("pc,bc->pb", spec.constraints.rhs_batch(X), lam_c)
            + np.einsum("pn,bn->pb", spec.dynamics.drift(X), nu)
            + offset
        )
        # zeta2 = -1/2 w' M^+ w on the range of M, -inf off it (see Zeta2Term)
        W = np.einsum("pnm,bn->pbm", spec.dynamics.input_matrix(X), z_nu) + w_const
        Y = np.einsum("pbm,bmk->pbk", W, eigvecs)
        Y2 = Y * Y
        zeta = -0.5 * np.where(pos, Y2 / eigvals, 0.0).sum(axis=2)
        perp = np.sqrt(np.where(pos, 0.0, Y2).sum(axis=2))
        bad = perp > Zeta2Term.RANGE_TOL * np.maximum(np.linalg.norm(W, axis=2), 1e-30)
        return vals + np.where(bad, -np.inf, zeta)


class ValueApprox:
    """Pointwise maximum of lower bounds, held in one stacked bound bank.

    The bounds always include the zero bound at index 0, so the
    approximation is nonnegative everywhere.  The bank stores each bound
    as one row of stacked arrays: quadratic forms when every bound is
    materialized, otherwise multiplier coefficients with the stacked
    zeta2 data (see :class:`_BoundBank`).  A single kernel evaluates all
    B bounds at P states as a (P, B) matrix; ``evaluate`` (one state),
    ``evaluate_batch`` and ``values_batch`` read it and break ties toward
    the smallest index.  Appending publishes new arrays and never writes
    published ones, so readers may take a snapshot while a driver appends
    the next bound and always see a consistent prefix.
    """

    def __init__(self, n: int, spec: Optional[ProblemSpec] = None, bounds: Optional[Sequence[LowerBound]] = None):
        self.n = n
        self.spec = spec
        bounds = (LowerBound.zero(n),) if bounds is None else tuple(bounds)
        if not bounds:
            raise ValueError("value approximation requires at least the zero bound")
        self._bank = _BoundBank.stacked(bounds, spec)

    @classmethod
    def initial(cls, spec: ProblemSpec) -> "ValueApprox":
        return cls(spec.n, spec=spec)

    @property
    def bounds(self) -> tuple:
        return self._bank.bounds

    @property
    def iteration(self) -> int:
        """Index I of the newest bound."""
        return len(self) - 1

    def __len__(self) -> int:
        return len(self._bank.bounds)

    def append(self, bound: LowerBound) -> None:
        self._bank = self._bank.appended(bound, self.spec)

    def snapshot(self) -> "ValueApprox":
        """A fixed view of the current bounds (shares the immutable bank)."""
        return copy.copy(self)

    def _materialized_stack(self):
        """(H, l, c) stacked over every bound, or None unless all are materialized."""
        return self._bank.quadratic

    def _bound_values(self, X: np.ndarray) -> np.ndarray:
        """Every bound's value at each row of X: (P, n) -> (P, B)."""
        return self._bank.values(np.asarray(X, dtype=float), self.spec)

    def evaluate(self, x: np.ndarray) -> tuple:
        """(max_i g_i(x), smallest maximizing index)."""
        vals = self._bound_values(np.asarray(x, dtype=float).reshape(1, -1))[0]
        idx = int(np.argmax(vals))
        return float(vals[idx]), idx

    def value(self, x: np.ndarray) -> float:
        return self.evaluate(x)[0]

    def evaluate_batch(self, X: np.ndarray) -> tuple:
        """Values and active indices for each row of X: ((P,), (P,))."""
        vals = self._bound_values(X)
        idx = np.argmax(vals, axis=1)
        return vals[np.arange(len(vals)), idx], idx

    def values_batch(self, X: np.ndarray) -> np.ndarray:
        return self.evaluate_batch(X)[0]

# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    accepted: bool
    problem_class: Optional[ProblemClass]
    violations: list
    notes: list

    def summary(self) -> str:
        if self.accepted:
            tag = {"convex_quadratic": "ConvexQuadratic", "nonlinear_brute_force": "NonlinearBruteForce"}[
                self.problem_class.value
            ]
            return f"ACCEPT {tag}"
        return "REJECT: " + "; ".join(self.violations)


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


def validate_spec(spec: ProblemSpec, cost_samples: int = 200, rng_seed: int = 0) -> ValidationReport:
    """Check a problem against the supported class and report violations.

    Verifies positive semidefiniteness of every input curvature R_j, the
    compatibility rule between input-cost curvature and the dynamics form
    (a state-dependent input matrix requires every R_j strictly positive
    definite), coverage of every epigraph variable by at least one cost
    term, and the declared class tag.  Nonnegativity of the stage cost is
    checked by sampling.
    """
    violations = []
    notes = []

    if not (0.0 < spec.gamma <= 1.0):
        violations.append(f"discount factor {spec.gamma} outside (0, 1]")

    # curvature checks
    all_R_pd = True
    for j, term in enumerate(spec.cost.terms):
        scale = max(1.0, float(np.abs(term.R).max(initial=0.0)))
        lo = _min_eig(term.R) if term.R.size else 0.0
        if lo < -1e-10 * scale:
            violations.append(f"cost term {j}: R is not positive semidefinite (min eig {lo:.3e})")
        if lo <= 1e-12 * scale:
            all_R_pd = False
        psd = _min_eig(term.phi.hessian)
        if psd < -1e-10 * max(1.0, float(np.abs(term.phi.hessian).max(initial=0.0))):
            notes.append(f"cost term {j}: phi has nonconvex curvature (min eig {psd:.3e})")

    state_dep = spec.dynamics.form is DynamicsForm.STATE_DEPENDENT
    if state_dep and not all_R_pd:
        violations.append(
            "state-dependent input matrix requires every input curvature R_j to be "
            "strictly positive definite; use a constant input matrix instead"
        )

    # epigraph coverage is enforced at construction; re-check defensively
    owned = {t.owner for t in spec.cost.terms}
    if owned != set(range(spec.cost.K)):
        violations.append("some epigraph variables are not covered by any cost term")

    # class eligibility
    convex_ok = (
        spec.dynamics.is_affine
        and (spec.dynamics.form is DynamicsForm.CONSTANT_B or all_R_pd)
        and all(_min_eig(t.phi.hessian) >= -1e-10 * max(1.0, float(np.abs(t.phi.hessian).max(initial=0.0)))
                for t in spec.cost.terms)
    )
    eligible = ProblemClass.CONVEX_QUADRATIC if convex_ok else ProblemClass.NONLINEAR_BRUTE_FORCE
    if spec.class_tag is ProblemClass.CONVEX_QUADRATIC and not convex_ok:
        violations.append("declared convex-quadratic but structure is not (nonlinear drift, "
                          "state-dependent input matrix with singular curvature, or nonconvex phi)")
    if spec.class_tag is ProblemClass.NONLINEAR_BRUTE_FORCE:
        if spec.constraints.derived_box(np.zeros(spec.n)) is None and spec.constraints.n_c > 0:
            notes.append("brute-force solver needs box-shaped input constraints; none derivable")

    # sampled nonnegativity of the stage cost
    rng = np.random.default_rng(rng_seed)
    box = spec.constraints.derived_box(np.zeros(spec.n))
    worst = 0.0
    for _ in range(cost_samples):
        x = rng.normal(0.0, 5.0, size=spec.n)
        if box is not None and np.all(np.isfinite(box[0])) and np.all(np.isfinite(box[1])):
            u = rng.uniform(box[0], box[1])
        else:
            u = rng.normal(0.0, 1.0, size=spec.m)
        worst = min(worst, spec.cost.evaluate(x, u))
    if worst < -1e-9:
        violations.append(f"stage cost is negative on sampled points (min {worst:.3e})")

    accepted = not violations
    return ValidationReport(
        accepted=accepted,
        problem_class=spec.class_tag if accepted else eligible,
        violations=violations,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# JSON problem files
#
# {"n":..,"m":..,"gamma":..,
#  "dynamics":{"form":"constant_b"|"state_dependent","A":[[..]],"a":[..],"B":[[..]]},
#  "cost":{"K":..,"terms":[{"owner":..,"Q":[[..]],"q":[..],"c":..,"r":[..],"R":[[..]]}]},
#  "constraints":{"E":[[..]],"h0":[..],"H":[[..]]}}
#
# Matrices are row-major nested lists; "owner" is 1-based in files.  The
# "state_dependent" form cannot carry evaluators in JSON and instead names
# a registered builtin model via an extra "builtin" key.


def problem_to_dict(spec: ProblemSpec) -> dict:
    if not spec.dynamics.is_affine or spec.dynamics.form is not DynamicsForm.CONSTANT_B:
        raise ValidationError("only affine constant-B dynamics are serializable to JSON")
    return {
        "n": spec.n,
        "m": spec.m,
        "gamma": spec.gamma,
        "dynamics": {
            "form": "constant_b",
            "A": spec.dynamics.A.tolist(),
            "a": spec.dynamics.a.tolist(),
            "B": spec.dynamics.B.tolist(),
        },
        "cost": {
            "K": spec.cost.K,
            "terms": [
                {
                    "owner": t.owner + 1,
                    "Q": t.phi.hessian.tolist(),
                    "q": t.phi.linear.tolist(),
                    "c": t.phi.constant,
                    "r": t.r.tolist(),
                    "R": t.R.tolist(),
                }
                for t in spec.cost.terms
            ],
        },
        "constraints": {
            "E": spec.constraints.E.tolist(),
            "h0": spec.constraints.h0.tolist(),
            "H": spec.constraints.H.tolist(),
        },
    }


def problem_from_dict(data: dict) -> ProblemSpec:
    try:
        n = int(data["n"])
        m = int(data["m"])
        gamma = float(data["gamma"])
        dyn = data["dynamics"]
        cost = data["cost"]
        cons = data["constraints"]
    except KeyError as exc:
        raise ValidationError(f"problem file missing required key: {exc}") from exc

    form = dyn.get("form", "constant_b")
    if form == "constant_b":
        dynamics = DynamicsModel.linear(
            _as_matrix(dyn["A"], n, n, "dynamics A"),
            _as_matrix(dyn["B"], n, m, "dynamics B"),
            _as_vector(dyn.get("a", np.zeros(n)), n, "dynamics a"),
        )
    elif form == "state_dependent":
        builtin = dyn.get("builtin")
        if builtin is None:
            raise ValidationError(
                "state-dependent dynamics cannot be defined in JSON; "
                "name a registered builtin model via the 'builtin' key"
            )
        from . import bench  # deferred: bench registers its builtin models

        spec = bench.builtin_problem(builtin)
        return spec
    else:
        raise ValidationError(f"unknown dynamics form {form!r}")

    K = int(cost["K"])
    terms = []
    for idx, t in enumerate(cost["terms"]):
        owner = int(t["owner"])
        if not 1 <= owner <= K:
            raise ValidationError(f"cost term {idx}: owner {owner} outside 1..{K}")
        terms.append(
            CostTerm(
                owner=owner - 1,
                phi=QuadraticForm(
                    _as_matrix(t["Q"], n, n, f"cost term {idx} Q"),
                    _as_vector(t.get("q", np.zeros(n)), n, f"cost term {idx} q"),
                    float(t.get("c", 0.0)),
                ),
                r=_as_vector(t.get("r", np.zeros(m)), m, f"cost term {idx} r"),
                R=_as_matrix(t["R"], m, m, f"cost term {idx} R"),
            )
        )
    stage = StageCost(num_epigraph=K, terms=terms)

    E = np.asarray(cons.get("E", []), dtype=float)
    if E.size == 0:
        constraints = InputConstraintSet.unconstrained(m, n)
    else:
        E = np.atleast_2d(E)
        n_c = E.shape[0]
        H = cons.get("H")
        H = np.zeros((n_c, n)) if H is None else _as_matrix(H, n_c, n, "constraints H")
        constraints = InputConstraintSet(
            E=_as_matrix(E, n_c, m, "constraints E"),
            h0=_as_vector(cons["h0"], n_c, "constraints h0"),
            H=H,
        )

    convex = all(_min_eig(t.phi.hessian) >= -1e-12 for t in terms)
    tag = ProblemClass.CONVEX_QUADRATIC if convex else ProblemClass.NONLINEAR_BRUTE_FORCE
    return ProblemSpec(n=n, m=m, gamma=gamma, dynamics=dynamics, cost=stage, constraints=constraints, class_tag=tag)


def load_problem(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return problem_from_dict(data)


def save_problem(spec: ProblemSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(spec), fh, indent=2)
        fh.write("\n")
