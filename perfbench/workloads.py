"""The benchmark workloads: seeded inputs, timed library calls, correctness checks.

Each workload splits its work into units (one system run to tolerance,
one certificate, one ball-and-beam episode).  ``setup`` builds every
input of a run from the seed; ``run_unit`` makes only the library calls.
Both time their calls with a :class:`perfbench.clock.Clock`; ``assess`` checks the outputs and extracts the values that must
repeat exactly.  Library entry points are looked up on their modules at
call time (``driver.run``, ``certify.certify_m1``, ...), so a traced run
sees them through the tracer's wrappers.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import traceback

import numpy as np

from gddp import certify, driver
from gddp.bench import (
    BALL_AND_BEAM_X0,
    RandomSystemConfig,
    ball_and_beam_samples,
    ball_and_beam_spec,
    generate_random_system,
    sample_states,
)
from gddp.driver import GddpConfig, GddpState, Picker
from gddp.exceptions import AnchorUnreachable, GddpError
from gddp.onestage import SolverConfig
from gddp.oracles import solve_dare
from gddp.problem import InputConstraintSet, ValueApprox

DELTA = 1e-3  # Bellman-error tolerance of every run()
CERT_MAX_ITERATIONS = 100  # cap on the run() that builds each frozen V-hat
MAX_STEPS = 30  # certify_m1 step budget before the 2x and 4x retries
CORPUS_SEED = 0  # seeds the fixed systems of lqr-converge and certify-frozen
BELLMAN_TOL = 1e-6  # slack on eps_hat = J_P - V-hat(x) >= 0, i.e. V-hat <= T V-hat at the picked state


@dataclasses.dataclass
class Unit:
    """Outcome of one unit of work."""

    op_ms: list  # latency samples of the workload's operation
    ops: int  # operations completed, for the throughput figure
    busy_s: float  # time spent in the operations
    attempted: int  # library operations attempted
    failed: int  # operations that raised, did not converge or failed a check
    fingerprint: tuple  # results that must repeat exactly for the same inputs
    info: dict  # workload-specific values
    active_bound_ratio: float = float("nan")
    raised: int = 0  # failed operations that raised a library error rather than failing a check


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def bellman_violations(history) -> int:
    """Iterations whose picked state has V-hat above its Bellman image.

    Every bound is a valid lower bound, so V-hat <= T V-hat and the
    one-stage cost J_P at the picked state is at least V-hat there.
    """
    return sum(rec.eps_hat < -BELLMAN_TOL for rec in history)


def active_bound_ratio(V: ValueApprox, X) -> float:
    """Share of the bounds that are the maximizer at one or more of the states X."""
    _, idx = V.evaluate_batch(np.atleast_2d(X))
    return len(np.unique(idx)) / len(V)


class LqrConverge:
    """``run`` to tolerance on a fixed corpus of random constrained linear systems.

    A unit is one system and its operation is the whole ``run`` to
    tolerance, so the latency is the system's time to tolerance and a
    change in the number of iterations shows in it.  Dimensions cycle
    through 2x1, 3x1 and 4x2.

    The systems and their samples are a fixed corpus and the seed only
    sets the order in which a run takes them; a run ends after whole
    passes over the corpus (``pass_units``), so it measures every system
    equally often.  Time to tolerance is heavy-tailed across systems (one
    in about a hundred needs 100 to 400 iterations): with fresh systems
    for each seed, the p90 over the ~150 systems of a 30 s run spread
    0.29 of its median across ten seeds.
    """

    name = "lqr-converge"
    setup_failures = 0  # library errors while building the inputs, skipped
    op = "one system's run() to delta (time to delta)"
    dims = ((2, 1), (3, 1), (4, 2))

    def __init__(self, samples: int = 5, pool: int = 48, trace_units: int = 24):
        self.trace_units = trace_units
        self.samples = samples
        self.cfg = GddpConfig(delta=DELTA, picker=Picker.MAX_BELLMAN_ERROR, check_every=1)
        self.pool = self.pass_units = pool

    def setup(self, seed: int, clock):
        return clock.call(self._inputs, seed)[0]

    def _inputs(self, seed: int):
        inputs = []
        for i in range(self.pool):
            n, m = self.dims[i % len(self.dims)]
            cfg = RandomSystemConfig(n=n, m=m, sample_count=self.samples)
            rng = np.random.default_rng([CORPUS_SEED, 0, i])
            inputs.append((generate_random_system(cfg, rng), sample_states(cfg, rng)))
        return [inputs[k] for k in np.random.default_rng(seed).permutation(self.pool)]

    def run_unit(self, inputs, i: int, clock):
        spec, X = inputs[i % len(inputs)]
        result, busy = clock.call(driver.run, spec, X, self.cfg)
        return X, result, busy

    def assess(self, inputs, raw, trace_extras: bool) -> Unit:
        X, result, busy = raw
        its = result.iterations_used
        ok = result.converged and bellman_violations(result.trace) == 0
        return Unit(
            op_ms=[1e3 * busy],
            ops=1,
            busy_s=busy,
            attempted=1,
            failed=int(not ok),
            fingerprint=(X.shape[1], its, len(result.V_hat), result.converged),
            info={"iterations_to_delta": its},
            active_bound_ratio=active_bound_ratio(result.V_hat, X) if trace_extras else float("nan"),
        )

    @staticmethod
    def summary(units) -> dict:
        its = [u.info["iterations_to_delta"] for u in units if u.info]
        return {
            "iterations_to_delta.p50": _percentile(its, 50),
            "iterations_to_delta.p90": _percentile(its, 90),
            "iterations_to_delta.first10": its[:10],
            "systems": len(its),
        }


@dataclasses.dataclass
class Frozen:
    specs: list
    approximations: list  # one frozen V-hat per system
    samples: list
    P: list  # Riccati matrices: V*(x) = 1/2 x'Px
    queries: np.ndarray


class CertifyFrozen:
    """``certify_m1(MAX_STEPS)`` at seeded Gaussian queries against fixed approximations.

    The systems are a fixed corpus, as in :class:`LqrConverge`, and the
    seed draws the queries.  Set-up builds ``systems`` random 3x1 systems
    whose input box is widened to +-1e3, where the constraints are
    inactive and the Riccati solution is the exact optimal value, and runs
    ``run`` on each to tolerance or ``CERT_MAX_ITERATIONS``.  The cap
    bounds set-up time and bound count on the rare slow system (one in
    about sixty took 580 iterations); any V-hat is a valid lower bound, so
    the checks hold either way.  A unit is one certificate; queries take
    the systems in turn, which averages out the cost differences between
    single systems.
    """

    name = "certify-frozen"
    setup_failures = 0
    pass_units = 1
    op = "one certify_m1 certificate"

    def __init__(self, systems: int = 16, samples: int = 10, pool: int = 4000, trace_units: int = 64):
        self.trace_units = trace_units
        self.systems = systems
        self.samples = samples
        self.cfg = GddpConfig(
            delta=DELTA, max_iterations=CERT_MAX_ITERATIONS, picker=Picker.MAX_BELLMAN_ERROR, check_every=5
        )
        self.pool = pool

    def setup(self, seed: int, clock) -> Frozen:
        ctx = Frozen(specs=[], approximations=[], samples=[], P=[], queries=None)
        self.setup_failures = 0
        k = 0
        while len(ctx.specs) < self.systems:  # one timed call per system, so the clock rescales between them
            k += 1
            try:
                spec, X, V, P = clock.call(self._system, k - 1)[0]
            except GddpError:  # e.g. NumericalError in run; counted as a failed operation, and skipped
                traceback.print_exc(file=sys.stderr)
                self.setup_failures += 1
                continue
            ctx.specs.append(spec)
            ctx.samples.append(X)
            ctx.approximations.append(V)
            ctx.P.append(P)
        ctx.queries = np.random.default_rng(seed).normal(0.0, 5.0, size=(self.pool, 3))
        return ctx

    def _system(self, k: int):
        cfg = RandomSystemConfig(n=3, m=1, sample_count=self.samples)
        rng = np.random.default_rng([CORPUS_SEED, 1, k])
        spec = generate_random_system(cfg, rng)
        spec = dataclasses.replace(spec, constraints=InputConstraintSet.box(-1e3 * np.ones(1), 1e3 * np.ones(1), 3))
        X = sample_states(cfg, rng)
        result = driver.run(spec, X, self.cfg)
        P = solve_dare(spec.dynamics.A, spec.dynamics.B, np.eye(3), np.eye(1), spec.gamma).P
        return spec, X, result.V_hat, P

    def run_unit(self, ctx: Frozen, i: int, clock):
        k = i % self.systems
        q = ctx.queries[i % len(ctx.queries)]
        cert, busy = clock.call(self._certificate, ctx.specs[k], ctx.approximations[k], q)
        return k, q, cert, busy

    def _certificate(self, spec, V, q):
        """A certificate as ``gddp.bench`` obtains one: retried with 2x and 4x the steps if the anchor is missed."""
        for steps in (MAX_STEPS, 2 * MAX_STEPS):
            try:
                return certify.certify_m1(spec, V, q, None, steps)
            except AnchorUnreachable:
                pass
        return certify.certify_m1(spec, V, q, None, 4 * MAX_STEPS)

    def assess(self, ctx: Frozen, raw, trace_extras: bool) -> Unit:
        k, q, cert, busy = raw
        vstar = float(0.5 * q @ ctx.P[k] @ q)
        ok = cert.lower <= vstar + 1e-6 and vstar <= cert.upper
        steps = len(cert.per_step_eps)
        return Unit(
            op_ms=[1e3 * busy],
            ops=1,
            busy_s=busy,
            attempted=1,
            failed=int(not ok),
            fingerprint=(k, steps, cert.lower, cert.upper),
            info={"lower": cert.lower, "gap": cert.upper - cert.lower, "steps": steps},
            active_bound_ratio=(
                active_bound_ratio(ctx.approximations[k], ctx.samples[k]) if trace_extras else float("nan")
            ),
        )

    @staticmethod
    def summary(units) -> dict:
        done = [u.info for u in units if u.info]
        return {
            "cert_gap_rel": sum(d["gap"] for d in done) / sum(d["lower"] for d in done) if done else float("nan"),
            "steps_per_cert": statistics.fmean(d["steps"] for d in done) if done else float("nan"),
            "certificates": len(done),
        }


@dataclasses.dataclass
class BallBeamInputs:
    spec: object
    solver: SolverConfig
    sample_sets: list


class BallBeamBudget:
    """Fixed-budget ball-and-beam episodes on the brute-force path.

    A unit is one episode: ``budget`` round-robin iterations from a fresh
    state over seeded samples, then one greedy rollout from
    ``BALL_AND_BEAM_X0``.  The operation is one ``gddp_iterate``.  The
    rollout's time is reported on its own: it depends on whether the
    greedy trajectory diverges, which varies from episode to episode.
    """

    name = "ballbeam-budget"
    setup_failures = 0
    pass_units = 1
    op = "one gddp_iterate on the brute-force path (B grows 1..budget)"

    def __init__(
        self,
        samples: int = 100,
        budget: int = 25,
        rollout_steps: int = 60,
        grid: int = 601,
        pool: int = 64,
        trace_units: int = 2,
    ):
        self.trace_units = trace_units
        self.samples = samples
        self.budget = budget
        self.rollout_steps = rollout_steps
        self.grid = grid
        self.pool = pool

    def setup(self, seed: int, clock) -> BallBeamInputs:
        return clock.call(self._inputs, seed)[0]

    def _inputs(self, seed: int) -> BallBeamInputs:
        spec = ball_and_beam_spec()
        solver = SolverConfig(bruteforce_grid=self.grid)
        sample_sets = [ball_and_beam_samples(self.samples, np.random.default_rng([seed, i])) for i in range(self.pool)]
        # first brute-force solve, so lazy initialisation is not timed in a unit
        driver.solve_onestage(spec, ValueApprox.initial(spec), sample_sets[0][0], solver)
        return BallBeamInputs(spec=spec, solver=solver, sample_sets=sample_sets)

    def run_unit(self, ctx: BallBeamInputs, i: int, clock):
        X = ctx.sample_sets[i % len(ctx.sample_sets)]
        cfg = GddpConfig(picker=Picker.ROUND_ROBIN, max_iterations=self.budget, solver=ctx.solver)
        state = GddpState.initial(ctx.spec, X)
        state.bellman_errors[:] = np.inf
        pick_rng = np.random.default_rng(0)
        iter_s = []
        for _ in range(self.budget):
            iter_s.append(clock.call(driver.gddp_iterate, ctx.spec, state, cfg, pick_rng)[1])
        traj, rollout_s = clock.call(certify.rollout_greedy, ctx.spec, state.V.snapshot(), BALL_AND_BEAM_X0, self.rollout_steps, ctx.solver)
        return X, state, traj, iter_s, rollout_s

    def assess(self, ctx: BallBeamInputs, raw, trace_extras: bool) -> Unit:
        X, state, traj, iter_s, rollout_s = raw
        final_norm = float(np.linalg.norm(traj.states[-1]))
        values = state.V.values_batch(X)
        bad_iters = bellman_violations(state.history)
        rollout_ok = (
            traj.feasible
            and len(traj.inputs) == self.rollout_steps
            and np.isfinite(final_norm)
            and np.all(np.isfinite(traj.stage_costs))
            and float(traj.bellman_errors.min()) >= -1e-6
        )
        finite = bool(np.all(np.isfinite(values)))
        return Unit(
            op_ms=[1e3 * s for s in iter_s],
            ops=len(iter_s),
            busy_s=sum(iter_s),
            attempted=len(iter_s) + 1,
            failed=bad_iters + int(not rollout_ok) + int(not finite) * len(iter_s),
            fingerprint=(len(state.V), tuple(rec.picked_index for rec in state.history), final_norm),
            info={"rollout_s": rollout_s, "final_norm": final_norm},
            active_bound_ratio=active_bound_ratio(state.V, X) if trace_extras else float("nan"),
        )

    @staticmethod
    def summary(units) -> dict:
        done = [u.info for u in units if u.info]
        return {
            "bb_rollout_s.p50": _percentile([d["rollout_s"] for d in done], 50),
            "bb_final_norm": [d["final_norm"] for d in done],
            "episodes": len(done),
        }


WORKLOADS = {w.name: w for w in (LqrConverge, CertifyFrozen, BallBeamBudget)}
