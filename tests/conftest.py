import numpy as np
import pytest

import gddp


def make_scalar_lqr(gamma=1.0, box_radius=1.0, A=0.5, B=1.0, Q=1.0, R=1.0):
    """Scalar constrained LQR used throughout: x+ = A x + B u, cost 1/2(Qx^2 + Ru^2)."""
    return gddp.ProblemSpec(
        n=1,
        m=1,
        gamma=gamma,
        dynamics=gddp.DynamicsModel.linear([[A]], [[B]]),
        cost=gddp.StageCost(
            1,
            (gddp.CostTerm(0, gddp.QuadraticForm([[Q]], [0.0], 0.0), [0.0], [[R]]),),
        ),
        constraints=gddp.InputConstraintSet.box([-box_radius], [box_radius], 1),
        class_tag=gddp.ProblemClass.CONVEX_QUADRATIC,
    )


def widen_box(spec, radius):
    """Same problem with the input box widened to +-radius."""
    import dataclasses

    return dataclasses.replace(
        spec,
        constraints=gddp.InputConstraintSet.box(-radius * np.ones(spec.m), radius * np.ones(spec.m), spec.n),
    )


def lqr_corpus(count=48):
    """The first ``count`` systems and sample sets of the benchmark's lqr-converge corpus.

    Dimensions cycle through 2x1, 3x1 and 4x2, with 5 samples each, drawn as
    ``perfbench/workloads.py`` draws them (corpus seed 0).
    """
    dims = ((2, 1), (3, 1), (4, 2))
    corpus = []
    for i in range(count):
        n, m = dims[i % len(dims)]
        cfg = gddp.RandomSystemConfig(n=n, m=m, sample_count=5)
        rng = np.random.default_rng([0, 0, i])
        corpus.append((gddp.generate_random_system(cfg, rng), gddp.sample_states(cfg, rng)))
    return corpus


def worked_value_approx(spec):
    """The two hand-derived bounds generated at x_hat = 2 on the scalar problem."""
    V = gddp.ValueApprox.initial(spec)
    for _ in range(2):
        primal, dual = gddp.solve_onestage_convex(spec, V, [2.0])
        V.append(gddp.build_lower_bound(spec, [2.0], primal, dual, V))
    return V


@pytest.fixture
def scalar_lqr():
    return make_scalar_lqr()


@pytest.fixture
def worked_V(scalar_lqr):
    return worked_value_approx(scalar_lqr)
