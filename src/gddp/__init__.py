"""Lower-bounding value function approximation for discounted
infinite-horizon deterministic control.

The package iteratively solves parametric one-stage problems, extracts
their dual solutions, and materializes globally valid lower bounds on the
optimal value function; the approximation is the pointwise maximum of all
bounds generated so far.  Certification utilities sandwich the optimal
value at query states between the approximation and a rollout-based upper
bound.
"""

from .bench import (
    BALL_AND_BEAM_X0,
    ExperimentRow,
    RandomSystemConfig,
    ball_and_beam_spec,
    generate_random_system,
    run_ball_and_beam,
    run_iterations_experiment,
    run_quality_experiment,
    sample_states,
)
from .certify import (
    CertMethod,
    SuboptimalityCertificate,
    Trajectory,
    accumulate_certificate_terms,
    certificate_to_dict,
    certify_m1,
    certify_m2,
    detour_cost,
    greedy_action,
    rollout_greedy,
    tail_completion,
)
from .driver import (
    BellmanError,
    GddpConfig,
    GddpResult,
    GddpState,
    IterationRecord,
    Picker,
    bellman_error,
    gddp_iterate,
    pick_next_state,
    run,
    solve_onestage,
)
from .exceptions import (
    AnchorUnreachable,
    BoxViolated,
    ExhaustedSamples,
    GddpError,
    GenerationFailed,
    InfeasibleState,
    NoConvergence,
    NumericalError,
    StrongDualityViolation,
    Unreachable,
    ValidationError,
)
from .onestage import (
    DualSolution,
    OneStageSolution,
    SolveStatus,
    SolverConfig,
    build_lower_bound,
    recover_duals_kkt,
    solve_onestage_bruteforce,
    solve_onestage_convex,
    zeta2,
)
from .oracles import (
    GridBellmanOperator,
    GridValueFunction,
    RiccatiSolution,
    grid_value_iteration,
    load_grid_value_function,
    save_grid_value_function,
    solve_dare,
)
from .problem import (
    CostTerm,
    DynamicsForm,
    DynamicsModel,
    InputConstraintSet,
    LowerBound,
    ProblemClass,
    ProblemSpec,
    QuadraticForm,
    StageCost,
    ValidationReport,
    ValueApprox,
    eval_dynamics,
    eval_stage_cost,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate_spec,
)

__version__ = "0.1.0"
