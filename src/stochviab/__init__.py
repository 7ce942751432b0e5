"""Stochastic viability for finite discrete-time controlled systems.

Given uncertain dynamics, admissible control sets, an i.i.d. finite
disturbance law and per-stage state constraints, this package computes the
maximal probability of satisfying every constraint through the horizon
(the viability value function), extracts viability kernels as level
sections, synthesizes maximizing feedback policies, and validates results
three independent ways: exact policy evaluation, Monte Carlo simulation, and
brute-force policy enumeration.
"""

from .closed_form import KernelShape, example_matrix, kernel_closed_form, matrix_value
from .dp import (
    ARGMAX_TOL,
    ArgmaxPolicy,
    PolicyError,
    ValueFunction,
    ValueSlice,
    brute_force_value,
    evaluate_policy,
    solve,
    terminal_slice,
)
from .expr import evaluate as evaluate_expr, parse as parse_expr, to_source
from .io import (
    ModelFormatError,
    format_estimate,
    load_model,
    read_value_csv,
    save_model,
    write_argmax_csv,
    write_kernel_csv,
    write_policy_csv,
    write_trajectories_csv,
    write_value_csv,
)
from .kernel import (
    FeedbackPolicy,
    KernelSlice,
    kernel_slice,
    select_feedback,
    viable_feedback_check,
)
from .mc import (
    ProbabilityEstimate,
    Scenario,
    Trajectory,
    estimate_probability,
    sample_scenario,
    simulate,
    simulate_batch,
    wilson_interval,
)
from .model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    InvalidModelError,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
    project_to_grid,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ARGMAX_TOL",
    "ArgmaxPolicy",
    "ConstraintSets",
    "ControlMap",
    "DisturbanceLaw",
    "ExprDynamics",
    "FeedbackPolicy",
    "InvalidModelError",
    "KernelShape",
    "KernelSlice",
    "Model",
    "ModelError",
    "ModelFormatError",
    "PolicyError",
    "ProbabilityEstimate",
    "Scenario",
    "StateSpace",
    "TableDynamics",
    "TimeGrid",
    "Trajectory",
    "ValueFunction",
    "ValueSlice",
    "brute_force_value",
    "estimate_probability",
    "evaluate_expr",
    "evaluate_policy",
    "example_matrix",
    "format_estimate",
    "kernel_closed_form",
    "kernel_slice",
    "load_model",
    "make_three_state_example",
    "matrix_value",
    "parse_expr",
    "project_to_grid",
    "read_value_csv",
    "sample_scenario",
    "save_model",
    "select_feedback",
    "simulate",
    "simulate_batch",
    "solve",
    "terminal_slice",
    "to_source",
    "validate",
    "viable_feedback_check",
    "wilson_interval",
    "write_argmax_csv",
    "write_kernel_csv",
    "write_policy_csv",
    "write_trajectories_csv",
    "write_value_csv",
]
