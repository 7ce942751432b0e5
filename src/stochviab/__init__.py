"""Stochastic viability for finite discrete-time controlled systems.

Given uncertain dynamics, admissible control sets, an i.i.d. finite
disturbance law and per-stage state constraints, this package computes the
maximal probability of satisfying every constraint through the horizon
(the viability value function), extracts viability kernels as level
sections, synthesizes maximizing feedback policies, and validates results
three independent ways: exact policy evaluation, Monte Carlo simulation, and
brute-force policy enumeration.

Importing the package loads none of its submodules: each public name, and
each submodule such as ``stochviab.io``, is imported on first access
(PEP 562), so a run pays start-up only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name by home submodule; ``name=attr`` exports the home's ``attr`` as ``name``.
_HOMES = {
    "closed_form": "KernelShape example_matrix kernel_closed_form matrix_value",
    "dp": "ARGMAX_TOL ArgmaxPolicy PolicyError ValueFunction ValueSlice brute_force_value "
          "evaluate_policy solve terminal_slice",
    "expr": "evaluate_expr=evaluate parse_expr=parse to_source",
    "io": "ModelFormatError format_estimate load_model read_value_csv save_model "
          "write_argmax_csv write_kernel_csv write_policy_csv write_trajectories_csv "
          "write_value_csv",
    "kernel": "FeedbackPolicy KernelSlice kernel_slice select_feedback viable_feedback_check",
    "mc": "ProbabilityEstimate Scenario Trajectory estimate_probability sample_scenario "
          "simulate simulate_batch wilson_interval",
    "model": "ConstraintSets ControlMap DisturbanceLaw ExprDynamics InvalidModelError Model "
             "ModelError StateSpace TableDynamics TimeGrid make_three_state_example "
             "project_to_grid validate",
}
_SOURCES = {
    public: (home, attr or public)
    for home, names in _HOMES.items()
    for public, _, attr in (name.partition("=") for name in names.split())
}
_SUBMODULES = {*_HOMES, "_rng", "_tables", "cli"}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SOURCES:
        home, attr = _SOURCES[name]
        value = getattr(importlib.import_module(f"{__name__}.{home}"), attr)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
