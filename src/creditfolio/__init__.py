"""Optimal investment/consumption with defaultable stocks under a stochastic factor.

Solve the recursive system of default-state PDEs for the dual value function,
extract optimal feedback trading and consumption policies, and validate both
against closed forms and Monte Carlo simulation.
"""

from .dual import beta_exponent, phi_bounds
from .fields import GridSpec, PolicyField, SolutionField, SolveResult, TruncationBounds
from .model import (
    CreditSpec,
    DefaultState,
    FactorSpec,
    MarketSpec,
    ModelSpec,
    PreferenceSpec,
    ValidationReport,
    all_states,
    load_preset,
    states_by_cardinality,
    validate_spec,
)
from .oracle import ScalarModel, all_defaulted_closed_form, merton_fraction, picard_fixed_point
from .pde import solve_recursive_system, step_slice, truncation_bounds
from .strategy import SolverError, build_policy, pi_hat, solve_hhat, value_function

__version__ = "0.1.0"

__all__ = [
    "CreditSpec", "DefaultState", "FactorSpec", "GridSpec", "MarketSpec", "ModelSpec",
    "PolicyField", "PreferenceSpec", "ScalarModel", "SolutionField", "SolveResult",
    "SolverError", "TruncationBounds", "ValidationReport",
    "all_defaulted_closed_form", "all_states", "beta_exponent", "build_policy",
    "load_preset", "merton_fraction", "phi_bounds", "pi_hat", "picard_fixed_point",
    "solve_hhat", "solve_recursive_system", "states_by_cardinality", "step_slice",
    "truncation_bounds", "validate_spec", "value_function",
]
