"""switchsde: simulation and spectral stability certification for
feedback-controlled regime-switching diffusions with state-dependent
switching rates."""

from .stability import StabilityCertificate, certify, feasible_tau_search, k_tau, max_tau_for_contraction
from .coupling import (
    EnvelopePair,
    check_domination,
    check_two_state_conditions,
    extremal_envelopes,
    full_coupling_generator,
)
from .engine import (
    HybridPath,
    McSummary,
    SimParams,
    monte_carlo,
    occupation_time_average,
    simulate_coupled,
    simulate_hybrid,
)
from .exprlang import ParseError, parse, to_source
from .markov import (
    exp_functional,
    invariant_measure,
    perron_root,
    skeleton_transition,
    spectral_abscissa,
    tilt,
    validate_generator,
)
from .scenario import Scenario, load_scenario, scenario_hash, validate_scenario

__all__ = [
    "StabilityCertificate", "certify", "feasible_tau_search", "k_tau",
    "max_tau_for_contraction", "EnvelopePair", "check_domination",
    "check_two_state_conditions", "extremal_envelopes",
    "full_coupling_generator", "HybridPath", "McSummary", "SimParams",
    "monte_carlo", "occupation_time_average", "simulate_coupled",
    "simulate_hybrid", "ParseError", "parse",
    "to_source", "exp_functional", "invariant_measure", "perron_root",
    "skeleton_transition", "spectral_abscissa", "tilt", "validate_generator",
    "Scenario", "load_scenario", "scenario_hash", "validate_scenario",
]
