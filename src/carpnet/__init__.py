"""carpnet: cascading alternating renewal processes on interdependent risk networks.

The package models systemic risks as a network of coupled two-state renewal
processes: each risk switches between dormant and active under internal
pressure, contagion from active neighbors, and recovery. It provides
maximum-likelihood parameter fitting from observed activity panels,
mean-field steady-state analysis with a transition-type decomposition,
seeded Monte Carlo cascade simulation, and knockout-based influence
analysis, all exposed both as a library and through the ``carpnet`` CLI.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .domain import (
    CATEGORIES,
    DEFAULT_EPSILON,
    Category,
    EventPanel,
    ModelParams,
    NormalizationScheme,
    Risk,
    RiskNetwork,
    load_network,
    load_panel,
    normalize_likelihoods,
    save_network,
    save_panel,
)
from .errors import CarpError, ConvergenceError, ValidationError

# The analysis modules load on first use of one of their names (PEP 562), so
# a process that only loads files imports numpy and the data model alone.
# ``import carpnet.cli`` still loads every module.
_LAZY = {
    "dynamics": ("NetworkState", "activation_prob", "philox_stream", "step", "survival_prob"),
    "influence": ("KNOCKOUT_FLOOR", "CategoryInfluence", "InfluenceMatrix", "category_influence",
                  "influence_matrix", "knockout"),
    "meanfield": ("InitMode", "SteadyState", "TransitionFractions", "ext_int_ratio", "ext_int_ratios",
                  "fixed_point", "stationarity_residual", "transition_fractions"),
    "mle": ("FitResult", "PanelStats", "fit", "log_likelihood"),
    "montecarlo": ("FrequencyTrajectory", "SimulationConfig", "TemporalInfluence", "simulate", "temporal_influence"),
    "synth": ("generate_synthetic",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A public name or submodule of an analysis module, imported on first access."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_MODULE_OF})


__all__ = [
    "CATEGORIES",
    "DEFAULT_EPSILON",
    "KNOCKOUT_FLOOR",
    "CarpError",
    "Category",
    "CategoryInfluence",
    "ConvergenceError",
    "EventPanel",
    "FitResult",
    "FrequencyTrajectory",
    "InfluenceMatrix",
    "InitMode",
    "ModelParams",
    "NetworkState",
    "NormalizationScheme",
    "PanelStats",
    "Risk",
    "RiskNetwork",
    "SimulationConfig",
    "SteadyState",
    "TemporalInfluence",
    "TransitionFractions",
    "ValidationError",
    "activation_prob",
    "category_influence",
    "ext_int_ratio",
    "ext_int_ratios",
    "fit",
    "fixed_point",
    "generate_synthetic",
    "influence_matrix",
    "knockout",
    "load_network",
    "load_panel",
    "log_likelihood",
    "normalize_likelihoods",
    "philox_stream",
    "save_network",
    "save_panel",
    "simulate",
    "stationarity_residual",
    "step",
    "survival_prob",
    "temporal_influence",
    "transition_fractions",
]
