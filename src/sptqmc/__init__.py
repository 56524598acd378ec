"""Stochastic perturbation theory toolkit.

Symbolic Rayleigh-Schrodinger corrections to a non-degenerate ground
state, their sum-over-states evaluation on finite spectral models, and
the matching stochastic estimators built on Langevin walkers and
reptation sampling.

The package namespace holds the public surface listed in __all__: the
exact corrections and their oracles, the stochastic estimates of the
same corrections, the built-in potentials, the result types, and the
errors the command line maps to exit codes.  Each name is imported from
its home module on first use, so `import sptqmc` loads no submodule.
Everything else is imported from its module, e.g. sptqmc.rqmc.Reptile or
sptqmc.spectral.random_model.
"""

from time import perf_counter as _perf_counter

_STARTED = _perf_counter()  # before any submodule loads: the wall time `spt` prints counts the imports

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name -> its home module
_HOMES = {
    # exact corrections and their oracles
    "epsilon_series": "rspt",
    "g": "symexpr",
    "SpectralModel": "spectral",
    "evaluate_epsilons": "spectral",
    "taylor_oracle": "spectral",
    "laurent_oracle": "spectral",
    # stochastic estimates of the same corrections
    "GaussianTrial": "walker",
    "HarmonicPotential": "walker",
    "QuarticPotential": "walker",
    "DoubleWellPotential": "walker",
    "sample_local_energy_series": "walker",
    "vmc_estimate": "estimators",
    "autocorrelation_integral": "estimators",
    "action_moments": "estimators",
    "stochastic_epsilons": "estimators",
    "run_reptation": "rqmc",
    "extrapolate_linear": "rqmc",
    # result types
    "LocalEnergySeries": "estimators",
    "EstimateWithError": "estimators",
    "RQMCRunResult": "rqmc",
    # configuration errors (exit 2) and numerical failures (exit 3)
    "ModelValidationError": "errors",
    "OrderCapError": "errors",
    "DegeneracyError": "errors",
    "FitConditioningError": "errors",
    "MissingOrderError": "errors",
    "NonLinearityError": "errors",
    "SeriesTooShortError": "errors",
    "WindowSelectionError": "errors",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """A public name, imported from its home module and bound here on first use (PEP 562)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value
