"""Stochastic perturbation theory toolkit.

Symbolic Rayleigh-Schrodinger corrections to a non-degenerate ground
state, their sum-over-states evaluation on finite spectral models, and
the matching stochastic estimators built on Langevin walkers and
reptation sampling.

The package namespace holds the public surface listed in __all__: the
exact corrections and their oracles, the stochastic estimates of the
same corrections, the built-in potentials, the result types, and the
errors the command line maps to exit codes.  Everything else is imported
from its module, e.g. sptqmc.rqmc.Reptile or sptqmc.spectral.random_model.
"""

from time import perf_counter as _perf_counter

_STARTED = _perf_counter()  # before numpy loads: the wall time `spt` prints counts the imports

from .estimators import (
    EstimateWithError,
    LocalEnergySeries,
    NonLinearityError,
    SeriesTooShortError,
    WindowSelectionError,
    action_moments,
    autocorrelation_integral,
    stochastic_epsilons,
    vmc_estimate,
)
from .rqmc import RQMCRunResult, extrapolate_linear, run_reptation
from .rspt import MissingOrderError, OrderCapError, epsilon_series
from .spectral import (
    DegeneracyError,
    FitConditioningError,
    ModelValidationError,
    SpectralModel,
    evaluate_epsilons,
    laurent_oracle,
    taylor_oracle,
)
from .symexpr import g
from .walker import (
    DoubleWellPotential,
    GaussianTrial,
    HarmonicPotential,
    QuarticPotential,
    sample_local_energy_series,
)

__version__ = "0.1.0"

__all__ = [
    # exact corrections and their oracles
    "epsilon_series",
    "g",
    "SpectralModel",
    "evaluate_epsilons",
    "taylor_oracle",
    "laurent_oracle",
    # stochastic estimates of the same corrections
    "GaussianTrial",
    "HarmonicPotential",
    "QuarticPotential",
    "DoubleWellPotential",
    "sample_local_energy_series",
    "vmc_estimate",
    "autocorrelation_integral",
    "action_moments",
    "stochastic_epsilons",
    "run_reptation",
    "extrapolate_linear",
    # result types
    "LocalEnergySeries",
    "EstimateWithError",
    "RQMCRunResult",
    # configuration errors (exit 2) and numerical failures (exit 3)
    "ModelValidationError",
    "OrderCapError",
    "DegeneracyError",
    "FitConditioningError",
    "MissingOrderError",
    "NonLinearityError",
    "SeriesTooShortError",
    "WindowSelectionError",
]
