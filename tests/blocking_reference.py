"""Reference code for the blocking tests.

The two blocked means as each caller wrote them before they shared
estimators.blocked_estimate: the reptation run's (16 blocks, the
largest level without a plateau, an n < 16 rule and the blocking-ratio
tau) and vmc_estimate's (32 blocks, a plateau required, the Sokal tau).
The shared function must reproduce both bit for bit.
"""

import math

import numpy as np

from sptqmc import estimators
from sptqmc.estimators import EstimateWithError, SeriesTooShortError


def rqmc_blocked(values: np.ndarray, step: float) -> EstimateWithError:
    n = values.size
    if n < 2:
        raise SeriesTooShortError("need at least 2 samples")
    mean = float(values.mean())
    if np.var(values) == 0.0:
        return EstimateWithError(mean=mean, std_error=0.0, autocorr_time=0.0, effective_samples=float(n))
    if n < 16:
        sem2 = float(np.var(values, ddof=1) / n)
        return EstimateWithError(mean=mean, std_error=math.sqrt(sem2), autocorr_time=step, effective_samples=float(n))
    # without a plateau this is the largest level, a conservative bound
    sem2, _ = estimators.blocking_error(values, min_blocks=16)
    var0 = float(np.var(values, ddof=1))
    tau_steps = max(0.5, 0.5 * sem2 * n / var0)
    return EstimateWithError(
        mean=mean,
        std_error=math.sqrt(sem2),
        autocorr_time=tau_steps * step,
        effective_samples=n / (2.0 * tau_steps),
    )


def vmc_estimate(series: estimators.LocalEnergySeries) -> EstimateWithError:
    x = series.analysis_values
    n = x.size
    if n < 1000:
        raise SeriesTooShortError(f"need >= 1000 post-burn-in samples, got {n}")
    mean = float(np.mean(x))
    if np.var(x) == 0.0:
        return EstimateWithError(mean=mean, std_error=0.0, autocorr_time=0.0, effective_samples=float(n))
    sem2, plateau = estimators.blocking_error(x)
    if not plateau:
        raise SeriesTooShortError(
            "no blocking plateau: series too short for its correlation time"
        )
    tau_steps, _, _ = estimators._integrated_autocorr_steps(x)
    return EstimateWithError(
        mean=mean,
        std_error=math.sqrt(sem2),
        autocorr_time=tau_steps * series.step,
        effective_samples=n / (2.0 * tau_steps),
    )
