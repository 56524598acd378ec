"""Statistical analysis of local-energy series.

Three estimator families over one immutable series type:

  * blocked_estimate / vmc_estimate: means with blocking errors, and
    vmc_estimate's autocorrelation time from the integrated ACF,
  * autocorrelation_integral: the second-order correction as
    -epsilon * (c(0)/2 + sum c(k)) with a self-consistent window,
  * action_moments / stochastic_epsilons: sliding-window action moments
    lambda_n(tau), the moment-to-cumulant recursion gamma_n(tau), and
    corrections from the slopes of gamma_n versus tau.

Error bars are honest throughout: blocking plateaus for means, batch
means for windowed integrals, batch resampling through the cumulant
recursion for slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonLinearityError, SeriesTooShortError, WindowSelectionError

DEFAULT_MAX_STOCHASTIC_ORDER = 3
_SOKAL_WINDOW = 6.0  # Sokal's window: k* is the smallest lag with k* >= _SOKAL_WINDOW * tau_int(k*)
_N_BATCHES = 16  # contiguous batches behind the error bars of the integral and the moments
_MIN_LINEAR_R2 = 0.99  # a gamma_n(tau) fit below this R^2, with residuals spread above its noise, is not linear
HIGH_ORDER_WARNING = (
    "stochastic orders above 3 are ill conditioned: the cumulant-from-moment "
    "recursion amplifies noise rapidly with order; pass allow_high_orders=True "
    "only with very long series"
)


@dataclass(frozen=True)
class LocalEnergySeries:
    """W samples from one walk; analysis skips the first burn_in entries."""

    values: np.ndarray
    step: float
    burn_in: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step (the walk's epsilon) must be a positive finite number, got {self.step!r}")
        if self.burn_in < 0 or self.burn_in >= values.size:
            raise ValueError(
                f"burn_in {self.burn_in} outside 0..{values.size - 1}"
            )

    @property
    def analysis_values(self) -> np.ndarray:
        return self.values[self.burn_in:]


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    std_error: float
    autocorr_time: float
    effective_samples: float
    fit: dict = field(default_factory=dict, compare=False)  # the line behind a slope estimate, else empty

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class ActionMoments:
    """Sliding-window action moments lambda_n(tau) = <S(tau)^n>/n!.

    lam has shape (grid, order+1) with lam[:, 0] = 1; batch_lambdas
    (shape (batches, grid, order+1)) backs error propagation through
    downstream nonlinear transforms.
    """

    tau_grid: np.ndarray
    lam: np.ndarray
    errors: np.ndarray
    batch_lambdas: np.ndarray
    step: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau_grid must be strictly increasing")
        if not np.allclose(self.lam[:, 0], 1.0):
            raise ValueError("lambda_0 must be identically 1")

    @property
    def max_order(self) -> int:
        return self.lam.shape[1] - 1


# ---------------------------------------------------------------------------
# blocking


def blocking_levels(values: np.ndarray, min_blocks: int = 32) -> list[tuple[int, float, float]]:
    """Flyvbjerg-Petersen table: (blocks, var of mean, its uncertainty)."""
    x = np.asarray(values, dtype=float)
    levels = []
    while x.size >= min_blocks:
        m = x.size
        sem2 = float(np.var(x, ddof=1) / m)
        levels.append((m, sem2, sem2 * math.sqrt(2.0 / (m - 1))))
        if m % 2:
            x = x[:-1]
        x = 0.5 * (x[0::2] + x[1::2])
    return levels


def blocking_error(values: np.ndarray, min_blocks: int = 32) -> tuple[float, bool]:
    """Squared error of the mean from the blocking table, and whether it plateaued.

    The plateau is the first level where doubling the blocks stops
    growing the variance.  A rise counts only when it exceeds twice the
    combined uncertainty of the two levels; deep levels carry ~20% noise,
    and a one-sigma test rejects genuine plateaus on healthy series.
    Without a plateau the largest level is returned with plateau=False.
    """
    levels = blocking_levels(values, min_blocks)
    if not levels:
        raise SeriesTooShortError(f"need at least {min_blocks} samples for blocking")
    for k in range(len(levels) - 1):
        _, sem2, err = levels[k]
        _, sem2_next, err_next = levels[k + 1]
        if sem2_next > sem2 + 2.0 * math.hypot(err, err_next):
            continue
        # require the next doubling (when there is one) to stay flat too,
        # guarding against a lucky stall on the rising flank
        if k + 2 < len(levels):
            _, sem2_after, err_after = levels[k + 2]
            if sem2_after > sem2_next + 2.0 * math.hypot(err_next, err_after):
                continue
        return max(sem2, sem2_next), True
    return max(level[1] for level in levels), False


def _integrated_autocorr_steps(x: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Sokal-windowed tau_int in step units, the window k*, and c(0..N/4) it came from."""
    c = autocovariance(x, max_lag=max(1, x.size // 4))
    if c[0] <= 0:
        return 0.5, 0, c
    rho = c / c[0]
    tau = 0.5
    for k in range(1, rho.size):
        tau += float(rho[k])
        if k >= _SOKAL_WINDOW * tau:
            return max(tau, 0.5), k, c
    raise WindowSelectionError(
        "autocorrelation does not decay within the available lags"
    )


def blocked_estimate(values: np.ndarray, min_blocks: int, tau_steps: Callable, step: float = 1.0) -> EstimateWithError:
    """Mean of values with its blocking error bar; constant values are exact.

    Below min_blocks samples there is no blocking table: the error is
    that of independent samples, and autocorr_time is one step.
    Otherwise tau_steps(values, sem2, plateau), the caller's policy,
    turns the blocking result into tau_int in steps, or raises;
    autocorr_time is tau_int * step and effective_samples = N / (2 tau_int).
    """
    n = values.size
    if n < 2:
        raise SeriesTooShortError("need at least 2 samples")
    mean = float(np.mean(values))
    if np.var(values) == 0.0:
        return EstimateWithError(mean=mean, std_error=0.0, autocorr_time=0.0, effective_samples=float(n))
    if n < min_blocks:
        sem2 = float(np.var(values, ddof=1) / n)
        return EstimateWithError(mean=mean, std_error=math.sqrt(sem2), autocorr_time=step, effective_samples=float(n))
    sem2, plateau = blocking_error(values, min_blocks)
    tau = tau_steps(values, sem2, plateau)
    return EstimateWithError(
        mean=mean,
        std_error=math.sqrt(sem2),
        autocorr_time=tau * step,
        effective_samples=n / (2.0 * tau),
    )


def _plateau_sokal_tau(x: np.ndarray, sem2: float, plateau: bool) -> float:
    if not plateau:
        raise SeriesTooShortError("no blocking plateau: series too short for its correlation time")
    return _integrated_autocorr_steps(x)[0]


def vmc_estimate(series: LocalEnergySeries) -> EstimateWithError:
    """Time average of W with blocking error bar.

    std_error comes from the blocking plateau at >= 32 blocks (none
    raises); autocorr_time is the Sokal-windowed integrated ACF (in time
    units, so epsilon/2 for an uncorrelated series).
    """
    x = series.analysis_values
    if x.size < 1000:
        raise SeriesTooShortError(f"need >= 1000 post-burn-in samples, got {x.size}")
    return blocked_estimate(x, 32, _plateau_sokal_tau, series.step)


# ---------------------------------------------------------------------------
# autocovariance and the second-order integral


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: the FFT length scipy.fft.next_fast_len picks."""
    best = 1 << (target - 1).bit_length()
    odd = [1]  # every 3-, 5-, 7- and 11-smooth odd number below best
    for p in (3, 5, 7, 11):
        for m in list(odd):
            m *= p
            while m < best:
                odd.append(m)
                m *= p
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


def autocovariance(values: np.ndarray, max_lag: int, mean: float | None = None) -> np.ndarray:
    """Empirical autocovariance c(0..max_lag), FFT-based, 1/N normalized.

    Deviations are taken about mean when given (a pooled mean shared by
    several segments), else about the series' own mean.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be below the series length {n}")
    xc = x - (x.mean() if mean is None else mean)
    m = _next_fast_len(2 * n)
    f = np.fft.rfft(xc, m)
    del xc  # the centred copy, then the raw spectrum (f rebound), go as soon as they are used
    f = f * np.conj(f)  # in this form: other forms of the product change c(k) in its last bits
    acov = np.fft.irfft(f, m)[: max_lag + 1]
    return acov / n


def batch_error(values) -> np.ndarray | float:
    """Standard error of the mean over batches: the spread of values along axis 0 over sqrt(batches)."""
    return np.std(values, axis=0, ddof=1) / math.sqrt(len(values))


def autocorrelation_integral(series: LocalEnergySeries) -> EstimateWithError:
    """Second-order correction from the local-energy autocovariance.

    epsilon_2-hat = -eps * (c(0)/2 + sum_{k=1..k*} c(k)), the trapezoidal
    discretization of -integral of the autocorrelation function.  The
    window k* is the smallest lag with k* >= _SOKAL_WINDOW * tau_int(k*);
    the error bar is the spread of the same integral over contiguous
    batches, all sharing the pooled window.
    """
    x = series.analysis_values
    n = x.size
    mean = float(np.mean(x))
    if n < 2 or np.var(x) == 0.0:
        return EstimateWithError(mean=0.0, std_error=0.0, autocorr_time=0.0, effective_samples=float(n))
    tau_steps, kstar, c = _integrated_autocorr_steps(x)
    c = c[: kstar + 1]
    eps = series.step
    total = float(-eps * (0.5 * c[0] + np.sum(c[1:])))

    batches = _N_BATCHES
    while batches > 2 and n // batches < 8 * max(kstar, 1):
        batches //= 2
    if batches < 2 or n // batches <= kstar + 1:
        raise SeriesTooShortError(
            f"series too short for batch errors with window {kstar}"
        )
    length = n // batches
    values = []
    for b in range(batches):
        seg = x[b * length : (b + 1) * length]
        cb = autocovariance(seg, kstar, mean=mean)
        values.append(float(-eps * (0.5 * cb[0] + np.sum(cb[1:]))))
    return EstimateWithError(
        mean=total,
        std_error=float(batch_error(values)),
        autocorr_time=tau_steps * eps,
        effective_samples=n / (2.0 * tau_steps),
    )


# ---------------------------------------------------------------------------
# action moments and stochastic perturbation orders


def action_moments(
    series: LocalEnergySeries,
    tau_grid,
    max_order: int = DEFAULT_MAX_STOCHASTIC_ORDER,
) -> ActionMoments:
    """Moments of the windowed action S(tau) over all sliding windows.

    Each requested tau snaps to a whole number of links w = round(tau/eps);
    S is the trapezoidal integral of W over [j, j+w], evaluated for every
    start j from prefix sums.  Windows overlap for maximal data use;
    error bars come from contiguous batches of window starts.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    x = series.analysis_values
    n = x.size
    eps = series.step
    taus = np.asarray(tau_grid, dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise ValueError(f"tau grid must be strictly increasing, got {taus.tolist()}")
    widths = []
    for tau in taus:
        w = int(round(tau / eps))
        if w < 1:
            raise ValueError(f"tau {tau} is below one step {eps}")
        if w > n - 1:
            raise ValueError(
                f"tau {tau} needs {w} links but the series has only {n - 1}"
            )
        widths.append(w)
    if any(b == a for a, b in zip(widths, widths[1:])):
        raise ValueError(
            "tau grid collapses after snapping to whole steps; spread the grid or reduce epsilon"
        )

    prefix = np.concatenate([[0.0], np.cumsum(x)])
    grid = len(widths)
    lam = np.empty((grid, max_order + 1))
    errors = np.zeros((grid, max_order + 1))
    batch_lambdas = np.empty((_N_BATCHES, grid, max_order + 1))
    lam[:, 0] = 1.0
    batch_lambdas[:, :, 0] = 1.0

    for gi, w in enumerate(widths):
        starts = n - w  # windows [j, j+w] for j = 0..n-w-1
        if starts < _N_BATCHES:
            raise SeriesTooShortError(
                f"only {starts} windows at tau={w * eps}; need >= {_N_BATCHES}"
            )
        actions = eps * (prefix[w + 1 :] - prefix[: starts] - 0.5 * x[:starts] - 0.5 * x[w:])
        powers = np.ones_like(actions)
        bounds = np.linspace(0, starts, _N_BATCHES + 1).astype(int)
        for order in range(1, max_order + 1):
            powers = powers * actions
            fact = math.factorial(order)
            lam[gi, order] = powers.mean() / fact
            per_batch = np.array([
                powers[a:b].mean() / fact for a, b in zip(bounds[:-1], bounds[1:])
            ])
            batch_lambdas[:, gi, order] = per_batch
            errors[gi, order] = batch_error(per_batch)

    realized = np.array([w * eps for w in widths])
    return ActionMoments(
        tau_grid=realized,
        lam=lam,
        errors=errors,
        batch_lambdas=batch_lambdas,
        step=eps,
    )


def gamma_from_lambdas(lam: np.ndarray) -> np.ndarray:
    """Reduced cumulants from moments along the last axis.

    gamma_n = lambda_n - sum_{k=1}^{n-1} ((n-k)/n) gamma_{n-k} lambda_k,
    applied independently at every grid point / batch; gamma_0 = 1.
    The normalization is gamma_n = kappa_n / n! in terms of ordinary
    cumulants kappa_n.
    """
    lam = np.asarray(lam, dtype=float)
    gamma = np.empty_like(lam)
    gamma[..., 0] = 1.0
    for n in range(1, lam.shape[-1]):
        acc = lam[..., n].copy()
        for k in range(1, n):
            acc -= ((n - k) / n) * gamma[..., n - k] * lam[..., k]
        gamma[..., n] = acc
    return gamma


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> tuple[float, float, float]:
    """Weighted least squares y ~ a + b x; returns (a, b, weighted R^2)."""
    w = weights / weights.sum()
    xm = float((w * x).sum())
    ym = float((w * y).sum())
    dx = x - xm
    dy = y - ym
    sxx = float((w * dx * dx).sum())
    if sxx == 0.0:
        raise ValueError("degenerate tau grid in line fit")
    slope = float((w * dx * dy).sum()) / sxx
    intercept = ym - slope * xm
    ss_tot = float((w * dy * dy).sum())
    ss_res = float((w * (dy - slope * dx) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return intercept, slope, r2


def stochastic_epsilons(
    moments: ActionMoments,
    *,
    allow_high_orders: bool = False,
) -> list[EstimateWithError]:
    """Perturbative corrections of every order the moments hold, from the tau-slopes of the cumulants.

    gamma_n(tau) is computed from lambda_n(tau) at every grid point; in
    the asymptotic regime it grows linearly and epsilon_n is (-1)^(n+1)
    times the slope of a weighted linear fit (the intercept absorbs the
    tau-independent cumulant constant).  Errors propagate by refitting
    each moment batch.  Each estimate's fit holds its line: the realized
    tau_grid, slope, intercept and weighted r2.  Orders above 3 are
    refused unless allow_high_orders is set: the cumulant recursion is
    ill conditioned and noise grows quickly with order.
    """
    if moments.max_order > DEFAULT_MAX_STOCHASTIC_ORDER and not allow_high_orders:
        raise ValueError(HIGH_ORDER_WARNING)
    if moments.tau_grid.size < 4:
        raise ValueError("need at least 4 tau grid points for slope fits")

    tau = moments.tau_grid
    gamma = gamma_from_lambdas(moments.lam)
    batch_gammas = gamma_from_lambdas(moments.batch_lambdas)
    n_batches = batch_gammas.shape[0]
    sigma = batch_error(batch_gammas)

    estimates = []
    for order in range(1, moments.max_order + 1):
        y = gamma[:, order]
        s = sigma[:, order]
        if np.any(s == 0.0):
            # deterministic series: fall back to uniform weights
            weights = np.ones_like(tau)
        else:
            weights = 1.0 / s**2
        intercept, slope, r2 = _weighted_line_fit(tau, y, weights)
        scatter = float(np.ptp(y - (intercept + slope * tau)))  # about the line: a slope is not scatter
        noise = float(np.mean(s))
        if r2 < _MIN_LINEAR_R2 and scatter > 3.0 * noise:
            raise NonLinearityError(
                f"gamma_{order}(tau) fit R^2 = {r2:.4f} < {_MIN_LINEAR_R2}; "
                "tau grid is not in the asymptotic linear regime"
            )
        batch_slopes = np.array([
            _weighted_line_fit(tau, batch_gammas[b, :, order], weights)[1]
            for b in range(n_batches)
        ])
        sign = 1.0 if order % 2 else -1.0
        estimates.append(
            EstimateWithError(
                mean=sign * slope,
                std_error=float(batch_error(batch_slopes)),
                autocorr_time=0.0,
                effective_samples=float(n_batches),
                fit={"tau_grid": tau, "slope": slope, "intercept": intercept, "r2": r2},
            )
        )
    return estimates


# ---------------------------------------------------------------------------
# merging across workers


def merge_estimates(estimates: list[EstimateWithError]) -> EstimateWithError:
    """Equal-weight merge of independent chains' estimates of one quantity.

    The mean is the plain mean of the chain means and the error
    sqrt(sum sigma_i^2)/n, which assumes chains of equal length, as cli
    builds them; inverse-variance weights would bias the mean, because a
    chain's error bar correlates with its estimate.  autocorr_time is the
    chains' mean and effective_samples their sum.  Exact estimates
    (std_error 0) merge by the same formula.
    """
    if not estimates:
        raise ValueError("nothing to merge")
    if len(estimates) == 1:
        return estimates[0]
    return EstimateWithError(
        mean=float(np.mean([e.mean for e in estimates])),
        std_error=math.sqrt(sum(e.std_error**2 for e in estimates)) / len(estimates),
        autocorr_time=float(np.mean([e.autocorr_time for e in estimates])),
        effective_samples=float(sum(e.effective_samples for e in estimates)),
    )
