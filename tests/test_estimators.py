"""Series statistics: blocking, autocorrelation, action moments, cumulants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocking_reference
import exact_chain
from sptqmc.estimators import (
    ActionMoments,
    EstimateWithError,
    LocalEnergySeries,
    NonLinearityError,
    SeriesTooShortError,
    WindowSelectionError,
    _integrated_autocorr_steps,
    _next_fast_len,
    action_moments,
    autocorrelation_integral,
    autocovariance,
    batch_error,
    blocked_estimate,
    blocking_error,
    blocking_levels,
    gamma_from_lambdas,
    merge_estimates,
    stochastic_epsilons,
    vmc_estimate,
)
from sptqmc.rqmc import _blocking_ratio_tau
from sptqmc.walker import GaussianTrial, HarmonicPotential, derive_rng, sample_local_energy_series

ALPHA = 1.2
VMC_TARGET = (1 + ALPHA**2) / (4 * ALPHA)
EPS2_TARGET = -((1 - ALPHA**2) ** 2) / (16 * ALPHA**3)


def ar1_series(n: int, decay: float, seed: int, step: float = 0.01) -> LocalEnergySeries:
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n)
    values = np.empty(n)
    values[0] = noise[0] / math.sqrt(1 - decay**2)
    for i in range(1, n):
        values[i] = decay * values[i - 1] + noise[i]
    return LocalEnergySeries(values=values, step=step, burn_in=0)


@pytest.fixture(scope="module")
def harmonic_run() -> LocalEnergySeries:
    trial = GaussianTrial(alpha=ALPHA)
    return sample_local_energy_series(
        trial,
        HarmonicPotential(),
        epsilon=0.005,
        steps=2_000_000,
        burn_in=20_000,
        seed=2024,
    )


class TestLocalEnergySeries:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LocalEnergySeries(values=np.array([1.0, np.nan]), step=0.1, burn_in=0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            LocalEnergySeries(values=np.ones(10), step=0.0, burn_in=0)

    def test_rejects_burn_in_consuming_everything(self):
        with pytest.raises(ValueError):
            LocalEnergySeries(values=np.ones(10), step=0.1, burn_in=10)

    def test_analysis_slice(self):
        s = LocalEnergySeries(values=np.arange(10.0), step=0.5, burn_in=3)
        assert np.array_equal(s.analysis_values, np.arange(3.0, 10.0))


class TestVmcEstimate:
    def test_constant_series(self):
        s = LocalEnergySeries(values=np.full(5000, 0.5), step=0.01, burn_in=0)
        est = vmc_estimate(s)
        assert est.mean == 0.5
        assert est.std_error == 0.0
        assert est.autocorr_time == 0.0

    def test_iid_error_bar(self):
        rng = np.random.default_rng(5)
        n = 65536
        s = LocalEnergySeries(values=rng.normal(size=n), step=0.01, burn_in=0)
        est = vmc_estimate(s)
        assert est.std_error == pytest.approx(1.0 / math.sqrt(n), rel=0.2)
        assert est.effective_samples <= n

    def test_minimum_length(self):
        s = LocalEnergySeries(values=np.random.default_rng(0).normal(size=900), step=0.01, burn_in=0)
        with pytest.raises(SeriesTooShortError):
            vmc_estimate(s)

    def test_no_plateau_on_trend(self):
        n = 2000
        values = np.linspace(0, 1, n) + 1e-6 * np.random.default_rng(0).normal(size=n)
        s = LocalEnergySeries(values=values, step=0.01, burn_in=0)
        with pytest.raises(SeriesTooShortError):
            vmc_estimate(s)

    def test_ar1_error_matches_autocorrelation_formula(self):
        decay = 0.9
        n = 400_000
        s = ar1_series(n, decay, seed=21)
        est = vmc_estimate(s)
        var = 1.0 / (1 - decay**2)
        # 2 tau_int = (1+decay)/(1-decay) for AR(1)
        sem_theory = math.sqrt(var * (1 + decay) / (1 - decay) / n)
        assert est.std_error == pytest.approx(sem_theory, rel=0.5)
        assert est.mean == pytest.approx(0.0, abs=4 * sem_theory)

    def test_analytic_harmonic_mean(self, harmonic_run):
        est = vmc_estimate(harmonic_run)
        assert abs(est.mean - VMC_TARGET) < 3 * est.std_error

    def test_blocking_levels_shape(self):
        rng = np.random.default_rng(1)
        levels = blocking_levels(rng.normal(size=4096))
        counts = [m for m, _, _ in levels]
        assert counts[0] == 4096
        assert all(b == a // 2 for a, b in zip(counts, counts[1:]))
        assert counts[-1] >= 32
        # for iid data every level estimates the same variance of the mean
        sem2 = [v for _, v, _ in levels]
        assert sem2[0] == pytest.approx(1.0 / 4096, rel=0.1)

    def test_blocking_error_plateau_on_iid(self):
        x = np.random.default_rng(2).normal(size=4096)
        sem2, plateau = blocking_error(x)
        assert plateau
        assert sem2 == pytest.approx(1.0 / 4096, rel=0.2)

    def test_blocking_error_without_plateau_takes_largest_level(self):
        rw = np.cumsum(np.random.default_rng(1).normal(size=5000))
        sem2, plateau = blocking_error(rw)
        assert not plateau
        assert sem2 == max(v for _, v, _ in blocking_levels(rw))
        with pytest.raises(SeriesTooShortError, match="no blocking plateau"):
            vmc_estimate(LocalEnergySeries(values=rw, step=0.01))

    def test_blocking_error_needs_one_level(self):
        with pytest.raises(SeriesTooShortError):
            blocking_error(np.arange(10.0), min_blocks=16)


def _outcome(fn, *args) -> tuple:
    """The estimate's fields as float.hex, or the exception it raised."""
    try:
        est = fn(*args)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)
    return tuple(float(v).hex() for v in (est.mean, est.std_error, est.autocorr_time, est.effective_samples))


def _draw_values(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "walk":  # a random walk; at 16-31 samples its one blocking level has no plateau
        return np.cumsum(rng.normal(size=n))
    decay = rng.uniform(0.0, 0.95)
    return ar1_series(n, decay, seed).values


class TestBlockedEstimate:
    """blocked_estimate under each caller's policy, bit for bit against the code it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["ar1", "constant", "walk"]), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    @example(kind="ar1", n=2, seed=0)
    @example(kind="ar1", n=15, seed=1)  # the last length below 16 blocks
    @example(kind="ar1", n=16, seed=1)
    @example(kind="constant", n=5, seed=2)
    @example(kind="walk", n=20, seed=3)
    @example(kind="walk", n=300, seed=3)
    def test_reptation_policy_matches_reference(self, kind, n, seed):
        values = _draw_values(kind, n, seed)
        expected = _outcome(blocking_reference.rqmc_blocked, values, 1.0)
        assert _outcome(blocked_estimate, values, 16, _blocking_ratio_tau) == expected

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["ar1", "constant", "walk"]), n=st.integers(1000, 4000), seed=st.integers(0, 2**32 - 1))
    def test_vmc_policy_matches_reference(self, kind, n, seed):
        series = LocalEnergySeries(values=_draw_values(kind, n, seed), step=0.01)
        assert _outcome(vmc_estimate, series) == _outcome(blocking_reference.vmc_estimate, series)


class TestAutocorrelationIntegral:
    def test_constant_series_is_zero(self):
        s = LocalEnergySeries(values=np.full(5000, 1.3), step=0.01, burn_in=0)
        est = autocorrelation_integral(s)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_window_failure_on_random_walk(self):
        rw = np.cumsum(np.random.default_rng(1).normal(size=5000))
        s = LocalEnergySeries(values=rw, step=0.01, burn_in=0)
        with pytest.raises((WindowSelectionError, SeriesTooShortError)):
            autocorrelation_integral(s)

    def test_discrete_ar1_closed_form(self):
        # the sampled harmonic-oscillator W series is an exact AR(1)
        # chain whose epsilon_2 integral is known in closed form
        eps = 0.005
        trial = GaussianTrial(alpha=ALPHA)
        s = sample_local_energy_series(
            trial, HarmonicPotential(), epsilon=eps, steps=4_000_000, burn_in=20_000, seed=77
        )
        est = autocorrelation_integral(s)
        c = 1 - eps * ALPHA
        exact = -((1 - ALPHA**2) ** 2) * (1 + c * c) / (
            32 * ALPHA**3 * (1 - eps * ALPHA / 2) ** 3
        )
        assert abs(est.mean - exact) < 3 * est.std_error
        assert est.std_error < 5e-4

    def test_exact_trial_gives_zero(self):
        trial = GaussianTrial(alpha=1.0)
        s = sample_local_energy_series(
            trial, HarmonicPotential(), epsilon=0.005, steps=100_000, seed=3
        )
        est = autocorrelation_integral(s)
        assert est.mean == 0.0

    def test_autocovariance_lag_zero_is_variance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10_000)
        cov = autocovariance(x, 10)
        assert cov[0] == pytest.approx(x.var(), rel=1e-10)

    def test_autocovariance_about_given_mean(self):
        x = np.random.default_rng(5).normal(size=500)
        cov = autocovariance(x, 3, mean=0.25)
        xc = x - 0.25
        direct = [np.dot(xc[: x.size - k], xc[k:]) / x.size for k in range(4)]
        assert np.allclose(cov, direct, rtol=1e-10, atol=0.0)

    def test_integral_reuses_the_window_autocovariance(self):
        s = ar1_series(200_000, 0.9, seed=8)
        x = s.analysis_values
        _, kstar, c = _integrated_autocorr_steps(x)
        assert np.array_equal(c[: kstar + 1], autocovariance(x, kstar))
        own = autocovariance(x, kstar)
        expected = float(-s.step * (0.5 * own[0] + np.sum(own[1:])))
        assert autocorrelation_integral(s).mean == expected


class TestFftBackend:
    """numpy.fft with an 11-smooth length, against the scipy.fft path it replaced."""

    def test_next_fast_len_matches_scipy(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        for target in range(1, 20_001):
            assert _next_fast_len(target) == scipy_fft.next_fast_len(target), target

    def test_autocovariance_bitwise_equal_to_scipy_at_walk_length(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        n = 2_000_000
        x = np.random.default_rng(11).normal(size=n)
        xc = x - x.mean()
        m = scipy_fft.next_fast_len(2 * n)
        f = scipy_fft.rfft(xc, m)
        reference = scipy_fft.irfft(f * np.conj(f), m)[: n // 4 + 1] / n
        assert np.array_equal(autocovariance(x, n // 4), reference)

    # spectra of 16 KB and 800 KB, on both sides of the 256 KiB above which numpy
    # computes f * np.conj(f) into the conj temporary, as np.conj(f) * f
    @pytest.mark.parametrize("n", [1_000, 50_000])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_autocovariance_bitwise_equal_to_written_out_product(self, n, pooled):
        x = np.random.default_rng(n).normal(size=n)
        mean = 0.25 if pooled else None
        xc = x - (x.mean() if mean is None else mean)
        m = _next_fast_len(2 * n)
        f = np.fft.rfft(xc, m)
        reference = np.fft.irfft(f * np.conj(f), m)[: n // 4 + 1] / n
        assert np.array_equal(autocovariance(x, n // 4, mean=mean), reference)

    def test_autocovariance_frees_its_temporaries(self):
        # the centred copy goes before the product, the raw spectrum before irfft;
        # holding both to the end peaked at 7.04 x 8n bytes
        n = 400_000
        x = np.random.default_rng(5).normal(size=n)
        tracemalloc.start()
        try:
            autocovariance(x, n // 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 8 * n


class TestBatchError:
    """batch_error is bitwise the spread / sqrt(batches) that each estimator spelled out before it."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_replaced_expressions(self, seed):
        rng = np.random.default_rng(seed)
        values = [float(v) for v in rng.normal(size=16)]  # autocorrelation_integral's list of batch integrals
        assert batch_error(values) == np.std(values, ddof=1) / math.sqrt(16)
        per_batch = rng.normal(size=16)  # one moment's batches in action_moments, the batch slopes
        assert batch_error(per_batch) == per_batch.std(ddof=1) / math.sqrt(16)
        stack = rng.normal(size=(16, 8, 4))  # stochastic_epsilons' batch gammas, (batches, grid, order + 1)
        assert np.array_equal(batch_error(stack), stack.std(axis=0, ddof=1) / math.sqrt(16))


class TestActionMoments:
    def test_constant_action_exact(self):
        c, eps = 0.5, 0.25
        s = LocalEnergySeries(values=np.full(6000, c), step=eps, burn_in=0)
        grid = [2.0, 4.0, 6.0, 8.0]
        moments = action_moments(s, grid, 3)
        for i, tau in enumerate(grid):
            assert moments.lam[i, 0] == 1.0
            assert moments.lam[i, 1] == pytest.approx(c * tau, rel=1e-14)
            assert moments.lam[i, 2] == pytest.approx((c * tau) ** 2 / 2, rel=1e-14)
            assert moments.lam[i, 3] == pytest.approx((c * tau) ** 3 / 6, rel=1e-14)
        assert np.all(moments.errors[:, 1:] == 0.0)

    def test_lambda1_matches_mean(self, harmonic_run):
        tau_grid = [2.0, 3.0, 4.0, 5.0]
        moments = action_moments(harmonic_run, tau_grid, 2)
        mean_w = harmonic_run.analysis_values.mean()
        for i, tau in enumerate(tau_grid):
            pull = abs(moments.lam[i, 1] - mean_w * tau)
            assert pull < 4 * max(moments.errors[i, 1], 1e-12)

    def test_grid_validation(self):
        s = LocalEnergySeries(values=np.ones(1000), step=0.01, burn_in=0)
        with pytest.raises(ValueError):
            action_moments(s, [1.0, 1.0], 2)  # not strictly increasing
        with pytest.raises(ValueError):
            action_moments(s, [5.0, 100.0], 2)  # exceeds duration
        with pytest.raises(ValueError):
            action_moments(s, [0.0001, 1.0], 2)  # collapses to zero steps

    def test_max_order_guard(self):
        s = LocalEnergySeries(values=np.ones(1000), step=0.01, burn_in=0)
        with pytest.raises(ValueError):
            action_moments(s, [1.0, 2.0], 0)

    def test_order_and_collapse_are_told_apart(self):
        s = LocalEnergySeries(values=np.ones(1000), step=0.01, burn_in=0)
        for grid in ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.2, 0.3]):
            with pytest.raises(ValueError, match="strictly increasing"):
                action_moments(s, grid, 2)
        with pytest.raises(ValueError, match="collapses after snapping"):
            action_moments(s, [0.1, 0.101, 0.2, 0.3], 2)  # 0.1 and 0.101 both snap to 10 steps


class TestGammaRecursion:
    def test_gaussian_action_cumulants(self):
        # exact Gaussian moments in, cumulant ladder out
        m, s2 = 0.7, 0.35
        mu = np.array(
            [
                1.0,
                m,
                m**2 + s2,
                m**3 + 3 * m * s2,
                m**4 + 6 * m**2 * s2 + 3 * s2**2,
            ]
        )
        lam = mu / np.array([1.0, 1.0, 2.0, 6.0, 24.0])
        gamma = gamma_from_lambdas(lam)
        assert gamma[1] == pytest.approx(m, rel=1e-12)
        assert gamma[2] == pytest.approx(s2 / 2, rel=1e-12)
        assert gamma[3] == pytest.approx(0.0, abs=1e-12)
        assert gamma[4] == pytest.approx(0.0, abs=1e-12)

    def test_moment_cumulant_round_trip_on_data(self):
        rng = np.random.default_rng(99)
        n_batches, per_batch = 16, 20_000
        samples = rng.normal(1.1, 0.6, size=(n_batches, per_batch))
        powers = np.stack([samples**k for k in range(5)], axis=-1)
        lam_batches = powers.mean(axis=1) / np.array([1.0, 1.0, 2.0, 6.0, 24.0])
        gammas = np.array([gamma_from_lambdas(row) for row in lam_batches])
        k3 = 6.0 * gammas[:, 3]
        k4 = 24.0 * gammas[:, 4]
        for k in (k3, k4):
            sem = k.std(ddof=1) / math.sqrt(n_batches)
            assert abs(k.mean()) < 3 * sem

    def test_vectorized_over_grid(self):
        lam = np.array([[1.0, 1.0, 0.5], [1.0, 2.0, 2.0]])
        gamma = gamma_from_lambdas(lam)
        assert gamma.shape == lam.shape
        assert gamma[0, 2] == pytest.approx(0.5 - 0.5 * 1.0 * 1.0)
        assert gamma[1, 2] == pytest.approx(2.0 - 0.5 * 2.0 * 2.0)


class TestStochasticEpsilons:
    def test_constant_series(self):
        c, eps = 0.5, 0.25
        s = LocalEnergySeries(values=np.full(6000, c), step=eps, burn_in=0)
        moments = action_moments(s, [2.0, 4.0, 6.0, 8.0], 3)
        orders = stochastic_epsilons(moments)
        assert orders[0].mean == 0.5
        assert orders[0].std_error == 0.0
        assert orders[1].mean == 0.0
        assert orders[2].mean == 0.0

    def test_order1_matches_vmc(self, harmonic_run):
        est = vmc_estimate(harmonic_run)
        tau_w = est.autocorr_time
        grid = np.linspace(10 * tau_w, 40 * tau_w, 8)
        moments = action_moments(harmonic_run, grid, 2)
        orders = stochastic_epsilons(moments)
        combined = math.hypot(orders[0].std_error, est.std_error)
        assert abs(orders[0].mean - est.mean) < 3 * combined

    def test_order2_matches_integral(self, harmonic_run):
        integral = autocorrelation_integral(harmonic_run)
        tau_w = integral.autocorr_time
        grid = np.linspace(10 * tau_w, 40 * tau_w, 8)
        moments = action_moments(harmonic_run, grid, 2)
        orders = stochastic_epsilons(moments)
        combined = math.hypot(orders[1].std_error, integral.std_error)
        assert abs(orders[1].mean - integral.mean) < 3 * combined
        assert abs(orders[1].mean - EPS2_TARGET) < 3 * orders[1].std_error

    def test_lower_order_is_a_truncation(self, harmonic_run):
        # a moment of order n depends on no higher order, so fitting every order the moments hold drops no choice
        grid = np.linspace(4.0, 16.0, 6)  # gamma_3 stays linear here, so the order-3 fit raises nothing
        low, high = action_moments(harmonic_run, grid, 2), action_moments(harmonic_run, grid, 3)
        assert np.array_equal(low.lam, high.lam[:, :3])
        assert np.array_equal(low.errors, high.errors[:, :3])
        assert np.array_equal(low.batch_lambdas, high.batch_lambdas[:, :, :3])
        low_orders, high_orders = stochastic_epsilons(low), stochastic_epsilons(high)
        assert (len(low_orders), len(high_orders)) == (2, 3)
        for a, b in zip(low_orders, high_orders):
            assert (a.mean, a.std_error) == (b.mean, b.std_error)
            assert np.array_equal(a.fit["tau_grid"], b.fit["tau_grid"])
            assert [a.fit[k] for k in ("slope", "intercept", "r2")] == [b.fit[k] for k in ("slope", "intercept", "r2")]

    def test_high_order_gate(self, harmonic_run):
        grid = [1.0, 2.0, 3.0, 4.0]
        moments = action_moments(harmonic_run, grid, 4)
        with pytest.raises(ValueError, match="allow_high_orders"):
            stochastic_epsilons(moments)
        orders = stochastic_epsilons(moments, allow_high_orders=True)
        assert len(orders) == 4

    def test_nonlinearity_detection(self):
        # gamma_2 deliberately quadratic in tau with tiny scatter
        tau = np.array([1.0, 2.0, 3.0, 4.0])
        lam1 = 0.5 * tau
        gamma2 = 0.2 * tau**2
        lam2 = gamma2 + 0.5 * lam1**2
        lam = np.stack([np.ones_like(tau), lam1, lam2], axis=-1)
        rng = np.random.default_rng(11)
        batches = lam[None, :, :] * (1.0 + 1e-6 * rng.normal(size=(16, 4, 3)))
        moments = ActionMoments(
            tau_grid=tau,
            lam=lam,
            errors=np.abs(lam) * 1e-6,
            batch_lambdas=batches,
            step=0.01,
        )
        with pytest.raises(NonLinearityError):
            stochastic_epsilons(moments)

    def test_noisy_linear_gamma_is_not_refused(self):
        # gamma_1 on a line of slope 0.1, scattered about it at the batch noise: R^2 < 0.99, yet linear
        tau = np.arange(1.0, 9.0)
        lam1 = 0.1 * tau + 0.04 * (-1.0) ** np.arange(8)
        offsets = np.random.default_rng(3).normal(size=(16, 8))
        offsets -= offsets.mean(axis=0)
        offsets *= 0.2 / offsets.std(axis=0, ddof=1)  # a batch error of 0.05 at every point
        lam = np.stack([np.ones_like(tau), lam1], axis=-1)
        batches = np.stack([np.ones((16, 8)), lam1 + offsets], axis=-1)
        moments = ActionMoments(tau_grid=tau, lam=lam, errors=np.zeros_like(lam), batch_lambdas=batches, step=0.01)
        (order1,) = stochastic_epsilons(moments)
        assert order1.fit["r2"] < 0.99
        assert abs(order1.mean - 0.1) < 3 * order1.std_error

    def test_grid_size_guard(self):
        s = LocalEnergySeries(values=np.full(6000, 0.5), step=0.25, burn_in=0)
        moments = action_moments(s, [2.0, 4.0, 6.0], 2)
        with pytest.raises(ValueError):
            stochastic_epsilons(moments)

    def test_diagnostics_payload(self, harmonic_run):
        grid = np.linspace(4.0, 16.0, 6)
        moments = action_moments(harmonic_run, grid, 2)
        orders = stochastic_epsilons(moments)
        assert len(orders) == 2
        for order, est in enumerate(orders, start=1):
            assert set(est.fit) == {"tau_grid", "slope", "intercept", "r2"}
            assert est.fit["tau_grid"] is moments.tau_grid
            assert est.mean == (-1) ** (order + 1) * est.fit["slope"]
        assert orders[0].fit["r2"] > 0.99
        # the fit rides along without taking part in equality
        plain = EstimateWithError(orders[0].mean, orders[0].std_error, orders[0].autocorr_time, orders[0].effective_samples)
        assert plain == orders[0] and plain.fit == {}


class TestMergeEstimates:
    def test_equal_weights(self):
        a = EstimateWithError(mean=1.0, std_error=0.1, autocorr_time=1.0, effective_samples=100)
        b = EstimateWithError(mean=2.0, std_error=0.2, autocorr_time=3.0, effective_samples=100)
        merged = merge_estimates([a, b])
        assert merged.mean == pytest.approx(1.5)
        assert merged.std_error == pytest.approx(math.sqrt(0.1**2 + 0.2**2) / 2)
        assert merged.autocorr_time == pytest.approx(2.0)
        assert merged.effective_samples == pytest.approx(200)

    def test_exact_members(self):
        a = EstimateWithError(mean=0.5, std_error=0.0, autocorr_time=0.0, effective_samples=10)
        b = EstimateWithError(mean=0.5, std_error=0.0, autocorr_time=0.0, effective_samples=10)
        merged = merge_estimates([a, b])
        assert merged.mean == 0.5
        assert merged.std_error == 0.0

    def test_mixed_exact_and_inexact_merge(self):
        # an exact chain is one more member of the same equal-weight formula
        exact = EstimateWithError(mean=0.5, std_error=0.0, autocorr_time=0.0, effective_samples=10)
        inexact = EstimateWithError(mean=0.4, std_error=0.1, autocorr_time=1.0, effective_samples=10)
        for mixed in ([exact, inexact], [inexact, exact, exact]):
            merged = merge_estimates(mixed)
            n = len(mixed)
            assert merged.mean == pytest.approx(sum(e.mean for e in mixed) / n)
            assert merged.std_error == pytest.approx(0.1 / n)
            assert merged.autocorr_time == pytest.approx(1.0 / n)
            assert merged.effective_samples == 10 * n

    def test_single_estimate_passthrough(self):
        a = EstimateWithError(mean=0.3, std_error=0.05, autocorr_time=2.0, effective_samples=50)
        merged = merge_estimates([a])
        assert merged.mean == a.mean
        assert merged.std_error == a.std_error

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_estimates([])


MERGE_REPLICAS = 400
MERGE_CHAINS = 4


@pytest.fixture(scope="module")
def merged_vmc_pulls() -> tuple[np.ndarray, np.ndarray]:
    """Pulls against the closed-form <W>: of each replica's merge of 4 chains, and of every chain alone."""
    alpha, eps = 1.2, 0.05
    target = exact_chain.mean_w(alpha, eps)
    trial, potential = GaussianTrial(alpha=alpha), HarmonicPotential()
    merged, single = [], []
    for replica in range(MERGE_REPLICAS):
        chains = [
            vmc_estimate(sample_local_energy_series(
                trial, potential, epsilon=eps, steps=10_000, burn_in=1_000,
                rng=derive_rng(replica, "merge-coverage", chain),
            ))
            for chain in range(MERGE_CHAINS)
        ]
        single += [(c.mean - target) / c.std_error for c in chains]
        m = merge_estimates(chains)
        merged.append((m.mean - target) / m.std_error)
    return np.array(merged), np.array(single)


class TestExactChain:
    def test_closed_forms_agree(self):
        alpha, eps = 1.2, 0.05
        c = [exact_chain.autocovariance(alpha, eps, k) for k in range(2000)]  # phi^4000 is below 1e-100
        assert exact_chain.epsilon_2(alpha, eps) == pytest.approx(-eps * (c[0] / 2 + sum(c[1:])), rel=1e-12)
        assert exact_chain.epsilon_2(alpha, 1e-9) == pytest.approx(EPS2_TARGET, rel=1e-6)
        assert exact_chain.mean_w(alpha, 1e-9) == pytest.approx(VMC_TARGET, rel=1e-6)

    def test_merged_mean_is_unbiased(self, merged_vmc_pulls):
        # inverse-variance weights give +0.32 on these chains: a chain's error bar correlates with its mean
        merged, _ = merged_vmc_pulls
        assert abs(merged.mean()) < 3 / math.sqrt(MERGE_REPLICAS)

    @pytest.mark.xfail(strict=True, reason=(
        "at 10,000 steps (about 1,240 tau_int) blocking_error stops at 64-sample blocks: "
        "the bars are ~7% short, sd(z) 1.15 and 92% of |z| < 2"
    ))
    def test_single_chain_pulls_are_honest(self, merged_vmc_pulls):
        _, single = merged_vmc_pulls
        n = single.size
        inside = 0.9545  # P(|z| < 2) of a unit normal
        assert abs(np.mean(np.abs(single) < 2) - inside) < 3 * math.sqrt(inside * (1 - inside) / n)
        assert abs(np.std(single, ddof=1) - 1) < 3 / math.sqrt(2 * (n - 1))
