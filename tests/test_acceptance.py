"""Acceptance gate: one numbered end-to-end check per shipped guarantee.

Each test enforces its stated tolerance and prints a single
`criterion NN PASS ...` line with the measured numbers; run with
`pytest tests/test_acceptance.py -v -s` to see them alongside the
pass/fail verdicts.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import sqrt as msqrt
from mpmath import taylor as mtaylor

from sptqmc import (
    GaussianTrial,
    HarmonicPotential,
    QuarticPotential,
    SpectralModel,
    action_moments,
    autocorrelation_integral,
    cli,
    epsilon_series,
    evaluate_epsilons,
    extrapolate_linear,
    laurent_oracle,
    run_reptation,
    sample_local_energy_series,
    stochastic_epsilons,
    taylor_oracle,
    vmc_estimate,
)
from sptqmc.rqmc import acceptance_probability, link_action
from sptqmc.spectral import build_anharmonic_model, evaluate_lambdas, ground_state_energy, random_model
from sptqmc.symexpr import g

ALPHA = 1.2

F = Fraction


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS {detail}")


# ---------------------------------------------------------------------------
# shared long-run fixtures (criteria 6-8)


@pytest.fixture(scope="module")
def calibration_series():
    """2M-step local-energy chain at alpha = 1.2, with its generation time."""
    start = time.perf_counter()
    series = sample_local_energy_series(
        GaussianTrial(ALPHA),
        HarmonicPotential(),
        epsilon=0.005,
        steps=2_000_000,
        burn_in=20_000,
        seed=2024,
    )
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def cumulant_fits(calibration_series):
    """Autocovariance integral plus the tau-slope fits on the same chain."""
    series, _ = calibration_series
    integral = autocorrelation_integral(series)
    tau_w = integral.autocorr_time
    grid = np.linspace(10.0 * tau_w, 40.0 * tau_w, 8)
    moments = action_moments(series, grid, 2)
    orders, diag = stochastic_epsilons(moments, 2, return_diagnostics=True)
    return integral, orders, diag


# ---------------------------------------------------------------------------
# 1. symbolic goldens


def _golden_epsilons() -> dict:
    """First six corrections written out monomial by monomial."""
    e1 = g(1)
    e2 = -g(2)
    e3 = g(3) + g(1) * g(2, 1)
    e4 = -g(4) - g(1) * g(3, 1) - g(2) * g(2, 1) - F(1, 2) * g(1) ** 2 * g(2, 2)
    e5 = (
        g(5)
        + g(1) * g(4, 1)
        + g(2) * g(3, 1)
        + g(2, 1) * g(3)
        + g(1) * g(2) * g(2, 2)
        + g(1) * g(2, 1) ** 2
        + F(1, 2) * g(1) ** 2 * g(3, 2)
        + F(1, 6) * g(1) ** 3 * g(2, 3)
    )
    e6 = (
        -g(6)
        - g(1) * g(5, 1)
        - g(2) * g(4, 1)
        - g(2, 1) * g(4)
        - g(3) * g(3, 1)
        - g(1) * g(2) * g(3, 2)
        - 2 * g(1) * g(2, 1) * g(3, 1)
        - g(1) * g(2, 2) * g(3)
        - F(1, 2) * g(1) ** 2 * g(4, 2)
        - g(2) * g(2, 1) ** 2
        - F(1, 2) * g(2) ** 2 * g(2, 2)
        - F(1, 2) * g(1) ** 2 * g(2) * g(2, 3)
        - F(3, 2) * g(1) ** 2 * g(2, 1) * g(2, 2)
        - F(1, 6) * g(1) ** 3 * g(3, 3)
        - F(1, 24) * g(1) ** 4 * g(2, 4)
    )
    return {1: e1, 2: e2, 3: e3, 4: e4, 5: e5, 6: e6}


def test_criterion_01_symbolic_goldens():
    start = time.perf_counter()
    series = epsilon_series(6)
    elapsed_6 = time.perf_counter() - start
    golden = _golden_epsilons()
    for n in range(1, 7):
        assert series[n].epsilon == golden[n], f"order {n} disagrees"
    assert elapsed_6 < 10.0

    start = time.perf_counter()
    series_8 = epsilon_series(8)
    elapsed_8 = time.perf_counter() - start
    assert sorted(series_8) == list(range(1, 9))
    assert elapsed_8 < 60.0
    _report(
        1,
        f"orders 1..6 match the goldens monomial by monomial "
        f"({elapsed_6:.2f} s); order 8 generated in {elapsed_8:.2f} s",
    )


# ---------------------------------------------------------------------------
# 2. oracle equivalence on random models


def test_criterion_02_random_model_oracle_sweep():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model = random_model(seed)
        values = evaluate_epsilons(model, 6)
        oracle = taylor_oracle(model, 6)
        for n in range(1, 7):
            scale = max(abs(oracle[n]), 1e-10)
            worst = max(worst, abs(float(values[n - 1]) - oracle[n]) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 120.0
    _report(
        2,
        f"20 random 8x8 models, orders 1..6: worst relative deviation "
        f"{worst:.2e} <= 1e-6 ({elapsed:.1f} s)",
    )


# ---------------------------------------------------------------------------
# 3. two-level closed form


def test_criterion_03_two_level_closed_form():
    model = SpectralModel(
        energies=np.array([0.0, 1.0]),
        wmat=np.array([[0.0, 0.1], [0.1, 0.0]]),
    )
    values = evaluate_epsilons(model, 6)
    assert abs(values[0]) < 1e-12
    assert abs(values[1] + 0.01) < 1e-12
    with mp.workdps(30):
        b = mpf("0.1")
        coeffs = mtaylor(
            lambda lam: mpf("0.5") - msqrt(mpf("0.25") + lam**2 * b**2), 0, 6
        )
        exact_sum = float(sum(coeffs[1:7]))
    total = float(values.sum())
    assert abs(total - exact_sum) < 1e-12
    _report(
        3,
        f"epsilon_1 = 0, epsilon_2 = -0.01, partial sum {total:.12f} matches "
        f"the eigenvalue expansion to {abs(total - exact_sum):.1e}",
    )


# ---------------------------------------------------------------------------
# 4. Laurent-coefficient cross-check


def test_criterion_04_laurent_cross_check():
    two_level = SpectralModel(
        energies=np.array([0.0, 1.3]),
        wmat=np.array([[0.2, 0.45], [0.45, -0.7]]),
    )
    three_level = SpectralModel(
        energies=np.array([0.0, 1.0, 2.3]),
        wmat=np.array(
            [
                [0.15, 0.30, -0.20],
                [0.30, -0.10, 0.25],
                [-0.20, 0.25, 0.05],
            ]
        ),
    )
    worst = 0.0
    for model in (two_level, three_level):
        for n in range(1, 6):
            symbolic = evaluate_lambdas(model, n)
            numeric = laurent_oracle(model, n)
            for sym, num in zip(symbolic, numeric):
                # absolute floor covers structural zeros (fit dust ~1e-17)
                assert abs(sym - num) <= max(1e-8 * abs(num), 1e-12), (
                    f"n = {n}: {sym!r} vs oracle {num!r}"
                )
                if abs(num) > 1e-10:
                    worst = max(worst, abs(sym - num) / abs(num))
    _report(
        4,
        f"lambda and lambda-dot agree with the Laurent fit to {worst:.2e} "
        f"relative for n <= 5 on 2- and 3-level models",
    )


# ---------------------------------------------------------------------------
# 5. zero variance with the exact trial


def test_criterion_05_zero_variance():
    trial = GaussianTrial(1.0)
    potential = HarmonicPotential()
    series = sample_local_energy_series(
        trial, potential, epsilon=0.01, steps=100_000, seed=7
    )
    deviation = float(np.max(np.abs(series.values - 0.5)))
    assert deviation < 1e-12
    estimate = vmc_estimate(series)
    assert estimate.std_error == 0.0

    result = run_reptation(
        trial,
        potential,
        n_beads=50,
        epsilon=0.05,
        sweeps=200,
        seed=5,
        burn_in_sweeps=20,
    )
    assert result.acceptance_rate == 1.0
    assert result.energy.mean == 0.5
    assert result.energy.std_error == 0.0
    _report(
        5,
        f"alpha = 1: max |W - 1/2| = {deviation:.1e}, VMC error 0, "
        f"reptation accepts everything and returns exactly 1/2",
    )


# ---------------------------------------------------------------------------
# 6. VMC mean and variance against the analytic values


def test_criterion_06_vmc_mean_and_variance(calibration_series):
    series, generation_seconds = calibration_series
    start = time.perf_counter()
    estimate = vmc_estimate(series)
    elapsed = generation_seconds + time.perf_counter() - start

    target = (1.0 + ALPHA**2) / (4.0 * ALPHA)
    pull = (estimate.mean - target) / estimate.std_error
    assert abs(pull) < 3.0

    total_time = series.analysis_values.size * series.step
    sigma_pred = math.sqrt((1.0 - ALPHA**2) ** 2 / (8.0 * ALPHA**3 * total_time))
    ratio = estimate.std_error / sigma_pred
    assert 1.0 / 1.5 < ratio < 1.5
    assert elapsed < 60.0
    _report(
        6,
        f"mean {estimate.mean:.6f} is {pull:+.2f} sigma from {target:.6f}; "
        f"error bar is {ratio:.3f}x the spectral prediction ({elapsed:.1f} s)",
    )


# ---------------------------------------------------------------------------
# 7. second-order correction, two independent estimators


def test_criterion_07_second_order_two_ways(cumulant_fits):
    integral, orders, _ = cumulant_fits
    target = -((1.0 - ALPHA**2) ** 2) / (16.0 * ALPHA**3)

    pull_integral = (integral.mean - target) / integral.std_error
    pull_slope = (orders[1].mean - target) / orders[1].std_error
    cross = (integral.mean - orders[1].mean) / math.hypot(
        integral.std_error, orders[1].std_error
    )
    assert abs(pull_integral) < 3.0
    assert abs(pull_slope) < 3.0
    assert abs(cross) < 3.0
    _report(
        7,
        f"autocovariance integral {integral.mean:.6f} ({pull_integral:+.2f} sigma) "
        f"and cumulant slope {orders[1].mean:.6f} ({pull_slope:+.2f} sigma) both "
        f"hit {target:.7f}; mutual pull {cross:+.2f} sigma",
    )


# ---------------------------------------------------------------------------
# 8. cumulant growth is linear in the fit window


def test_criterion_08_cumulant_linearity(cumulant_fits):
    integral, _, diag = cumulant_fits
    r2 = diag["r2"][1]
    assert r2 >= 0.99
    _report(
        8,
        f"gamma_2(tau) over [10, 40] tau_W (tau_W = {integral.autocorr_time:.3f}): "
        f"R^2 = {r2:.5f} >= 0.99",
    )


# ---------------------------------------------------------------------------
# 9. reptation end to end with step extrapolation


def _extrapolated_energy(trial, potential, seed_fine, seed_coarse):
    # matched path length tau ~ 6 at both resolutions
    coarse = run_reptation(
        trial,
        potential,
        n_beads=120,
        epsilon=0.05,
        sweeps=2500,
        seed=seed_coarse,
        burn_in_sweeps=150,
    )
    fine = run_reptation(
        trial,
        potential,
        n_beads=240,
        epsilon=0.025,
        sweeps=2500,
        seed=seed_fine,
        burn_in_sweeps=150,
    )
    return extrapolate_linear(coarse.energy, fine.energy)


def test_criterion_09_rqmc_harmonic():
    start = time.perf_counter()
    estimate = _extrapolated_energy(
        GaussianTrial(ALPHA), HarmonicPotential(), seed_fine=61, seed_coarse=62
    )
    elapsed = time.perf_counter() - start
    pull = (estimate.mean - 0.5) / estimate.std_error
    assert abs(pull) < 3.0
    assert elapsed < 300.0
    _report(
        9,
        f"harmonic: extrapolated E_0 = {estimate.mean:.5f} +- "
        f"{estimate.std_error:.5f}, {pull:+.2f} sigma from 1/2 ({elapsed:.0f} s)",
    )


def test_criterion_09_rqmc_quartic():
    start = time.perf_counter()
    reference = 0.5 + ground_state_energy(build_anharmonic_model(60, 0.1))
    # variational alpha for the quartic coupling 0.1: root of a^3 - a = 0.6
    estimate = _extrapolated_energy(
        GaussianTrial(1.22), QuarticPotential(0.1), seed_fine=45, seed_coarse=46
    )
    elapsed = time.perf_counter() - start
    pull = (estimate.mean - reference) / estimate.std_error
    assert abs(pull) < 3.0
    assert elapsed < 300.0
    _report(
        9,
        f"quartic: extrapolated E_0 = {estimate.mean:.5f} +- "
        f"{estimate.std_error:.5f}, {pull:+.2f} sigma from the 60-state "
        f"diagonalization {reference:.7f} ({elapsed:.0f} s)",
    )


# ---------------------------------------------------------------------------
# 10. stationary distribution of the move kernel on a finite toy


def test_criterion_10_toy_stationary_distribution():
    w_table = np.array([0.3, -0.1, 0.5, 0.2, -0.4])
    epsilon = 0.7
    n_sites = 5
    states = list(itertools.product(range(n_sites), repeat=3))
    index = {s: i for i, s in enumerate(states)}

    def link(a, b):
        return link_action(epsilon, w_table[a], w_table[b])

    weights = np.array(
        [math.exp(-(link(a, b) + link(b, c))) for a, b, c in states]
    )
    target = weights / weights.sum()

    # one reptation move: fair direction coin, uniform site proposal
    kernel = np.zeros((len(states), len(states)))
    flat = 0.5 / n_sites
    for a, b, c in states:
        i = index[(a, b, c)]
        for y in range(n_sites):
            acc = acceptance_probability(link(c, y) - link(a, b))
            kernel[i, index[(b, c, y)]] += flat * acc
            kernel[i, i] += flat * (1.0 - acc)
            acc = acceptance_probability(link(y, a) - link(b, c))
            kernel[i, index[(y, a, b)]] += flat * acc
            kernel[i, i] += flat * (1.0 - acc)

    dist = np.full(len(states), 1.0 / len(states))
    for _ in range(5000):
        dist = dist @ kernel
    tv = 0.5 * float(np.abs(dist - target).sum())
    assert tv < 1e-6
    _report(
        10,
        f"125-state toy: kernel stationary distribution within "
        f"TV = {tv:.1e} of exp(-S)/Z",
    )


# ---------------------------------------------------------------------------
# 11. deterministic reports


def test_criterion_11_deterministic_reports(tmp_path, monkeypatch):
    monkeypatch.delenv("SPT_SEED", raising=False)
    model_path = tmp_path / "model.txt"
    model_path.write_text(
        "energies = [0.0, 1.0]\nwmat = [[0.0, 0.1], [0.1, 0.0]]\n"
    )
    vmc_cfg = tmp_path / "vmc.cfg"
    vmc_cfg.write_text("alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\n")
    orders_cfg = tmp_path / "orders.cfg"
    orders_cfg.write_text(
        "alpha = 1.2\nepsilon = 0.05\nsteps = 60000\nburn_in = 500\nmax_order = 2\n"
    )
    rqmc_cfg = tmp_path / "rqmc.cfg"
    rqmc_cfg.write_text(
        "alpha = 1.2\nepsilon = 0.05\nn_beads = 50\nsweeps = 40\n"
        "burn_in_sweeps = 5\nequilibration_steps = 200\n"
    )
    commands = {
        "symbolic": ["symbolic", "--order", "5"],
        "spectral": ["spectral", "--model", str(model_path), "--order", "4", "--oracle"],
        "vmc": ["vmc", "--config", str(vmc_cfg)],
        "spt-orders": ["spt-orders", "--config", str(orders_cfg)],
        "rqmc": ["rqmc", "--config", str(rqmc_cfg)],
    }
    for name, argv in commands.items():
        reports = []
        for attempt in range(2):
            out_path = tmp_path / f"{name}-{attempt}.json"
            code = cli.main([*argv, "--seed", "42", "--output", str(out_path)])
            assert code == 0, f"{name} exited {code}"
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1], f"{name} report differs between runs"
    _report(
        11,
        "all five subcommands at seed 42, one worker: byte-identical reports",
    )
