"""Reptation sampler: move kernel, estimators, and the small-instance oracle."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sptqmc import walker
from sptqmc import (
    DoubleWellPotential,
    EstimateWithError,
    GaussianTrial,
    HarmonicPotential,
    QuarticPotential,
    SeriesTooShortError,
    action_moments,
    extrapolate_linear,
    run_reptation,
    sample_local_energy_series,
    vmc_estimate,
)
from sptqmc.rqmc import (
    ReptationSampler,
    Reptile,
    acceptance_probability,
    _blocked,
    adaptive_burn_in,
    init_reptile,
    link_action,
)
from sptqmc.walker import derive_rng, drift, local_energy
from walker_reference import init_walker, langevin_step, wrap_generic

ALPHA = 1.2

# Pinned after the first validated run (alpha=1.2, harmonic, eps=0.05,
# n_beads=100, sweeps=150, burn_in_sweeps=40, seed=9): 14953/15000.
GOLDEN_ACCEPTANCE = 0.9968666666666667


@pytest.fixture(scope="module")
def harmonic_run():
    return run_reptation(
        GaussianTrial(ALPHA),
        HarmonicPotential(),
        n_beads=120,
        epsilon=0.05,
        sweeps=2000,
        seed=11,
        burn_in_sweeps=100,
    )


@pytest.fixture(scope="module")
def exact_run():
    return run_reptation(
        GaussianTrial(1.0),
        HarmonicPotential(),
        n_beads=50,
        epsilon=0.05,
        sweeps=200,
        seed=5,
        burn_in_sweeps=20,
    )


class TestPrimitives:
    def test_link_action_value(self):
        assert link_action(0.1, 0.3, 0.5) == pytest.approx(0.04, rel=1e-15)

    def test_link_action_symmetric(self):
        assert link_action(0.2, 0.7, -0.4) == link_action(0.2, -0.4, 0.7)

    def test_acceptance_probability(self):
        assert acceptance_probability(0.0) == 1.0
        assert acceptance_probability(-3.0) == 1.0
        assert acceptance_probability(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


class TestReptile:
    def test_requires_two_beads(self):
        with pytest.raises(ValueError, match="2 beads"):
            Reptile([0.0], [0.5], 0.1)

    def test_w_values_must_match(self):
        with pytest.raises(ValueError, match="per bead"):
            Reptile([0.0, 1.0], [0.5], 0.1)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            Reptile([0.0, 1.0], [0.5, 0.5], 0.1, direction=0)

    def test_counts_and_ends(self):
        r = Reptile([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4], 0.5)
        assert r.n_beads == 4
        assert r.n_links == 3
        assert r.path_length == pytest.approx(1.5, rel=1e-15)
        assert r.head == 3.0
        assert r.tail == 0.0
        assert r.middle == 2.0
        assert r.end_energy() == pytest.approx(0.25, rel=1e-15)

    def test_cached_action_matches_recomputation(self):
        r = Reptile([0.0, 1.0, 2.0], [0.3, -0.1, 0.4], 0.7)
        expected = link_action(0.7, 0.3, -0.1) + link_action(0.7, -0.1, 0.4)
        assert r.total_action == pytest.approx(expected, rel=1e-15)
        assert math.fsum(r.link_actions) == pytest.approx(r.total_action, rel=1e-15)

    def test_audit_links_zero_for_consistent_table(self):
        table = {0.0: 0.3, 1.0: -0.1, 2.0: 0.4}
        r = Reptile([0.0, 1.0, 2.0], [0.3, -0.1, 0.4], 0.7)
        assert r.audit_links(lambda b: table[b]) == 0.0


class TestInitReptile:
    def test_two_beads_single_link(self):
        rng = derive_rng(1, "init")
        r = init_reptile(GaussianTrial(ALPHA), HarmonicPotential(), 2, 0.1, rng,
                         equilibration_steps=50)
        assert r.n_links == 1
        assert r.total_action == pytest.approx(
            link_action(0.1, r.w_values[0], r.w_values[1]), rel=1e-15
        )

    def test_exact_trial_constant_action(self):
        rng = derive_rng(2, "init")
        r = init_reptile(GaussianTrial(1.0), HarmonicPotential(), 40, 0.05, rng,
                         equilibration_steps=50)
        assert all(w == 0.5 for w in r.w_values)
        assert r.total_action == 0.5 * 0.05 * r.n_links

    def test_cache_consistent_after_init(self):
        rng = derive_rng(3, "init")
        trial, pot = GaussianTrial(ALPHA), QuarticPotential(0.3)
        r = init_reptile(trial, pot, 30, 0.05, rng, equilibration_steps=100)
        assert abs(r.total_action - math.fsum(r.link_actions)) < 1e-12
        assert r.audit_links(lambda b: float(local_energy(trial, pot, b))) < 1e-12

    def test_equilibration_is_not_stored(self):
        # 100,000 stored steps would take 800 kB; the reptile itself is 20 beads
        trial, pot = GaussianTrial(ALPHA), QuarticPotential(0.1)
        init_reptile(trial, pot, 20, 0.05, derive_rng(4, "init"), equilibration_steps=10)
        tracemalloc.start()
        try:
            init_reptile(trial, pot, 20, 0.05, derive_rng(4, "init"), equilibration_steps=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_validation(self):
        rng = derive_rng(4, "init")
        with pytest.raises(ValueError, match="n_beads"):
            init_reptile(GaussianTrial(1.0), HarmonicPotential(), 1, 0.1, rng)
        with pytest.raises(ValueError, match="epsilon"):
            init_reptile(GaussianTrial(1.0), HarmonicPotential(), 5, 0.0, rng)


class TestMoveKernel:
    def test_exact_trial_always_accepts(self):
        rng = derive_rng(5, "move")
        trial, pot = GaussianTrial(1.0), HarmonicPotential()
        r = init_reptile(trial, pot, 20, 0.05, rng, equilibration_steps=50)
        sampler = ReptationSampler.for_system(trial, pot, r, rng)
        for _ in range(500):
            sampler.move()
        assert sampler.acceptance_rate == 1.0

    def test_rigged_constant_w_always_accepts(self):
        # new link action equals the removed one, so every dS is exactly 0
        rng = derive_rng(6, "move")
        sampler = ReptationSampler.from_functions(
            w_fn=lambda s: 0.37,
            propose_fn=lambda rng_, end: end + rng_.normal(),
            beads=[0.0, 0.1, 0.2],
            epsilon=0.7,
            rng=rng,
        )
        before = sampler.reptile.total_action
        for _ in range(300):
            assert sampler.move()
        assert sampler.acceptance_rate == 1.0
        assert sampler.reptile.total_action == before

    def test_bounce_flips_direction_on_rejection(self):
        # proposed beads carry an enormous W, so rejection is certain
        rng = derive_rng(7, "move")
        sampler = ReptationSampler.from_functions(
            w_fn=lambda s: 1e7 * float(s),
            propose_fn=lambda rng_, end: end + 1,
            beads=[0, 0, 0],
            epsilon=0.7,
            rng=rng,
        )
        assert sampler.reptile.direction == 1
        assert not sampler.move()
        assert sampler.reptile.direction == -1
        assert not sampler.move()
        assert sampler.reptile.direction == 1
        assert list(sampler.reptile.beads) == [0, 0, 0]
        assert sampler.acceptance_rate == 0.0

    def test_policy_validated(self):
        rng = derive_rng(8, "move")
        with pytest.raises(ValueError, match="direction policy"):
            ReptationSampler.from_functions(
                w_fn=lambda s: 0.0,
                propose_fn=lambda rng_, end: end,
                beads=[0.0, 1.0],
                epsilon=0.1,
                rng=rng,
                direction_policy="diagonal",
            )

    def test_move_alias_drives_sampler(self):
        rng = derive_rng(9, "move")
        sampler = ReptationSampler.from_functions(
            w_fn=lambda s: 0.1,
            propose_fn=lambda rng_, end: end + rng_.normal(),
            beads=[0.0, 1.0, 2.0],
            epsilon=0.1,
            rng=rng,
        )
        assert sampler.move() is True
        assert sampler.moves_proposed == 1

    def test_acceptance_rate_golden(self):
        res = run_reptation(
            GaussianTrial(ALPHA), HarmonicPotential(),
            n_beads=100, epsilon=0.05, sweeps=150, seed=9, burn_in_sweeps=40,
        )
        assert 0.0 < res.acceptance_rate < 1.0
        assert res.acceptance_rate == GOLDEN_ACCEPTANCE

    def test_fixed_seed_reproducible(self):
        kwargs = dict(n_beads=100, epsilon=0.05, sweeps=150, seed=9, burn_in_sweeps=40)
        a = run_reptation(GaussianTrial(ALPHA), HarmonicPotential(), **kwargs)
        b = run_reptation(GaussianTrial(ALPHA), HarmonicPotential(), **kwargs)
        assert a.acceptance_rate == b.acceptance_rate
        assert np.array_equal(a.series, b.series)
        assert np.array_equal(a.actions, b.actions)


class ToyChain:
    """5-site state space with tabulated W, 3-bead reptiles, eps = 0.7."""

    w_table = np.array([0.3, -0.1, 0.5, 0.2, -0.4])
    epsilon = 0.7
    n_sites = 5

    @classmethod
    def link(cls, a, b):
        return link_action(cls.epsilon, cls.w_table[a], cls.w_table[b])

    @classmethod
    def states(cls):
        return list(itertools.product(range(cls.n_sites), repeat=3))

    @classmethod
    def exact_distribution(cls):
        weights = np.array([
            math.exp(-(cls.link(a, b) + cls.link(b, c))) for a, b, c in cls.states()
        ])
        return weights / weights.sum()

    @classmethod
    def kernel(cls):
        """One-move transition matrix: random direction, uniform site proposal."""
        states = cls.states()
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        p = np.zeros((n, n))
        flat = 0.5 / cls.n_sites
        for a, b, c in states:
            i = index[(a, b, c)]
            for y in range(cls.n_sites):
                acc = acceptance_probability(cls.link(c, y) - cls.link(a, b))
                p[i, index[(b, c, y)]] += flat * acc
                p[i, i] += flat * (1.0 - acc)
                acc = acceptance_probability(cls.link(y, a) - cls.link(b, c))
                p[i, index[(y, a, b)]] += flat * acc
                p[i, i] += flat * (1.0 - acc)
        return p, index


class TestToyBalance:
    def test_kernel_is_stochastic(self):
        p, _ = ToyChain.kernel()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-13)

    def test_stationary_distribution_matches_action_weights(self):
        p, _ = ToyChain.kernel()
        v = np.full(p.shape[0], 1.0 / p.shape[0])
        for _ in range(5000):
            v = v @ p
        v /= v.sum()
        tv = 0.5 * np.abs(v - ToyChain.exact_distribution()).sum()
        assert tv < 1e-6

    def test_sampler_reproduces_stationary_distribution(self):
        _, index = ToyChain.kernel()
        rng = derive_rng(314, "toy")
        sampler = ReptationSampler.from_functions(
            w_fn=lambda s: float(ToyChain.w_table[int(s)]),
            propose_fn=lambda rng_, end: int(rng_.integers(ToyChain.n_sites)),
            beads=[0, 1, 2],
            epsilon=ToyChain.epsilon,
            rng=rng,
            direction_policy="random",
        )
        counts = np.zeros(len(index))
        n_moves = 300_000
        for _ in range(n_moves):
            sampler.move()
            r = sampler.reptile
            counts[index[(int(r.beads[0]), int(r.beads[1]), int(r.beads[2]))]] += 1
        tv = 0.5 * np.abs(counts / n_moves - ToyChain.exact_distribution()).sum()
        assert tv < 0.05
        assert 0.0 < sampler.acceptance_rate < 1.0


class TestIncrementalAction:
    def test_cache_tracks_recomputation_over_many_moves(self):
        rng = derive_rng(8, "integrity")
        trial, pot = GaussianTrial(ALPHA), QuarticPotential(0.3)
        r = init_reptile(trial, pot, 50, 0.05, rng, equilibration_steps=200)
        sampler = ReptationSampler.for_system(trial, pot, r, rng)
        for _ in range(100_000):
            sampler.move()
        assert abs(r.total_action - math.fsum(r.link_actions)) < 1e-9
        assert r.audit_links(lambda b: float(local_energy(trial, pot, np.atleast_1d(b)))) < 1e-12


class TestEnergyEstimator:
    def test_exact_trial_exact_energy(self, exact_run):
        assert exact_run.acceptance_rate == 1.0
        assert exact_run.energy.mean == 0.5
        assert exact_run.energy.std_error == 0.0
        assert np.all(exact_run.series == 0.5)
        assert np.all(exact_run.actions == exact_run.actions[0])

    def test_harmonic_energy_within_3_sigma(self, harmonic_run):
        e = harmonic_run.energy
        assert abs(e.mean - 0.5) < 3.0 * e.std_error

    def test_reptile_snapshots_accepted(self, harmonic_run):
        # the run blocks one end_energy per sweep: (W_head + W_tail)/2
        ends = [Reptile([0.0, 1.0], list(pair), harmonic_run.epsilon).end_energy() for pair in harmonic_run.series]
        assert _blocked(np.array(ends), 1.0) == harmonic_run.energy

    def test_plain_array_accepted(self):
        est = _blocked(np.array([0.5, 0.5, 0.5, 0.5]), 1.0)
        assert est.mean == 0.5
        assert est.std_error == 0.0

    def test_too_few_samples(self):
        with pytest.raises(SeriesTooShortError):
            _blocked(np.array([0.5]), 1.0)


class TestPureEstimator:
    def test_unit_observable_is_exact(self):
        run = run_reptation(
            GaussianTrial(ALPHA), HarmonicPotential(),
            n_beads=40, epsilon=0.05, sweeps=50, seed=3, burn_in_sweeps=5,
            observables={"one": lambda bead: 1.0}, projection_time=0.0,
        )
        assert run.pure_observables["one"].mean == 1.0
        assert run.pure_observables["one"].std_error == 0.0

    def test_x_squared_within_3_sigma(self, harmonic_run):
        est = harmonic_run.pure_observables["x2"]
        assert abs(est.mean - 0.5) < 3.0 * est.std_error

    def test_x_squared_exact_trial_within_3_sigma(self):
        run = run_reptation(
            GaussianTrial(1.0), HarmonicPotential(),
            n_beads=80, epsilon=0.05, sweeps=1000, seed=21, burn_in_sweeps=50,
        )
        est = run.pure_observables["x2"]
        assert abs(est.mean - 0.5) < 3.0 * est.std_error

    def test_warns_when_path_too_short(self):
        # tau = 20 links x 0.1 = 2: enough for a projection time of 1, not of 1.5
        kwargs = dict(n_beads=21, epsilon=0.1, sweeps=5, seed=1, burn_in_sweeps=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_reptation(GaussianTrial(1.0), HarmonicPotential(), projection_time=1.0, **kwargs)
        with pytest.warns(UserWarning, match="projection"):
            run_reptation(GaussianTrial(1.0), HarmonicPotential(), projection_time=1.5, **kwargs)

    def test_value_arrays_accepted(self):
        est = _blocked(np.array([1.0, 4.0, 9.0, 4.0]), 1.0)
        assert est.mean == pytest.approx(4.5, rel=1e-12)


class TestActionCumulants:
    def test_sampled_actions_match_window_moments(self, harmonic_run):
        # Undoing the e^{-S} weight recovers plain-chain moments of S,
        # directly comparable to sliding-window lambdas at the same tau.
        s_vals = harmonic_run.actions
        weights = np.exp(s_vals - s_vals.mean())
        tau = (harmonic_run.n_beads - 1) * harmonic_run.epsilon

        def reweighted(s, w, order):
            return (s**order * w).mean() / (math.factorial(order) * w.mean())

        n_blocks = 20
        blocks = np.array_split(np.arange(s_vals.size), n_blocks)
        series = sample_local_energy_series(
            GaussianTrial(ALPHA), HarmonicPotential(),
            epsilon=harmonic_run.epsilon, steps=400_000, burn_in=4_000, seed=505,
        )
        mom = action_moments(series, [tau], max_order=2)
        for order in (1, 2):
            full = reweighted(s_vals, weights, order)
            jack = np.array([
                reweighted(np.delete(s_vals, idx), np.delete(weights, idx), order)
                for idx in blocks
            ])
            sigma_jack = math.sqrt(
                (n_blocks - 1) / n_blocks * ((jack - jack.mean()) ** 2).sum()
            )
            combined = math.hypot(sigma_jack, mom.errors[0, order])
            assert abs(full - mom.lam[0, order]) < 3.0 * combined


class TestAdaptiveBurnIn:
    def test_constant_energy_stops_after_two_windows(self):
        rng = derive_rng(3, "adapt")
        trial, pot = GaussianTrial(1.0), HarmonicPotential()
        r = init_reptile(trial, pot, 30, 0.05, rng, equilibration_steps=50)
        sampler = ReptationSampler.for_system(trial, pot, r, rng)
        assert adaptive_burn_in(sampler) == 50

    def test_warns_when_never_stabilizing(self):
        counter = itertools.count()
        rng = derive_rng(4, "adapt")
        sampler = ReptationSampler.from_functions(
            w_fn=lambda s: 0.1 * next(counter),
            propose_fn=lambda rng_, end: end + rng_.normal(),
            beads=[0.0, 1.0, 2.0],
            epsilon=0.1,
            rng=rng,
        )
        with pytest.warns(UserWarning, match="burn-in"):
            burned = adaptive_burn_in(sampler, window=10, max_windows=3)
        assert burned == 30


class TestRunBundle:
    def test_result_shapes(self, harmonic_run):
        assert harmonic_run.series.shape == (2000, 2)
        assert harmonic_run.actions.shape == (2000,)
        assert harmonic_run.n_beads == 120
        assert harmonic_run.epsilon == 0.05
        assert harmonic_run.sweeps == 2000
        assert harmonic_run.burn_in_sweeps == 100
        assert set(harmonic_run.pure_observables) == {"x2"}

    def test_acceptance_rate_in_range(self, harmonic_run):
        assert 0.0 < harmonic_run.acceptance_rate < 1.0

    def test_sweeps_validated(self):
        with pytest.raises(ValueError, match="sweeps"):
            run_reptation(
                GaussianTrial(1.0), HarmonicPotential(),
                n_beads=10, epsilon=0.1, sweeps=1,
            )

    def test_warns_on_short_path(self):
        with pytest.warns(UserWarning, match="projection"):
            run_reptation(
                GaussianTrial(1.0), HarmonicPotential(),
                n_beads=10, epsilon=0.05, sweeps=5, seed=1, burn_in_sweeps=0,
            )

    def test_custom_observables(self):
        run = run_reptation(
            GaussianTrial(1.0), HarmonicPotential(),
            n_beads=50, epsilon=0.05, sweeps=50, seed=2, burn_in_sweeps=5,
            observables={"x": lambda bead: float(np.sum(bead))},
        )
        assert set(run.pure_observables) == {"x"}


class TestMixedEstimatorOrdering:
    def test_projected_energy_not_above_variational(self, harmonic_run):
        series = sample_local_energy_series(
            GaussianTrial(ALPHA), HarmonicPotential(),
            epsilon=0.005, steps=400_000, burn_in=4_000, seed=99,
        )
        vmc = vmc_estimate(series)
        e = harmonic_run.energy
        combined = math.hypot(vmc.std_error, e.std_error)
        assert e.mean <= vmc.mean + 3.0 * combined


class TestProposalCorrection:
    def test_corrected_coarse_run_unbiased(self):
        run = run_reptation(
            GaussianTrial(ALPHA), HarmonicPotential(),
            n_beads=60, epsilon=0.1, sweeps=800, seed=13, burn_in_sweeps=100,
            proposal_correction=True,
        )
        assert abs(run.energy.mean - 0.5) < 3.0 * run.energy.std_error
        assert 0.0 < run.acceptance_rate < 1.0

    def test_correction_changes_the_kernel(self):
        kwargs = dict(n_beads=40, epsilon=0.1, sweeps=100, seed=13, burn_in_sweeps=20)
        plain = run_reptation(GaussianTrial(ALPHA), HarmonicPotential(), **kwargs)
        fixed = run_reptation(GaussianTrial(ALPHA), HarmonicPotential(),
                              proposal_correction=True, **kwargs)
        assert plain.acceptance_rate != fixed.acceptance_rate


class TestExtrapolation:
    def test_linear_arithmetic(self):
        coarse = EstimateWithError(mean=0.52, std_error=0.01,
                                   autocorr_time=2.0, effective_samples=400.0)
        fine = EstimateWithError(mean=0.51, std_error=0.005,
                                 autocorr_time=3.0, effective_samples=300.0)
        out = extrapolate_linear(coarse, fine)
        assert out.mean == pytest.approx(0.50, abs=1e-15)
        assert out.std_error == pytest.approx(math.sqrt(4 * 0.005**2 + 0.01**2), rel=1e-12)
        assert out.autocorr_time == 3.0
        assert out.effective_samples == 300.0

    def test_unbiased_runs_extrapolate_to_themselves(self):
        same = EstimateWithError(mean=0.5, std_error=0.01,
                                 autocorr_time=1.0, effective_samples=100.0)
        assert extrapolate_linear(same, same).mean == pytest.approx(0.5, abs=1e-15)


KERNEL_SYSTEMS = {
    "harmonic": (GaussianTrial(1.2), HarmonicPotential()),
    "quartic": (GaussianTrial(1.22), QuarticPotential(0.1)),
    "doublewell": (GaussianTrial(0.9), DoubleWellPotential(1.0, 1.0)),
}


def reference_init_reptile(trial, pot, n_beads, eps, rng, equilibration_steps):
    """init_reptile written with the numpy langevin_step, one call per step."""
    start = rng.normal(0.0, trial.equilibrium_sigma(), size=trial.dim)
    state = init_walker(trial, pot, start, eps, rng)
    for _ in range(equilibration_steps):
        langevin_step(state)
    positions = np.empty((n_beads, trial.dim))
    for i in range(n_beads):
        langevin_step(state)
        positions[i] = state.position
    return positions, local_energy(trial, pot, positions)


def numpy_sampler(trial, pot, beads, eps, rng, policy):
    """The creep kernel on numpy W and the numpy Langevin proposal."""
    sqrt_eps = math.sqrt(eps)
    return ReptationSampler.from_functions(
        w_fn=lambda pos: float(local_energy(trial, pot, pos)),
        propose_fn=lambda rng_, end: end + (0.5 * eps) * drift(trial, end) + rng_.normal(0.0, sqrt_eps, size=end.shape),
        beads=beads,
        epsilon=eps,
        rng=rng,
        direction_policy=policy,
    )


class TestScalarKernel:
    """for_system's float closures leave the kernel and its random stream unchanged."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_init_reptile_matches_langevin_loop(self, name):
        trial, pot = KERNEL_SYSTEMS[name]
        rng, ref_rng = derive_rng(21, "init"), derive_rng(21, "init")
        r = init_reptile(trial, pot, 40, 0.05, rng, equilibration_steps=300)
        positions, ws = reference_init_reptile(trial, pot, 40, 0.05, ref_rng, 300)
        assert np.array_equal(np.array(r.beads), positions)
        assert list(r.w_values) == ws.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["bounce", "random"])
    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_for_system_matches_numpy_kernel(self, name, policy):
        trial, pot = KERNEL_SYSTEMS[name]
        eps = 0.05
        beads = list(init_reptile(trial, pot, 30, eps, derive_rng(22, "beads"), equilibration_steps=200).beads)
        rng, ref_rng = derive_rng(23, name, 1), derive_rng(23, name, 1)
        ref = numpy_sampler(trial, pot, [b.copy() for b in beads], eps, ref_rng, policy)
        start = Reptile([b.copy() for b in beads], list(ref.reptile.w_values), eps)
        fast = ReptationSampler.for_system(trial, pot, start, rng, direction_policy=policy)
        for _ in range(3000):
            assert fast.move() == ref.move()
        a, b = fast.reptile, ref.reptile
        assert np.array_equal(np.array(a.beads).reshape(-1, 1), np.array(b.beads))
        assert all(type(bead) is float for bead in a.beads)
        assert list(a.w_values) == list(b.w_values)
        assert list(a.link_actions) == list(b.link_actions)
        assert a.total_action == b.total_action
        assert a.direction == b.direction
        assert (fast.moves_proposed, fast.moves_accepted) == (ref.moves_proposed, ref.moves_accepted)
        assert 0 < fast.moves_accepted < fast.moves_proposed
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("policy", ["bounce", "random"])
    def test_corrected_float_beads_match_numpy_kernel(self, policy):
        # the proposal correction runs on float beads, move for move as on numpy beads
        trial, pot = KERNEL_SYSTEMS["quartic"]
        eps = 0.1
        start = init_reptile(trial, pot, 30, eps, derive_rng(26, "beads"), equilibration_steps=200)
        samplers = []
        for system_trial in (trial, wrap_generic(trial)):
            r = Reptile([b.copy() for b in start.beads], list(start.w_values), eps)
            samplers.append(ReptationSampler.for_system(
                system_trial, pot, r, derive_rng(27, policy), direction_policy=policy, proposal_correction=True,
            ))
        fast, ref = samplers
        for _ in range(3000):
            assert fast.move() == ref.move()
        assert all(type(bead) is float for bead in fast.reptile.beads)
        assert all(bead.shape == (1,) for bead in ref.reptile.beads)
        assert sampler_state(fast) == sampler_state(ref)
        assert 0 < fast.moves_accepted < fast.moves_proposed

    def test_for_system_takes_scalar_path(self, monkeypatch):
        trial, pot = KERNEL_SYSTEMS["quartic"]
        rng = derive_rng(24, "path")
        r = init_reptile(trial, pot, 20, 0.05, rng, equilibration_steps=50)

        def numpy_path(*args):
            raise AssertionError("numpy closure called")

        monkeypatch.setattr(walker, "local_energy", numpy_path)
        monkeypatch.setattr(walker, "drift", numpy_path)
        sampler = ReptationSampler.for_system(trial, pot, r, rng)
        for _ in range(100):
            sampler.move()
        assert sampler.reptile.audit_links(sampler.w_fn) < 1e-12

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_fresh_reptile_links_are_exact(self, name):
        # init_reptile evaluates W on the batch of beads, moves one bead
        # at a time; both must round alike
        trial, pot = KERNEL_SYSTEMS[name]
        rng = derive_rng(25, name)
        r = init_reptile(trial, pot, 20_000, 0.05, rng, equilibration_steps=100)
        sampler = ReptationSampler.for_system(trial, pot, r, rng)
        assert r.audit_links(sampler.w_fn) == 0.0


def run_digest(trial, pot, **kwargs):
    """sha256 of a run's series, actions, acceptance, pure x2 and final rng state.

    Arrays enter as json.dumps(array.tolist()), so the digest does not
    depend on byte order; floats print as their shortest round-trip repr.
    """
    rng = derive_rng(31, "golden")
    res = run_reptation(trial, pot, rng=rng, n_beads=41, epsilon=0.05, sweeps=200, burn_in_sweeps=20, **kwargs)
    x2 = res.pure_observables["x2"]
    record = {
        "series": res.series.tolist(),
        "actions": res.actions.tolist(),
        "acceptance_rate": res.acceptance_rate,
        "x2": [x2.mean, x2.std_error, x2.autocorr_time, x2.effective_samples],
        "rng": rng.bit_generator.state,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("ascii")).hexdigest()


# Recorded on the array-bead kernel that the float-bead loop replaced.
GOLDEN_DIGESTS = {
    "harmonic-bounce": "472f0ab0ba1f49b7df91c78aabe29b5916b27df7e419dcbb4ddd5b0a54a10de8",
    "harmonic-random": "4d34e7cb33454a0a85e59dd5f575ac0ca21e920b3b9ee75b41e92a95306fb476",
    "quartic-bounce": "96be22a5ac8aa0cba86929b921a486a351fd3544ee2aee30cd2fcfe5444ef857",
    "quartic-random": "6ab4926ebd4bedcc747ded38a27fa4eea7a450b5cdf1063c5497de9623678261",
    "doublewell-bounce": "0569c86369ee26983a92d10204afc9b0945293fd78b65197c7ecfc35e5b3e339",
    "doublewell-random": "bc930e7b573fc1203dd6d6d38211f7bf775dfee468d7d01da944e050dad6de5f",
    "quartic-bounce-corrected": "b47f71fa67b6d3c430501010e619a537fa695e6994fec308e841e880daad83ce",
}


class TestGoldenDigest:
    """run_reptation's outputs and rng stream, pinned to the last bit."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
    def test_run_matches_digest(self, case):
        name, policy, *extra = case.split("-")
        trial, pot = KERNEL_SYSTEMS[name]
        kwargs = dict(direction_policy=policy, proposal_correction=extra == ["corrected"])
        assert run_digest(trial, pot, **kwargs) == GOLDEN_DIGESTS[case]


def sampler_state(sampler):
    r = sampler.reptile
    beads = [np.atleast_1d(b).tolist() for b in r.beads]
    return (beads, list(r.w_values), r.total_action, r.direction,
            sampler.moves_proposed, sampler.moves_accepted, sampler.rng.bit_generator.state)


class TestMoveLoop:
    """move() and sweep() run one loop; the bead representation stays inside the sampler."""

    @pytest.mark.parametrize("kind", ["float", "numpy", "corrected"])
    @pytest.mark.parametrize("policy", ["bounce", "random"])
    def test_n_moves_equal_one_sweep(self, kind, policy):
        trial, pot = KERNEL_SYSTEMS["quartic"]
        if kind == "numpy":
            trial = walker.CallableTrial(trial.log_value, trial.gradient_log, trial.laplacian_log, dim=1)
        samplers = []
        for _ in range(2):
            rng = derive_rng(41, policy)
            r = init_reptile(trial, pot, 25, 0.1, rng, equilibration_steps=100)
            samplers.append(ReptationSampler.for_system(
                trial, pot, r, rng, direction_policy=policy, proposal_correction=kind == "corrected",
            ))
        by_move, by_sweep = samplers
        for _ in range(40):
            for _ in range(by_move.reptile.n_beads):
                by_move.move()
            by_sweep.sweep()
            assert sampler_state(by_move) == sampler_state(by_sweep)
        assert 0 < by_sweep.moves_accepted < by_sweep.moves_proposed

    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_scalar_systems_move_float_beads(self, name):
        trial, pot = KERNEL_SYSTEMS[name]
        rng = derive_rng(42, name)
        sampler = ReptationSampler.for_system(trial, pot, init_reptile(trial, pot, 20, 0.05, rng, 50), rng)
        sampler.sweep()
        assert all(type(bead) is float for bead in sampler.reptile.beads)
        assert sampler.reptile.audit_links(lambda b: float(local_energy(trial, pot, np.atleast_1d(b)))) == 0.0

    def test_other_systems_keep_arrays(self):
        trial, pot = KERNEL_SYSTEMS["quartic"]
        systems = [(wrap_generic(trial), pot, True), (GaussianTrial(1.2, dim=2), pot, False)]
        for trial, pot, corrected in systems:
            rng = derive_rng(43, "arrays")
            r = init_reptile(trial, pot, 20, 0.05, rng, 50)
            ReptationSampler.for_system(trial, pot, r, rng, proposal_correction=corrected).sweep()
            assert all(bead.shape == (trial.dim,) for bead in r.beads)

    def test_observables_get_arrays(self):
        # b[0] fails on a float bead
        run = run_reptation(
            GaussianTrial(ALPHA), HarmonicPotential(),
            n_beads=41, epsilon=0.05, sweeps=100, seed=7, burn_in_sweeps=10,
            observables={"x2": lambda bead: float(np.sum(np.square(bead))), "first2": lambda b: b[0] ** 2},
        )
        assert run.pure_observables["first2"].mean == pytest.approx(run.pure_observables["x2"].mean, rel=1e-12)
