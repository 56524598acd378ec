"""Langevin walker: drift, local energy, propagation, and sampling laws."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from sptqmc.walker import (
    CallableTrial,
    DoubleWellPotential,
    GaussianTrial,
    HarmonicPotential,
    QuarticPotential,
    derive_rng,
    drift,
    langevin_kernel,
    local_energy,
    log_transition_density,
    proposal_mean,
    sample_local_energy_series,
    scalar_langevin,
)
from walker_reference import auxiliary_potential, init_walker, langevin_step, wrap_generic


class TestDrift:
    def test_unit_alpha(self):
        t = GaussianTrial(alpha=1.0)
        assert drift(t, np.array([0.5])) == pytest.approx(-1.0)

    def test_symmetry_point(self):
        t = GaussianTrial(alpha=2.7)
        assert drift(t, np.array([0.0])) == pytest.approx(0.0)

    def test_alpha_two(self):
        t = GaussianTrial(alpha=2.0)
        assert drift(t, np.array([1.0])) == pytest.approx(-4.0)


class TestLocalEnergy:
    def test_exact_eigenstate_is_constant_bitwise(self):
        t = GaussianTrial(alpha=1.0)
        v = HarmonicPotential()
        rng = np.random.default_rng(0)
        points = rng.normal(0.0, 2.0, size=(1000, 1))
        values = local_energy(t, v, points)
        assert np.all(values == 0.5)

    def test_alpha_formula(self):
        alpha = 1.2
        t = GaussianTrial(alpha=alpha)
        v = HarmonicPotential()
        for x in (-1.5, 0.0, 0.3, 2.0):
            expected = alpha / 2 + (1 - alpha**2) * x * x / 2
            assert local_energy(t, v, np.array([x])) == pytest.approx(expected, rel=1e-12)

    def test_spec_point_value(self):
        t = GaussianTrial(alpha=1.2)
        v = HarmonicPotential()
        assert local_energy(t, v, np.array([1.0])) == pytest.approx(0.38, rel=1e-12)


class TestAuxiliaryPotential:
    def test_unit_alpha_closed_form(self):
        t = GaussianTrial(alpha=1.0)
        for x in (-2.0, 0.0, 0.7):
            assert auxiliary_potential(t, np.array([x])) == pytest.approx(
                (x * x - 1.0) / 2.0, rel=1e-12, abs=1e-15
            )

    def test_origin_value(self):
        t = GaussianTrial(alpha=1.7)
        assert auxiliary_potential(t, np.array([0.0])) == pytest.approx(-1.7 / 2)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.2])
    @pytest.mark.parametrize(
        "potential",
        [HarmonicPotential(), QuarticPotential(0.3), DoubleWellPotential(2.0, 1.5)],
    )
    def test_w_equals_v_minus_veff(self, alpha, potential):
        t = GaussianTrial(alpha=alpha)
        rng = np.random.default_rng(7)
        points = rng.normal(0.0, 1.5, size=(1000, 1))
        w = local_energy(t, potential, points)
        identity = potential(points) - auxiliary_potential(t, points)
        assert np.max(np.abs(w - identity)) < 1e-12


class TestTrialConsistency:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.9])
    def test_gaussian_derivatives_match_finite_differences(self, alpha):
        t = GaussianTrial(alpha=alpha)
        rng = np.random.default_rng(11)
        h = 1e-5
        for x in rng.normal(0.0, 1.0, size=20):
            p = np.array([x])
            grad_fd = (t.log_value(p + h) - t.log_value(p - h)) / (2 * h)
            lap_fd = (t.log_value(p + h) - 2 * t.log_value(p) + t.log_value(p - h)) / h**2
            assert t.gradient_log(p)[0] == pytest.approx(grad_fd, abs=1e-6)
            assert t.laplacian_log(p) == pytest.approx(lap_fd, abs=1e-4)

    def test_log_value_finite_everywhere_sampled(self):
        t = GaussianTrial(alpha=1.2)
        rng = np.random.default_rng(3)
        points = rng.normal(0.0, 5.0, size=(500, 1))
        assert np.all(np.isfinite(t.log_value(points)))

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            GaussianTrial(alpha=0.0)
        with pytest.raises(ValueError):
            GaussianTrial(alpha=1.0, dim=0)


class TestLangevinStep:
    def test_zero_noise_drift_only(self):
        t = GaussianTrial(alpha=1.0)
        state = init_walker(t, HarmonicPotential(), [1.0], epsilon=0.1)
        langevin_step(state, noise=np.zeros(1))
        assert state.position[0] == pytest.approx(0.9, rel=1e-14)

    def test_caches_track_position(self):
        t = GaussianTrial(alpha=1.3)
        v = QuarticPotential(0.2)
        state = init_walker(t, v, [0.4], epsilon=0.05, rng=np.random.default_rng(2))
        for _ in range(25):
            langevin_step(state)
            assert state.drift == pytest.approx(drift(t, state.position))
            assert state.local_energy == pytest.approx(
                float(local_energy(t, v, state.position))
            )

    def test_pure_diffusion_moments(self):
        flat = CallableTrial(
            log_value=lambda r: np.zeros(r.shape[:-1]),
            gradient_log=lambda r: np.zeros_like(r),
            laplacian_log=lambda r: np.zeros(r.shape[:-1]),
            dim=1,
        )
        eps = 0.01
        rng = np.random.default_rng(8)
        n = 100_000
        state = init_walker(flat, HarmonicPotential(), [0.0], epsilon=eps, rng=rng)
        displacements = np.empty(n)
        for i in range(n):
            before = state.position[0]
            langevin_step(state)
            displacements[i] = state.position[0] - before
        assert abs(displacements.mean()) < 3 * math.sqrt(eps / n)
        # var of the sample variance ~ 2 var^2 / n
        assert abs(displacements.var() - eps) < 3 * eps * math.sqrt(2.0 / n)

    def test_stationary_variance(self):
        alpha = 1.5
        t = GaussianTrial(alpha=alpha)
        series, positions = sample_local_energy_series(
            t,
            HarmonicPotential(),
            epsilon=0.01,
            steps=400_000,
            burn_in=5_000,
            seed=13,
            return_positions=True,
        )
        x = positions[series.burn_in :, 0]
        target = 1.0 / (2.0 * alpha)
        # autocorrelation time ~ 1/(2 alpha eps) steps inflates the error
        tau_steps = 1.0 / (2.0 * alpha * 0.01)
        sem = math.sqrt(2.0 * tau_steps / x.size) * math.sqrt(2.0) * target
        assert abs(x.var() - target) < 4 * sem

    def test_requires_rng_or_noise(self):
        t = GaussianTrial(alpha=1.0)
        state = init_walker(t, HarmonicPotential(), [0.0], epsilon=0.1)
        with pytest.raises(ValueError):
            langevin_step(state)

    def test_equilibrium_ks(self):
        alpha = 1.0
        t = GaussianTrial(alpha=alpha)
        series, positions = sample_local_energy_series(
            t,
            HarmonicPotential(),
            epsilon=0.01,
            steps=1_000_000,
            burn_in=10_000,
            seed=17,
            return_positions=True,
        )
        # thin far beyond the ~50-step autocorrelation time so KS sees
        # effectively independent draws
        x = positions[series.burn_in :: 500, 0]
        result = stats.kstest(x, "norm", args=(0.0, t.equilibrium_sigma()))
        assert result.pvalue > 0.01


class TestTransitionDensity:
    def test_peak_value(self):
        t = GaussianTrial(alpha=1.1)
        eps = 0.05
        state = init_walker(t, HarmonicPotential(), [0.7], epsilon=eps)
        r_from = np.array([0.7])
        r_peak = r_from + 0.5 * eps * drift(t, r_from)
        assert math.exp(log_transition_density(state.trial, state.epsilon, r_from, r_peak)) == pytest.approx(
            (2 * math.pi * eps) ** -0.5, rel=1e-12
        )

    def test_normalization(self):
        t = GaussianTrial(alpha=1.3)
        eps = 0.05
        state = init_walker(t, HarmonicPotential(), [0.4], epsilon=eps)
        r_from = np.array([0.4])

        def dens(y):
            return math.exp(log_transition_density(state.trial, state.epsilon, r_from, np.array([y])))

        total, _ = integrate.quad(dens, -10, 10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_without_drift(self):
        flat = CallableTrial(
            log_value=lambda r: np.zeros(r.shape[:-1]),
            gradient_log=lambda r: np.zeros_like(r),
            laplacian_log=lambda r: np.zeros(r.shape[:-1]),
            dim=1,
        )
        state = init_walker(flat, HarmonicPotential(), [0.0], epsilon=0.1)
        a, b = np.array([0.3]), np.array([-0.9])
        assert math.exp(log_transition_density(state.trial, state.epsilon, a, b)) == pytest.approx(
            math.exp(log_transition_density(state.trial, state.epsilon, b, a)), rel=1e-12
        )


class TestSeriesSampling:
    def test_series_invariants(self):
        t = GaussianTrial(alpha=1.2)
        s = sample_local_energy_series(
            t, HarmonicPotential(), epsilon=0.01, steps=5000, burn_in=500, seed=1
        )
        assert len(s.values) == 5500
        assert s.burn_in == 500
        assert len(s.analysis_values) == 5000
        assert np.all(np.isfinite(s.values))
        assert s.step == 0.01

    def test_seed_determinism(self):
        t = GaussianTrial(alpha=1.2)
        kwargs = dict(epsilon=0.01, steps=2000, seed=9)
        a = sample_local_energy_series(t, HarmonicPotential(), **kwargs)
        b = sample_local_energy_series(t, HarmonicPotential(), **kwargs)
        assert np.array_equal(a.values, b.values)

    def test_fast_path_matches_generic_loop(self):
        alpha, eps, steps = 1.4, 0.02, 4000
        fast_trial = GaussianTrial(alpha=alpha)
        slow_trial = wrap_generic(fast_trial)
        start = np.array([0.6])
        fast = sample_local_energy_series(
            fast_trial,
            HarmonicPotential(),
            epsilon=eps,
            steps=steps,
            rng=np.random.default_rng(123),
            initial=start,
        )
        slow = sample_local_energy_series(
            slow_trial,
            HarmonicPotential(),
            epsilon=eps,
            steps=steps,
            rng=np.random.default_rng(123),
            initial=start,
        )
        assert np.max(np.abs(fast.values - slow.values)) < 1e-12

    def test_derived_streams_differ_by_purpose_and_index(self):
        a = derive_rng(5, "alpha").normal(size=4)
        b = derive_rng(5, "beta").normal(size=4)
        c = derive_rng(5, "alpha", index=1).normal(size=4)
        d = derive_rng(5, "alpha").normal(size=4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.array_equal(a, d)

    def test_argument_validation(self):
        t = GaussianTrial(alpha=1.0)
        with pytest.raises(ValueError):
            sample_local_energy_series(t, HarmonicPotential(), epsilon=0.01, steps=0)
        with pytest.raises(ValueError):
            sample_local_energy_series(
                t, HarmonicPotential(), epsilon=0.01, steps=10, burn_in=-1
            )
        with pytest.raises(ValueError):
            init_walker(t, HarmonicPotential(), [0.0], epsilon=0.0)


SCALAR_SYSTEMS = [
    (GaussianTrial(1.2), HarmonicPotential()),
    (GaussianTrial(1.22), QuarticPotential(0.1)),
    (GaussianTrial(0.9), DoubleWellPotential(1.3, 0.8)),
]
POSITIONS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
NORMALS = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


def lfilter_walk(alpha, epsilon, total, dim, initial, seed):
    """The Gaussian walk as scipy.signal.lfilter runs it: trajectory and the rng it leaves."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    rng = np.random.default_rng(seed)
    if initial is None:
        start = rng.normal(0.0, GaussianTrial(alpha).equilibrium_sigma(), size=dim)
    else:
        start = np.array(initial, float)
    decay = 1.0 - epsilon * alpha
    noise = rng.normal(0.0, math.sqrt(epsilon), size=(total, dim))
    return lfilter([1.0], [1.0, -decay], noise, axis=0, zi=(decay * start)[np.newaxis, :])[0], rng


def scan_walk(alpha, epsilon, total, dim, initial, seed):
    rng = np.random.default_rng(seed)
    _, trajectory = sample_local_energy_series(
        GaussianTrial(alpha, dim), HarmonicPotential(), epsilon=epsilon, steps=total, rng=rng,
        initial=initial, return_positions=True,
    )
    return trajectory, rng


class TestGaussianScan:
    """The in-place AR(1) scan against the lfilter call it replaced, bit for bit."""

    def assert_bitwise_equal(self, *walk):
        expected, expected_rng = lfilter_walk(*walk)
        got, got_rng = scan_walk(*walk)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_walk_length(self):
        self.assert_bitwise_equal(1.2, 0.005, 2_020_000, 1, None, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha_epsilon=st.tuples(st.floats(0.05, 5.0), st.floats(1e-4, 0.4)),
        dim=st.integers(1, 3),
        blocks=st.integers(1, 2),
        offset=st.sampled_from([-1, 0, 1]),
        start=st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha_epsilon=(1.0, 0.01), dim=2, blocks=1, offset=0, start=-0.0, seed=0)
    def test_block_edges_and_start_values(self, alpha_epsilon, dim, blocks, offset, start, seed):
        alpha, epsilon = alpha_epsilon
        initial = None if start is None else [start] * dim
        self.assert_bitwise_equal(alpha, epsilon, 65536 * blocks + offset, dim, initial, seed)


class TestScalarLangevin:
    """The float closures must reproduce the numpy code to the last bit."""

    @pytest.mark.parametrize("trial, pot", SCALAR_SYSTEMS, ids=["harmonic", "quartic", "doublewell"])
    @settings(max_examples=300, deadline=None)
    @given(x=POSITIONS)
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=-0.8)
    @example(x=-1.906)  # doublewell: pow(t, 2) != t * t here
    @example(x=-10.0)
    @example(x=9.999999999999998)
    def test_w_equals_local_energy(self, trial, pot, x):
        w, _ = scalar_langevin(trial, pot, 0.05)
        assert w(x) == local_energy(trial, pot, np.array([x]))[()]

    @pytest.mark.parametrize("trial, pot", SCALAR_SYSTEMS, ids=["harmonic", "quartic", "doublewell"])
    @settings(max_examples=300, deadline=None)
    @given(x=POSITIONS, z=NORMALS)
    @example(x=0.0, z=0.0)
    @example(x=-0.0, z=-0.0)
    @example(x=-7.5, z=1.3)
    def test_step_equals_langevin_step(self, trial, pot, x, z):
        eps = 0.025
        _, step = scalar_langevin(trial, pot, eps)
        state = init_walker(trial, pot, np.array([x]), eps)
        langevin_step(state, noise=np.array([0.0 + math.sqrt(eps) * z]))
        assert step(x, z) == state.position[0]

    def test_standard_normal_matches_scaled_normal(self):
        # step(x, z) draws z with standard_normal; the numpy code draws
        # normal(0, sqrt(eps)) -- the same stream and the same value
        a, b = derive_rng(1, "draws"), derive_rng(1, "draws")
        s = math.sqrt(0.05)
        for _ in range(2000):
            assert 0.0 + s * a.standard_normal() == b.normal(0.0, s, size=(1,))[0]

    def test_other_systems_keep_numpy(self):
        pot = HarmonicPotential()
        assert scalar_langevin(GaussianTrial(1.0, dim=2), pot, 0.1) is None
        assert scalar_langevin(wrap_generic(GaussianTrial(1.0)), pot, 0.1) is None

        class Shifted(HarmonicPotential):
            def __call__(self, positions):
                return super().__call__(positions) + 1.0

        assert scalar_langevin(GaussianTrial(1.0), Shifted(), 0.1) is None


class TestBatchRounding:
    """One position and a batch of positions give the same W to the last bit."""

    @pytest.mark.parametrize("trial, pot", SCALAR_SYSTEMS, ids=["harmonic", "quartic", "doublewell"])
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(POSITIONS, min_size=1, max_size=16))
    @example(xs=[-1.906])  # doublewell: pow(t, 2) != t * t here
    @example(xs=[0.3, -1.906, 2.0])
    def test_batched_local_energy_equals_single(self, trial, pot, xs):
        batch = local_energy(trial, pot, np.array(xs)[:, np.newaxis])
        single = [local_energy(trial, pot, np.array([x]))[()] for x in xs]
        assert batch.tolist() == single


class TestLangevinKernel:
    @pytest.mark.parametrize("trial, pot", SCALAR_SYSTEMS, ids=["harmonic", "quartic", "doublewell"])
    def test_scalar_and_numpy_paths_agree(self, trial, pot):
        w_fast, step_fast, floats = langevin_kernel(trial, pot, 0.05)
        w_ref, step_ref, ref_floats = langevin_kernel(wrap_generic(trial), pot, 0.05)
        assert floats and not ref_floats
        rng, ref_rng = derive_rng(5, "kernel"), derive_rng(5, "kernel")
        x, y = 0.3, np.array([0.3])
        for _ in range(500):
            x, y = step_fast(x, rng.standard_normal()), step_ref(y, ref_rng.standard_normal(y.shape))
            assert type(x) is float and y.shape == (1,)
            assert x == y[0]
            assert w_fast(x) == w_ref(y)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_numpy_step_is_mean_plus_noise(self):
        trial = GaussianTrial(0.8, dim=2)
        _, step, floats = langevin_kernel(trial, HarmonicPotential(), 0.1)
        assert not floats
        pos = np.array([0.5, -1.0])
        rng, ref_rng = derive_rng(6, "p"), derive_rng(6, "p")
        got = step(pos, rng.standard_normal(pos.shape))
        noise = ref_rng.normal(0.0, math.sqrt(0.1), size=2)
        assert np.array_equal(got, proposal_mean(trial, 0.1, pos) + noise)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            langevin_kernel(GaussianTrial(1.0), HarmonicPotential(), 0.0)


class TestImportCost:
    def test_import_leaves_scipy_signal_unloaded(self):
        code = "import sys, sptqmc, sptqmc.cli; print('scipy.signal' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, sptqmc, sptqmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_module_imports_scipy(self):
        import sptqmc

        for path in Path(sptqmc.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "scipy" for name in names), (path.name, node.lineno)

    def test_import_loads_no_process_pool(self):
        code = (
            "import sys, sptqmc, sptqmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # each entry loads only what it runs; every probe below runs in a fresh interpreter

    def test_import_loads_no_numpy_or_mpmath(self):
        assert _last_json("import sptqmc, sptqmc.cli" + _PRINT_LOADED.format(["numpy", "mpmath"])) == [False, False]

    def test_symbolic_runs_without_numpy_or_mpmath(self):
        code = "from sptqmc.cli import main\nassert main(['symbolic', '--order', '4', '--sum-over-states']) == 0"
        assert _last_json(code + _PRINT_LOADED.format(["numpy", "mpmath"])) == [False, False]

    @pytest.mark.parametrize("sub", ["vmc", "rqmc"])
    def test_chains_load_no_mpmath_or_spectral(self, sub, tmp_path):
        (tmp_path / "run.cfg").write_text(_CHAIN_KEYS[sub])
        code = f"from sptqmc.cli import main\nassert main([{sub!r}, '--config', 'run.cfg']) == 0"
        assert _last_json(code + _PRINT_LOADED.format(["mpmath", "sptqmc.spectral"]), tmp_path) == [False, False]

    def test_spectral_loads_no_sampler(self, tmp_path):
        (tmp_path / "bw.model").write_text("builder = anharmonic\nbasis_size = 20\nquartic_coupling = 0.1\n")
        argv = ["spectral", "--model", "bw.model", "--order", "4", "--oracle"]
        code = f"from sptqmc.cli import main\nassert main({argv!r}) == 0"
        assert _last_json(code + _PRINT_LOADED.format(["sptqmc.rqmc", "sptqmc.walker"]), tmp_path) == [False, False]

    @pytest.mark.parametrize(
        "sub, modules",
        [
            ("vmc", ["numpy", "sptqmc.estimators", "sptqmc.walker"]),
            ("spt-orders", ["numpy", "sptqmc.estimators", "sptqmc.walker"]),
            ("rqmc", ["numpy", "sptqmc.estimators", "sptqmc.rqmc", "sptqmc.walker"]),
        ],
    )
    def test_chain_modules_load_before_the_fork(self, sub, modules, tmp_path):
        # a chain that imported them would import them again in every forked process
        (tmp_path / "run.cfg").write_text(_CHAIN_KEYS[sub] + "workers = 2\n")
        code = (
            "import json, sys\nfrom sptqmc import cli\nplain, seen = cli.fork_imap, []\n\n"
            "def recording(fn, items):\n"
            f"    seen.append([name in sys.modules for name in {modules!r}])\n"
            "    return plain(fn, items)\n\n"
            f"cli.fork_imap = recording\nassert cli.main([{sub!r}, '--config', 'run.cfg']) == 0\n"
            "print(json.dumps(seen))"
        )
        assert _last_json(code, tmp_path) == [[True] * len(modules)]


_PRINT_LOADED = "\nimport json, sys\nprint(json.dumps([name in sys.modules for name in {!r}]))"
_WALK_KEYS = "alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\n"
_CHAIN_KEYS = {
    "vmc": _WALK_KEYS,
    "spt-orders": _WALK_KEYS + "max_order = 2\n",
    "rqmc": "alpha = 1.2\nepsilon = 0.05\nn_beads = 20\nsweeps = 50\nburn_in_sweeps = 5\nequilibration_steps = 200\n",
}


def _last_json(code: str, cwd=None):
    """The JSON value on the last stdout line of code, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
