"""Numeric backend: models, g-values, and the three independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptqmc.rspt import epsilon_series
from sptqmc.spectral import (
    DegeneracyError,
    FitConditioningError,
    ModelValidationError,
    SpectralModel,
    build_anharmonic_model,
    evaluate_epsilons,
    evaluate_lambdas,
    g_value,
    ground_state_energy,
    laurent_oracle,
    load_model,
    parse_model_text,
    random_model,
    rs_oracle,
    taylor_oracle,
)
from spectral_reference import complete_homogeneous

# Quartic oscillator H = p^2/2 + x^2/2 + g x^4: E_0 = 1/2 + sum_n c_n g^n with
# the Bender-Wu coefficients c_n (Phys. Rev. 184, 1231, 1969).
BENDER_WU = [
    Fraction(3, 4), Fraction(-21, 8), Fraction(333, 16), Fraction(-30885, 128),
    Fraction(916731, 256), Fraction(-65518401, 1024), Fraction(2723294673, 2048),
    Fraction(-1030495099053, 32768),
]


def two_level(delta=1.0, a=0.0, b=0.1, c=0.0) -> SpectralModel:
    return SpectralModel(
        energies=np.array([0.0, delta]), wmat=np.array([[a, b], [b, c]])
    )


def three_level() -> SpectralModel:
    energies = np.array([0.0, 1.0, 2.3])
    wmat = np.array(
        [
            [0.15, 0.30, -0.20],
            [0.30, -0.10, 0.25],
            [-0.20, 0.25, 0.05],
        ]
    )
    return SpectralModel(energies=energies, wmat=wmat)


class TestSpectralModel:
    def test_ground_energy_must_be_zero(self):
        with pytest.raises(ModelValidationError):
            SpectralModel(energies=np.array([0.1, 1.0]), wmat=np.zeros((2, 2)))

    def test_excited_energies_positive(self):
        with pytest.raises(ModelValidationError):
            SpectralModel(energies=np.array([0.0, -1.0]), wmat=np.zeros((2, 2)))

    def test_symmetry_enforced(self):
        wmat = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(ModelValidationError):
            SpectralModel(energies=np.array([0.0, 1.0]), wmat=wmat)

    def test_shape_mismatch(self):
        with pytest.raises(ModelValidationError):
            SpectralModel(energies=np.array([0.0, 1.0]), wmat=np.zeros((3, 3)))

    def test_gap_property(self):
        assert two_level(delta=1.3).gap == pytest.approx(1.3)
        assert two_level().dim == 2


class TestCompleteHomogeneous:
    def test_h0_is_one(self):
        assert complete_homogeneous(0, [2.0, 3.0]) == 1.0
        assert complete_homogeneous(0, []) == 1.0

    def test_h1_is_sum(self):
        assert complete_homogeneous(1, [2.0, 3.0]) == pytest.approx(5.0)

    def test_h2_single_variable(self):
        assert complete_homogeneous(2, [0.5]) == pytest.approx(0.25)

    def test_h2_two_variables(self):
        # multisets {x,x}, {x,y}, {y,y}
        assert complete_homogeneous(2, [2.0, 3.0]) == pytest.approx(4 + 6 + 9)

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            complete_homogeneous(-1, [1.0])

    def test_generating_function_identity(self):
        # h_l = l-th Taylor coefficient of prod 1/(1 - z x_i) at z = 0;
        # the derivative is taken numerically at high precision so the
        # check is independent of the prefix recurrence under test
        import mpmath as mp

        rng = np.random.default_rng(42)
        with mp.workdps(40):
            for _ in range(5):
                m = rng.integers(1, 5)
                xs = [mp.mpf(float(x)) for x in rng.uniform(0.2, 2.0, size=m)]

                def gen(z, xs=xs):
                    return mp.fprod([1 / (1 - z * x) for x in xs])

                for l in range(5):
                    coeff = mp.diff(gen, 0, l) / mp.factorial(l)
                    assert float(coeff) == pytest.approx(
                        complete_homogeneous(l, [float(x) for x in xs]),
                        rel=1e-8,
                        abs=1e-10,
                    )


class TestGValue:
    def test_two_level_chain(self):
        m = two_level(delta=1.0, b=0.1)
        assert g_value(m, 2, 0) == pytest.approx(0.01, rel=1e-14)

    def test_two_level_first_derivative(self):
        m = two_level(delta=1.0, b=0.1)
        assert g_value(m, 2, 1) == pytest.approx(-0.01, rel=1e-14)

    def test_n1_returns_w00(self):
        m = two_level(a=0.7)
        assert g_value(m, 1, 0) == pytest.approx(0.7)
        assert g_value(m, 1, 3) == 0.0

    def test_literal_enumeration_oracle(self):
        # brute-force primed multiple sum on a small model
        m = three_level()
        energies = m.energies
        wmat = m.wmat
        dim = m.dim
        for n in (2, 3, 4):
            for l in (0, 1, 2):
                total = 0.0
                indices = [range(1, dim)] * (n - 1)
                import itertools

                for chain in itertools.product(*indices):
                    num = wmat[0, chain[-1]]
                    for a, b in zip(chain[-1:0:-1], chain[-2::-1]):
                        num *= wmat[a, b]
                    num *= wmat[chain[0], 0]
                    denom = np.prod([energies[k] for k in chain])
                    h = complete_homogeneous(l, [1.0 / energies[k] for k in chain])
                    total += num / denom * h
                expected = math.factorial(l) * (-1) ** l * total
                assert g_value(m, n, l) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_argument_range(self):
        m = two_level()
        with pytest.raises(ValueError):
            g_value(m, 0, 0)
        with pytest.raises(ValueError):
            g_value(m, 2, -1)


class TestLaurentOracle:
    def test_two_level_closed_form(self):
        delta, b = 1.0, 0.1
        m = two_level(delta=delta, b=b)
        lam, lamdot = laurent_oracle(m, 2)
        assert lam == pytest.approx(-b * b / delta**2, rel=1e-10)
        assert lamdot == pytest.approx(b * b / delta, rel=1e-10)

    def test_n1_constant(self):
        m = two_level(a=0.3)
        assert laurent_oracle(m, 1) == (0.0, 0.3)

    def test_diagonal_coupling_vanishes(self):
        m = SpectralModel(
            energies=np.array([0.0, 1.0, 2.0]),
            wmat=np.diag([0.2, -0.5, 0.4]).astype(float),
        )
        for n in (2, 3, 4):
            lam, lamdot = laurent_oracle(m, n)
            assert lam == pytest.approx(0.0, abs=1e-12)
            assert lamdot == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_symbolic_lambdas(self, n):
        for m in (two_level(a=0.2, b=0.45, c=-0.7, delta=1.3), three_level()):
            lam, lamdot = evaluate_lambdas(m, n)
            got_lam, got_lamdot = laurent_oracle(m, n)
            assert got_lam == pytest.approx(lam, rel=1e-8, abs=1e-12)
            assert got_lamdot == pytest.approx(lamdot, rel=1e-8, abs=1e-12)

    def test_coarse_grid_trips_conditioning(self):
        m = three_level()
        with pytest.raises(FitConditioningError):
            laurent_oracle(m, 5, scale=0.9)


class TestTaylorOracle:
    def test_two_level_c1(self):
        m = two_level(a=0.4, b=0.1)
        oracle = taylor_oracle(m, 2)
        assert oracle[1] == pytest.approx(0.4, rel=1e-9, abs=1e-12)

    def test_two_level_c2_closed_form(self):
        delta, b = 1.0, 0.1
        m = two_level(delta=delta, a=0.0, b=b, c=0.0)
        oracle = taylor_oracle(m, 2)
        assert oracle[2] == pytest.approx(-b * b / delta, rel=1e-9)

    def test_zero_coupling_gives_zeros(self):
        m = SpectralModel(energies=np.array([0.0, 1.0]), wmat=np.zeros((2, 2)))
        oracle = taylor_oracle(m, 4)
        assert np.all(oracle.coeffs == 0.0)

    def test_degeneracy_guard(self):
        # W pushes level 1 into the ground state at large sampled couplings
        m = SpectralModel(
            energies=np.array([0.0, 1.0, 1.05]),
            wmat=np.diag([0.0, -1.0, 0.0]).astype(float),
        )
        with pytest.raises(DegeneracyError):
            taylor_oracle(m, 2, scale=0.6)

    def test_digit_budget_gets_anharmonic_order_8_right(self):
        oracle = taylor_oracle(build_anharmonic_model(30, 0.1), 8)
        for n, c in enumerate(BENDER_WU, start=1):
            exact = float(c) * 0.1**n
            assert abs(oracle[n] - exact) <= 1e-9 * abs(exact)

    def test_too_few_digits_raise_instead_of_a_wrong_value(self):
        # at a fixed dps 40 the order-8 coefficient of this family used to
        # come back wrong (14009.7 for -0.31448 at basis 30) with no error
        with pytest.raises(FitConditioningError, match="c_8"):
            taylor_oracle(build_anharmonic_model(20, 0.1), 8, dps=40)

    def test_budget_keeps_dps_40_on_small_random_models(self):
        m = random_model(6)  # the noisiest fit of criterion 02's twenty models
        oracle = taylor_oracle(m, 6)
        assert oracle.coeffs.tolist() == taylor_oracle(m, 6, dps=40).coeffs.tolist()
        assert 0.0 < oracle.self_check <= 1e-6

    def test_index_bounds(self):
        m = two_level()
        oracle = taylor_oracle(m, 2)
        with pytest.raises(IndexError):
            oracle[0]
        with pytest.raises(IndexError):
            oracle[3]


class TestRSOracle:
    def test_bender_wu_through_order_8(self):
        oracle = rs_oracle(build_anharmonic_model(30, 0.1), 8)
        for n, c in enumerate(BENDER_WU, start=1):
            exact = float(c) * 0.1**n
            assert abs(oracle[n] - exact) <= 1e-12 * abs(exact)
        assert oracle.self_check <= 1e-30

    def test_two_level_closed_form(self):
        # E_0 = (a + D + c - sqrt((D + c - a)^2 + 4 b^2)) / 2 with a, b, c scaled by lambda
        delta, a, b, c = 1.0, 0.4, 0.1, -0.2
        oracle = rs_oracle(two_level(delta=delta, a=a, b=b, c=c), 3)
        assert oracle[1] == a
        assert oracle[2] == pytest.approx(-b * b / delta, rel=1e-15)
        assert oracle[3] == pytest.approx(b * b * (c - a) / delta**2, rel=1e-15)

    def test_zero_coupling_gives_zeros(self):
        m = SpectralModel(energies=np.array([0.0, 1.0]), wmat=np.zeros((2, 2)))
        oracle = rs_oracle(m, 4)
        assert np.all(oracle.coeffs == 0.0)
        assert oracle.self_check == 0.0

    def test_requires_an_order(self):
        with pytest.raises(ValueError, match="n_max"):
            rs_oracle(two_level(), 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10), coupling=st.floats(0.01, 0.6))
    def test_matches_evaluate_epsilons_to_order_10(self, seed, dim, coupling):
        m = random_model(seed, dim=dim, coupling_scale=coupling)
        eps = evaluate_epsilons(m, 10)
        oracle = rs_oracle(m, 10)
        for n in range(1, 11):
            assert abs(eps[n - 1] - oracle[n]) <= 1e-9 * max(abs(oracle[n]), 1e-10)
        assert oracle.self_check <= 1e-30

    def test_matches_taylor_oracle_to_order_6(self):
        for seed in range(3):
            m = random_model(seed)
            rs, fit = rs_oracle(m, 6), taylor_oracle(m, 6)
            for n in range(1, 7):
                assert abs(rs[n] - fit[n]) <= 1e-9 * max(abs(rs[n]), 1e-10)


class TestEvaluateEpsilons:
    def test_two_level_order_two(self):
        m = two_level(delta=1.0, a=0.0, b=0.1, c=0.0)
        eps = evaluate_epsilons(m, 2)
        assert eps[0] == pytest.approx(0.0, abs=1e-15)
        assert eps[1] == pytest.approx(-0.01, rel=1e-12)

    def test_zero_coupling(self):
        m = SpectralModel(energies=np.array([0.0, 1.0]), wmat=np.zeros((2, 2)))
        assert np.all(evaluate_epsilons(m, 6) == 0.0)

    def test_second_order_never_positive(self):
        for seed in range(12):
            m = random_model(seed)
            eps = evaluate_epsilons(m, 2)
            assert eps[1] <= 1e-15

    def test_matches_direct_symbolic_evaluation(self):
        from sptqmc.spectral import bind_gvars
        from sptqmc.symexpr import evaluate

        m = three_level()
        series = epsilon_series(5)
        eps = evaluate_epsilons(m, 5)
        for n in range(1, 6):
            expr = series[n].epsilon
            bindings = bind_gvars(m, expr.variables())
            assert eps[n - 1] == pytest.approx(
                evaluate(expr, bindings), rel=1e-12, abs=1e-15
            )


class TestAnharmonicModel:
    def test_ladder_element(self):
        # <0|x|1> = 1/sqrt(2) with hbar = m = omega = 1; visible through
        # the x^4 diagonal <0|x^4|0> = 3/4 at unit coupling
        m = build_anharmonic_model(30, 1.0)
        assert m.wmat[0, 0] == pytest.approx(0.75, rel=1e-12)

    def test_first_order_correction(self):
        m = build_anharmonic_model(40, 1.0)
        eps = evaluate_epsilons(m, 1)
        assert eps[0] == pytest.approx(0.75, rel=1e-12)

    def test_second_order_correction(self):
        m = build_anharmonic_model(40, 1.0)
        eps = evaluate_epsilons(m, 2)
        assert eps[1] == pytest.approx(-21.0 / 8.0, rel=1e-10)

    def test_quadratic_scaling_in_coupling(self):
        weak = evaluate_epsilons(build_anharmonic_model(40, 0.01), 2)
        assert weak[0] == pytest.approx(0.75 * 0.01, rel=1e-10)
        assert weak[1] == pytest.approx(-21.0 / 8.0 * 1e-4, rel=1e-8)

    def test_energies_are_level_indices(self):
        m = build_anharmonic_model(25, 0.5)
        assert np.array_equal(m.energies, np.arange(25, dtype=float))

    def test_minimum_basis_size(self):
        with pytest.raises(ValueError):
            build_anharmonic_model(10, 0.1)

    def test_ground_state_energy_behavior(self):
        small = ground_state_energy(build_anharmonic_model(60, 0.01))
        large = ground_state_energy(build_anharmonic_model(60, 0.2))
        assert 0.0 < small < large
        assert small == pytest.approx(0.75 * 0.01 - 21.0 / 8.0 * 1e-4, rel=1e-2)

    def test_ground_state_energy_coupling_argument(self):
        m = build_anharmonic_model(60, 1.0)
        scaled = ground_state_energy(m, coupling=0.1)
        direct = ground_state_energy(build_anharmonic_model(60, 0.1))
        assert scaled == pytest.approx(direct, rel=1e-12)


class TestRandomModel:
    def test_reproducible(self):
        a = random_model(seed=5)
        b = random_model(seed=5)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.wmat, b.wmat)

    def test_gap_guard_and_shape(self):
        for seed in range(30):
            m = random_model(seed)
            assert m.dim == 8
            assert m.energies[0] == 0.0
            assert m.gap >= 0.3
            assert np.all(np.diff(m.energies[1:]) >= 0)


class TestModelFiles:
    def test_explicit_arrays(self):
        text = """
        energies = [0.0, 1.0, 2.3]
        wmat = [[0.15, 0.30, -0.20],
                [0.30, -0.10, 0.25],
                [-0.20, 0.25, 0.05]]
        """
        m = parse_model_text(text)
        assert m.dim == 3
        assert m.wmat[0, 1] == pytest.approx(0.30)

    def test_builder_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "# comment line\nbuilder = anharmonic\nbasis_size = 25\nquartic_coupling = 0.5\n"
        )
        m = load_model(str(path))
        assert m.dim == 25
        assert m.wmat[0, 0] == pytest.approx(0.5 * 0.75, rel=1e-12)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ModelValidationError, match="duplicate"):
            parse_model_text("energies = [0.0, 1.0]\nenergies = [0.0, 2.0]\nwmat = [[0,0],[0,0]]")

    def test_unknown_builder(self):
        with pytest.raises(ModelValidationError):
            parse_model_text("builder = cubic\nbasis_size = 25\nquartic_coupling = 0.5")

    def test_missing_pieces(self):
        with pytest.raises(ModelValidationError):
            parse_model_text("energies = [0.0, 1.0]")

    def test_asymmetric_matrix_rejected_at_validation(self):
        text = "energies = [0.0, 1.0]\nwmat = [[0.0, 0.1], [0.3, 0.0]]"
        with pytest.raises(ModelValidationError):
            parse_model_text(text)
