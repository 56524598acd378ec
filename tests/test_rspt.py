"""Perturbative-correction generation: Bell polynomials and recursions."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptqmc.rspt import (
    MissingOrderError,
    OrderCapError,
    epsilon_series,
    gamma_naughts,
    lambda_naughts,
    ordinary_bell,
    render_sum_over_states,
)
from sptqmc.symexpr import GExpression, g

F = Fraction


def golden_epsilons() -> dict:
    """The first six corrections, written out monomial by monomial."""
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


def monomial_weight(mono) -> int:
    return sum(var.order * exp for var, exp in mono)


class TestOrdinaryBell:
    def test_single_partition(self):
        assert ordinary_bell(1, 1) == g(1)

    def test_diagonal_is_power(self):
        assert ordinary_bell(4, 4) == g(1) ** 4

    def test_two_block_example(self):
        assert ordinary_bell(3, 2) == 2 * g(1) * g(2)

    def test_first_column_is_gn(self):
        for n in range(1, 7):
            assert ordinary_bell(n, 1) == g(n)

    def test_known_4_2(self):
        # partitions of 4 into 2 parts: 1+3 (mult 2), 2+2 (mult 1)
        assert ordinary_bell(4, 2) == 2 * g(1) * g(3) + g(2) ** 2

    def test_argument_range(self):
        with pytest.raises(ValueError):
            ordinary_bell(3, 0)
        with pytest.raises(ValueError):
            ordinary_bell(3, 4)
        with pytest.raises(ValueError):
            ordinary_bell(0, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_weight_and_degree_homogeneity(self, n, data):
        l = data.draw(st.integers(1, n))
        expr = ordinary_bell(n, l)
        for mono, coeff in expr.sorted_terms():
            assert monomial_weight(mono) == n
            assert mono.degree() == l
            assert coeff > 0

    def test_sum_over_ordered_compositions(self):
        # the definition: B_{n,l} sums prod g_{k_i} over (k_1..k_l), k_i >= 1, sum k_i = n
        for n in range(1, 11):
            for l in range(1, n + 1):
                expected = GExpression()
                for parts in itertools.product(range(1, n - l + 2), repeat=l):
                    if sum(parts) == n:
                        term = GExpression.constant(1)
                        for k in parts:
                            term = term * g(k)
                        expected = expected + term
                assert ordinary_bell(n, l) == expected, f"B_({n},{l})"

    def test_row_sum_counts_compositions(self):
        # sum over l of B_{n,l} evaluated at g_k = 1 counts compositions of n
        for n in range(1, 8):
            total = 0
            for l in range(1, n + 1):
                expr = ordinary_bell(n, l)
                total += sum(
                    coeff * 1 for _, coeff in expr.sorted_terms()
                )
            assert total == 2 ** (n - 1)


class TestLambdaNaughts:
    def test_order_1(self):
        lam, lamdot = lambda_naughts(1)
        assert lam == GExpression()
        assert lamdot == g(1)

    def test_order_2(self):
        lam, lamdot = lambda_naughts(2)
        assert lam == g(2, 1)
        assert lamdot == g(2)

    def test_order_3(self):
        lam, lamdot = lambda_naughts(3)
        assert lam == g(3, 1) + g(1) * g(2, 2)
        assert lamdot == g(3) + 2 * g(1) * g(2, 1)

    def test_argument_range(self):
        with pytest.raises(ValueError):
            lambda_naughts(0)


class TestGammaNaughts:
    def test_order_1_empty_cache(self):
        gamma, gammadot = gamma_naughts(1, {})
        assert gamma == GExpression()
        assert gammadot == g(1)

    def test_order_2_matches_lambda(self):
        series = epsilon_series(1)
        gamma, gammadot = gamma_naughts(2, series)
        assert gamma == g(2, 1)
        assert gammadot == g(2)

    def test_order_3_hand_value(self):
        series = epsilon_series(2)
        gamma, gammadot = gamma_naughts(3, series)
        assert gammadot == g(3) + g(1) * g(2, 1)

    def test_missing_lower_order(self):
        series = epsilon_series(3)
        partial = {1: series[1], 3: series[3]}
        with pytest.raises(MissingOrderError):
            gamma_naughts(4, partial)


class TestEpsilonSeries:
    def test_golden_box(self):
        series = epsilon_series(6)
        for n, expected in golden_epsilons().items():
            assert series[n].epsilon == expected, f"order {n} mismatch"

    def test_monomial_counts(self):
        series = epsilon_series(6)
        counts = [len(series[n].epsilon.sorted_terms()) for n in range(1, 7)]
        assert counts == [1, 1, 2, 4, 8, 15]

    def test_epsilon_sign_relation(self):
        series = epsilon_series(6)
        for n, result in series.items():
            sign = 1 if n % 2 else -1
            assert result.epsilon == sign * result.gammadot0

    def test_order_homogeneity(self):
        series = epsilon_series(6)
        for n, result in series.items():
            for mono, _ in result.epsilon.sorted_terms():
                assert monomial_weight(mono) == n

    def test_monomial_weight_is_the_order(self):
        series = epsilon_series(8)
        for n, result in series.items():
            assert all(mono.weight() == n for mono in result.epsilon.terms)

    def test_no_g1_derivatives(self):
        series = epsilon_series(8, order_cap=10)
        for result in series.values():
            for var in result.epsilon.variables():
                assert not (var.order == 1 and var.deriv >= 1)

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            epsilon_series(11)
        series = epsilon_series(11, order_cap=11)
        assert 11 in series

    def test_argument_range(self):
        with pytest.raises(ValueError):
            epsilon_series(0)

    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_series_round_trips(self, clone):
        series = epsilon_series(4)
        twin = clone(series)
        assert twin == series
        assert repr(twin) == repr(series)
        for n, result in series.items():
            for name in ("lambda0", "lambdadot0", "gamma0", "gammadot0", "epsilon"):
                assert type(getattr(twin[n], name)) is GExpression


class TestRenderSumOverStates:
    def test_g1(self):
        assert render_sum_over_states(g(1)) == "W_{00}"

    def test_g2(self):
        assert render_sum_over_states(g(2)) == "Σ'_k W_{0k} W_{k0} / E_k"

    def test_minus_g2(self):
        assert render_sum_over_states(-g(2)) == "-Σ'_k W_{0k} W_{k0} / E_k"

    def test_g3_multi_index(self):
        expected = "Σ'_{k1 k2} W_{0k2} W_{k2k1} W_{k10} / (E_{k2} E_{k1})"
        assert render_sum_over_states(g(3)) == expected

    def test_derivative_folds_h_factor(self):
        assert (
            render_sum_over_states(g(2, 1))
            == "-Σ'_k W_{0k} W_{k0} h_1(1/E_k) / E_k"
        )

    def test_epsilon_3_text(self):
        series = epsilon_series(3)
        text = render_sum_over_states(series[3].epsilon)
        assert "Σ'_{k1 k2}" in text
        assert "W_{00}" in text
        assert "h_1(1/E_k)" in text

    def test_zero(self):
        assert render_sum_over_states(GExpression()) == "0"
