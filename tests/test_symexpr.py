"""Exact polynomial algebra over the g_m^(k) symbols."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptqmc.symexpr import (
    GExpression,
    GMonomial,
    GVar,
    UnboundVariableError,
    differentiate_z,
    evaluate,
    g,
    render_json,
    render_text,
)

# pool kept small so products stay readable; (1, k>0) excluded since those vanish
VAR_POOL = [(1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]

# fixed, exactly representable bindings for every pooled variable
BINDINGS = {
    GVar(1, 0): 0.5,
    GVar(2, 0): -0.25,
    GVar(2, 1): 1.5,
    GVar(2, 2): 0.125,
    GVar(3, 0): -2.0,
    GVar(3, 1): 0.75,
    GVar(4, 0): 3.0,
}

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda f: f != 0
)


@st.composite
def monomial_expressions(draw):
    expr = GExpression.constant(Fraction(1))
    for _ in range(draw(st.integers(1, 3))):
        m, k = draw(st.sampled_from(VAR_POOL))
        expr = expr * g(m, k)
    return expr


@st.composite
def expressions(draw):
    expr = GExpression()
    for _ in range(draw(st.integers(0, 4))):
        expr = expr + draw(coefficients) * draw(monomial_expressions())
    return expr


class TestConstruction:
    def test_gvar_requires_positive_order(self):
        with pytest.raises(ValueError):
            GVar(0, 0)
        with pytest.raises(ValueError):
            GVar(2, -1)

    def test_g1_derivatives_vanish(self):
        assert g(1, 1) == 0
        assert g(1, 3) == GExpression()

    def test_zero_coefficients_are_dropped(self):
        assert g(2) - g(2) == GExpression()
        assert len((g(2) - g(2)).sorted_terms()) == 0

    def test_expression_is_immutable(self):
        expr = g(2)
        with pytest.raises(AttributeError):
            expr.anything = 1

    def test_monomial_factor_order_is_canonical(self):
        assert g(2) * g(1) == g(1) * g(2)
        assert g(3, 1) * g(2) * g(3, 1) == g(2) * g(3, 1) ** 2


class TestCopying:
    """Pickle and both copies rebuild an equal value of the same type and repr."""

    @pytest.mark.parametrize(
        "value",
        [GVar(2, 1), GMonomial({GVar(2, 1): 2}), g(2, 1) * g(3)],
        ids=["gvar", "monomial", "expression"],
    )
    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, value, clone):
        twin = clone(value)
        assert twin == value
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)

    def test_reprs(self):
        assert repr(GVar(2, 1)) == "GVar(order=2, deriv=1)"
        assert repr(GMonomial({GVar(2, 1): 2})) == "GMonomial(((GVar(order=2, deriv=1), 2),))"


class TestArithmeticExamples:
    def test_additive_identity(self):
        assert g(2) + GExpression() == g(2)

    def test_additive_inverse(self):
        assert g(2) + (-1) * g(2) == GExpression()

    def test_like_term_merge(self):
        a = g(3) + g(1) * g(2, 1)
        b = g(1) * g(2, 1)
        assert a + b == g(3) + 2 * g(1) * g(2, 1)

    def test_exponent_addition(self):
        assert g(1) * g(1) == g(1) ** 2

    def test_distributivity_example(self):
        assert (g(1) + g(2)) * g(2, 1) == g(1) * g(2, 1) + g(2) * g(2, 1)

    def test_multiplicative_identity(self):
        assert GExpression.constant(Fraction(1)) * g(4) == g(4)

    def test_integer_and_fraction_coefficients(self):
        expr = Fraction(1, 3) * g(2) + Fraction(2, 3) * g(2)
        assert expr == g(2)

    def test_subtraction_and_negation(self):
        assert g(2) - g(3) == g(2) + (-1) * g(3)
        assert -(g(2) - g(3)) == g(3) - g(2)

    def test_power(self):
        assert g(2) ** 3 == g(2) * g(2) * g(2)
        assert g(2) ** 0 == GExpression.constant(Fraction(1))


class TestRingLaws:
    @settings(max_examples=60)
    @given(expressions(), expressions(), expressions())
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @settings(max_examples=60)
    @given(expressions(), expressions(), expressions())
    def test_multiplication_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=60)
    @given(expressions(), expressions(), expressions())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestNoZeroCoefficients:
    """Every operation drops a coefficient that cancels to zero."""

    @settings(max_examples=60)
    @given(expressions(), expressions())
    def test_ring_operations(self, a, b):
        for result in (a + b, a - b, a * b, a - a, differentiate_z(a)):
            assert 0 not in result.terms.values()
        assert not (a - a).terms

    @settings(max_examples=60)
    @given(expressions())
    def test_construction_merges_and_drops(self, a):
        pairs = list(a.terms.items()) + [(m, -c) for m, c in a.terms.items()] + [(GMonomial(), 0)]
        assert not GExpression(pairs).terms
        assert GExpression(list(a.terms.items()) * 2) == 2 * a


class TestDifferentiation:
    def test_single_variable_rule(self):
        assert differentiate_z(g(2)) == g(2, 1)

    def test_product_rule_with_constant_g1(self):
        assert differentiate_z(g(1) * g(2)) == g(1) * g(2, 1)

    def test_power_rule(self):
        assert differentiate_z(g(2) ** 2) == 2 * g(2) * g(2, 1)

    @settings(max_examples=60)
    @given(expressions(), expressions())
    def test_linearity(self, a, b):
        assert differentiate_z(a + b) == differentiate_z(a) + differentiate_z(b)

    @settings(max_examples=60)
    @given(expressions(), expressions())
    def test_leibniz(self, a, b):
        lhs = differentiate_z(a * b)
        rhs = differentiate_z(a) * b + a * differentiate_z(b)
        assert lhs == rhs


class TestEvaluate:
    def test_spec_style_examples(self):
        assert evaluate(g(1), {GVar(1, 0): 0.25}) == 0.25
        assert evaluate(-g(2), {GVar(2, 0): 0.04}) == -0.04
        value = evaluate(
            g(3) + g(1) * g(2, 1),
            {GVar(3, 0): 0.0, GVar(1, 0): 0.5, GVar(2, 1): -0.2},
        )
        assert value == pytest.approx(-0.1, rel=1e-12)

    def test_unbound_variable_named(self):
        with pytest.raises(UnboundVariableError, match="g2"):
            evaluate(g(2), {})
        with pytest.raises(UnboundVariableError, match=r"g3\^\(1\)"):
            evaluate(g(3, 1), {GVar(3, 0): 1.0})

    @settings(max_examples=60)
    @given(expressions(), expressions())
    def test_ring_homomorphism(self, a, b):
        va = evaluate(a, BINDINGS)
        vb = evaluate(b, BINDINGS)
        vsum = evaluate(a + b, BINDINGS)
        vprod = evaluate(a * b, BINDINGS)
        assert vsum == pytest.approx(va + vb, rel=1e-12, abs=1e-12)
        assert vprod == pytest.approx(va * vb, rel=1e-12, abs=1e-12)

    def test_evaluation_of_constant(self):
        assert evaluate(GExpression.constant(Fraction(3, 2)), {}) == 1.5


class TestRendering:
    def test_text_examples(self):
        assert render_text(GExpression()) == "0"
        assert render_text(Fraction(-1, 2) * g(1) ** 2 * g(2, 2)) == "-1/2 g1^2 g2^(2)"
        assert render_text(g(3) + g(1) * g(2, 1)) == "g3 + g1 g2^(1)"
        assert render_text(-g(2)) == "-g2"

    def test_text_ordering_graded_lex(self):
        # degree-1 terms precede degree-2 terms regardless of insertion order
        expr = g(1) * g(2) + g(4)
        assert render_text(expr) == "g4 + g1 g2"

    def test_json_structure(self):
        doc = render_json(-g(2))
        assert doc == {
            "terms": [
                {"coeff_num": -1, "coeff_den": 1, "factors": [{"m": 2, "k": 0, "exp": 1}]}
            ]
        }

    def test_json_round_trips_through_evaluate(self):
        expr = Fraction(1, 6) * g(1) ** 3 * g(2, 3) - g(4)
        doc = render_json(expr)
        total = 0.0
        bindings = {GVar(1, 0): 0.5, GVar(2, 3): -2.0, GVar(4, 0): 0.25}
        for term in doc["terms"]:
            value = term["coeff_num"] / term["coeff_den"]
            for factor in term["factors"]:
                value *= bindings[GVar(factor["m"], factor["k"])] ** factor["exp"]
            total += value
        assert total == pytest.approx(evaluate(expr, bindings), rel=1e-12)

    @settings(max_examples=40)
    @given(expressions())
    def test_render_text_deterministic(self, a):
        assert render_text(a) == render_text(a + GExpression())
