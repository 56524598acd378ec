"""Exact-rational sparse polynomials in the formal variables g_m^(k).

A variable g_m^(k) stands for the k-th z-derivative of the order-m chain
sum g_m(z) evaluated at z = 0.  Expressions are maps from monomials to
exact rational coefficients, so equality against hand-derived results is
exact.  Floating point enters only through :func:`evaluate`.

The variable g_1 is z-independent, so its formal derivatives vanish;
:func:`g` returns the zero expression for (m=1, k>=1) and
:func:`differentiate_z` never produces such a factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

RationalLike = Union[Fraction, int]


class UnboundVariableError(KeyError):
    """Raised by evaluate() when a variable has no binding."""


@dataclass(frozen=True, order=True)
class GVar:
    """Formal variable g_m^(k); ordered lexicographically by (order, deriv)."""

    order: int
    deriv: int = 0

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"GVar order must be >= 1, got {self.order}")
        if self.deriv < 0:
            raise ValueError(f"GVar deriv must be >= 0, got {self.deriv}")

    def __str__(self) -> str:
        if self.deriv:
            return f"g{self.order}^({self.deriv})"
        return f"g{self.order}"


class GMonomial:
    """Product of GVar powers in canonical (sorted, no zero exponent) form."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[GVar, int] | Iterable[tuple[GVar, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        merged: dict[GVar, int] = {}
        for var, exp in items:
            if not isinstance(var, GVar):
                raise TypeError(f"GMonomial factor keys must be GVar, got {var!r}")
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for {var}")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        # canonical key: factors sorted by the GVar total order
        object.__setattr__(self, "_factors", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GMonomial is immutable")

    @property
    def factors(self) -> tuple[tuple[GVar, int], ...]:
        return self._factors

    def degree(self) -> int:
        """Total degree, the sum of exponents."""
        return sum(e for _, e in self._factors)

    def weight(self) -> int:
        """Perturbative order, the sum of (variable order) * exponent."""
        return sum(v.order * e for v, e in self._factors)

    def __mul__(self, other: "GMonomial") -> "GMonomial":
        return GMonomial(self._factors + other._factors)

    def sort_key(self) -> tuple:
        """Graded lexicographic key: (total degree, sorted variable list)."""
        return (self.degree(), tuple((v.order, v.deriv, e) for v, e in self._factors))

    def __iter__(self) -> Iterator[tuple[GVar, int]]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __hash__(self) -> int:
        return hash(self._factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, GMonomial) and self._factors == other._factors

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        parts = []
        for var, exp in self._factors:
            text = str(var)
            if exp > 1:
                text += f"^{exp}"
            parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"GMonomial({self._factors!r})"


_ONE = GMonomial()


class GExpression:
    """Polynomial: map from GMonomial to exact rational coefficient.

    The zero polynomial is the empty map; zero coefficients are never
    stored.  Instances are immutable and all arithmetic returns new
    objects, so expressions are safe to share and to memoize.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[GMonomial, RationalLike] | Iterable[tuple[GMonomial, RationalLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[GMonomial, Fraction] = {}
        for mono, coeff in items:
            if not isinstance(mono, GMonomial):
                raise TypeError(f"GExpression keys must be GMonomial, got {mono!r}")
            _accumulate(clean, mono, Fraction(coeff))
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GExpression is immutable")

    @classmethod
    def zero(cls) -> "GExpression":
        return cls()

    @classmethod
    def constant(cls, value: RationalLike) -> "GExpression":
        return cls({_ONE: Fraction(value)})

    @property
    def terms(self) -> dict[GMonomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, mono: GMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[GVar]:
        out: set[GVar] = set()
        for mono in self._terms:
            for var, _ in mono:
                out.add(var)
        return out

    def sorted_terms(self) -> list[tuple[GMonomial, Fraction]]:
        """Terms in the canonical graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    # ring operations -------------------------------------------------

    def __add__(self, other) -> "GExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            _accumulate(merged, mono, coeff)
        return _wrap(merged)

    __radd__ = __add__

    def __neg__(self) -> "GExpression":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "GExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "GExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "GExpression":
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            if not scale:
                return GExpression()
            return _wrap({m: c * scale for m, c in self._terms.items()})
        if not isinstance(other, GExpression):
            return NotImplemented
        out: dict[GMonomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                _accumulate(out, ma * mb, ca * cb)
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GExpression":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GExpression.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return render_text(self)

    def __repr__(self) -> str:
        return f"GExpression<{render_text(self)}>"


def _accumulate(terms: dict[GMonomial, Fraction], mono: GMonomial, coeff: Fraction) -> None:
    """Add coeff to the coefficient of mono in terms; a zero sum is not stored."""
    total = terms[mono] + coeff if mono in terms else coeff
    if total:
        terms[mono] = total
    else:
        terms.pop(mono, None)


def _wrap(terms: dict[GMonomial, Fraction]) -> GExpression:
    out = GExpression.__new__(GExpression)
    object.__setattr__(out, "_terms", terms)
    return out


def _coerce(value) -> GExpression:
    if isinstance(value, GExpression):
        return value
    if isinstance(value, (int, Fraction)):
        return GExpression.constant(value)
    return NotImplemented


def g(m: int, k: int = 0) -> GExpression:
    """Single-variable expression g_m^(k); zero for m = 1, k >= 1."""
    if m == 1 and k >= 1:
        return GExpression()
    return GExpression({GMonomial({GVar(m, k): 1}): Fraction(1)})


def differentiate_z(expr: GExpression) -> GExpression:
    """Formal d/dz: g_m^(k) -> g_m^(k+1), with g_1 treated as constant."""
    out: dict[GMonomial, Fraction] = {}
    for mono, coeff in expr._terms.items():
        factors = mono.factors
        for var, exp in factors:
            if var.order == 1:
                continue
            bumped = dict(factors)
            bumped[var] = exp - 1  # GMonomial drops a zero exponent
            up = GVar(var.order, var.deriv + 1)
            bumped[up] = bumped.get(up, 0) + 1
            _accumulate(out, GMonomial(bumped), coeff * exp)
    return _wrap(out)


def evaluate(expr: GExpression, bindings: Mapping[GVar, float]) -> float:
    """Numeric value of the polynomial under the given variable bindings.

    Terms are summed in canonical order so the result is deterministic.
    Raises UnboundVariableError naming the first missing variable.
    """
    total = 0.0
    for mono, coeff in expr.sorted_terms():
        value = float(coeff)
        for var, exp in mono:
            try:
                bound = bindings[var]
            except KeyError:
                raise UnboundVariableError(f"no binding for {var}") from None
            value *= float(bound) ** exp
        total += value
    return total


def render_text(expr: GExpression) -> str:
    """Canonical plain-text rendering, e.g. '-1/2 g1^2 g2^(2)'."""
    terms = expr.sorted_terms()
    if not terms:
        return "0"
    pieces: list[str] = []
    for index, (mono, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        magnitude = abs(coeff)
        if len(mono) == 0:
            body = str(magnitude)
        elif magnitude == 1:
            body = str(mono)
        else:
            body = f"{magnitude} {mono}"
        if index == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render_json(expr: GExpression) -> dict:
    """JSON-ready rendering with exact integer numerators/denominators."""
    terms = []
    for mono, coeff in expr.sorted_terms():
        terms.append({
            "coeff_num": coeff.numerator,
            "coeff_den": coeff.denominator,
            "factors": [
                {"m": var.order, "k": var.deriv, "exp": exp}
                for var, exp in mono
            ],
        })
    return {"terms": terms}
