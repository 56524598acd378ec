"""Ground-state energy corrections to arbitrary order, symbolically.

The n-th correction is assembled in three stages, all exact:

  1. ordinary Bell polynomials B_{n,l} in the chain variables g_m,
  2. moment coefficients lambda_n and lambda-dot_n, obtained by applying
     l and l-1 formal z-derivatives to B_{n,l} with 1/l! and 1/(l-1)!
     weights,
  3. reduced cumulants gamma_n and gamma-dot_n through a convolution
     recursion, with epsilon_n = (-1)^(n+1) gamma-dot_n.

Everything is a :class:`~sptqmc.symexpr.GExpression`, so results can be
compared term by term against hand calculations and then evaluated on a
concrete spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import MissingOrderError, OrderCapError
from .symexpr import GExpression, GMonomial, differentiate_z, g

DEFAULT_ORDER_CAP = 10


@dataclass(frozen=True)
class PTOrderResult:
    """All intermediate quantities for one perturbative order."""

    order: int
    lambda0: GExpression
    lambdadot0: GExpression
    gamma0: GExpression
    gammadot0: GExpression
    epsilon: GExpression


@lru_cache(maxsize=None)
def ordinary_bell(n: int, l: int) -> GExpression:
    """Ordinary Bell polynomial B_{n,l}(g_1, ..., g_{n-l+1}).

    The coefficient of x^n in (sum_k g_k x^k)^l.  Splitting off one factor
    of the power gives B_{n,1} = g_n and the convolution
    B_{n,l} = sum_{k=1}^{n-l+1} g_k B_{n-k,l-1}.
    """
    if l < 1 or l > n:
        raise ValueError(f"ordinary_bell requires 1 <= l <= n, got n={n}, l={l}")
    if l == 1:
        return g(n)
    return sum((g(k) * ordinary_bell(n - k, l - 1) for k in range(1, n - l + 2)), GExpression())


@lru_cache(maxsize=None)
def lambda_naughts(n: int) -> tuple[GExpression, GExpression]:
    """Moment coefficients (lambda_n, lambda-dot_n) as exact expressions.

    One derivative chain per Bell polynomial: l-1 z-derivatives of B_{n,l}
    feed lambda-dot_n, and one more feeds lambda_n.
    """
    if n < 1:
        raise ValueError(f"lambda_naughts requires n >= 1, got {n}")
    lam = GExpression()
    lamdot = GExpression()
    for l in range(1, n + 1):
        deriv = ordinary_bell(n, l)
        for _ in range(l - 1):
            deriv = differentiate_z(deriv)
        lamdot = lamdot + Fraction(1, math.factorial(l - 1)) * deriv
        lam = lam + Fraction(1, math.factorial(l)) * differentiate_z(deriv)
    return lam, lamdot


def gamma_naughts(n: int, lower: Mapping[int, PTOrderResult]) -> tuple[GExpression, GExpression]:
    """Reduced cumulants (gamma_n, gamma-dot_n) from orders below n.

    gamma_n = lambda_n - sum_{k=1}^{n-1} ((n-k)/n) gamma_{n-k} lambda_k
    and the product-rule analogue for gamma-dot_n.  ``lower`` must hold a
    PTOrderResult for every order 1 <= k < n.
    """
    if n < 1:
        raise ValueError(f"gamma_naughts requires n >= 1, got {n}")
    for k in range(1, n):
        if k not in lower:
            raise MissingOrderError(f"gamma_naughts({n}) needs order {k} in the cache")
    lam, lamdot = lambda_naughts(n)
    gamma = lam
    gammadot = lamdot
    for k in range(1, n):
        frac = Fraction(n - k, n)
        prev = lower[n - k]
        lam_k, lamdot_k = lambda_naughts(k)
        gamma = gamma - frac * (prev.gamma0 * lam_k)
        gammadot = gammadot - frac * (prev.gammadot0 * lam_k + prev.gamma0 * lamdot_k)
    return gamma, gammadot


def epsilon_series(n_max: int, order_cap: int = DEFAULT_ORDER_CAP) -> dict[int, PTOrderResult]:
    """Corrections epsilon_1 .. epsilon_{n_max} with all intermediates.

    >>> str(epsilon_series(2)[2].epsilon)
    '-g2'
    """
    if n_max < 1:
        raise ValueError(f"epsilon_series requires n_max >= 1, got {n_max}")
    if n_max > order_cap:
        raise OrderCapError(
            f"order {n_max} exceeds the cap of {order_cap}; raise order_cap explicitly"
        )
    results: dict[int, PTOrderResult] = {}
    for n in range(1, n_max + 1):
        lam, lamdot = lambda_naughts(n)
        gamma, gammadot = gamma_naughts(n, results)
        sign = 1 if n % 2 else -1
        results[n] = PTOrderResult(
            order=n,
            lambda0=lam,
            lambdadot0=lamdot,
            gamma0=gamma,
            gammadot0=gammadot,
            epsilon=sign * gammadot,
        )
    return results


def _chain_factor(m: int, l: int) -> str:
    """Primed sum for one g_m^(l) factor, without its l!(-1)^l prefactor."""
    if m == 1:
        return "W_{00}"
    if m == 2:
        body = "Σ'_k W_{0k} W_{k0}"
        if l:
            body += f" h_{l}(1/E_k)"
        return body + " / E_k"
    indices = [f"k{i}" for i in range(1, m)]
    mats = [f"W_{{0{indices[-1]}}}"]
    for a, b in zip(reversed(indices), reversed(indices[:-1])):
        mats.append(f"W_{{{a}{b}}}")
    mats.append(f"W_{{{indices[0]}0}}")
    body = f"Σ'_{{{' '.join(indices)}}} {' '.join(mats)}"
    if l:
        args = ", ".join(f"1/E_{{{i}}}" for i in indices)
        body += f" h_{l}({args})"
    denom = " ".join(f"E_{{{i}}}" for i in reversed(indices))
    return f"{body} / ({denom})"


def _monomial_sum_over_states(mono: GMonomial, coeff: Fraction) -> tuple[Fraction, str]:
    """One monomial as (prefactor, product of explicit sums) pieces."""
    front = coeff
    pieces: list[str] = []
    for var, exp in mono:
        # each block of l derivatives contributes l!(-1)^l times an h_l factor
        sign = -1 if var.deriv % 2 else 1
        front *= (sign * math.factorial(var.deriv)) ** exp
        text = _chain_factor(var.order, var.deriv)
        if len(mono) > 1 or exp > 1:
            if var.order > 1:
                text = f"[{text}]"
            if exp > 1:
                text += f"^{exp}"
        pieces.append(text)
    body = " ".join(pieces) if pieces else "1"
    return front, body


def render_sum_over_states(expr: GExpression) -> str:
    """Render an expression as explicit primed sums over excited states.

    g_1 becomes W_{00}; g_m becomes a chain of m matrix elements summed
    over m - 1 excited-state indices and divided by the excitation
    energies; each block of l z-derivatives folds l!(-1)^l into the
    coefficient and appends a complete homogeneous symmetric factor h_l
    in the inverse excitation energies of its own sum.
    """
    terms = expr.sorted_terms()
    if not terms:
        return "0"
    parts: list[str] = []
    for mono, coeff in terms:
        front, body = _monomial_sum_over_states(mono, coeff)
        magnitude = abs(front)
        text = body if magnitude == 1 else f"{magnitude} {body}"
        if not parts:
            parts.append(text if front > 0 else f"-{text}")
        else:
            parts.append(("  +  " if front > 0 else "  -  ") + text)
    return "".join(parts)
