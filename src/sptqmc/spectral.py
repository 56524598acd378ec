"""Finite-dimensional spectral models and exact-diagonalization oracles.

A model is a split Hamiltonian H = diag(E) + W with the ground level
pinned at E_0 = 0.  This module evaluates the chain sums g_n^(l) that
the symbolic corrections are written in, and provides three independent
oracles for cross-checking them: the textbook Rayleigh-Schrodinger
wavefunction recursion, a Laurent fit of the resolvent-like sums G_n(z),
and a Taylor fit of the exact ground-state energy E_0(lambda) from
repeated diagonalization.

Sign convention: g_n^(l) carries the prefactor l!(-1)^l, the sign forced
by the generating function of the complete homogeneous polynomials and
by epsilon_2 = -g_2 <= 0.  The oracles pin this convention down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from mpmath import mp

from . import keyvalue, rspt
from .errors import DegeneracyError, FitConditioningError, ModelValidationError
from .symexpr import GVar, evaluate

SYMMETRY_TOL = 1e-12
# an oracle coefficient must be known to this fraction of max(|c_n|, 1e-10)
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class SpectralModel:
    """Unperturbed energies E_0..E_{D-1} plus a symmetric coupling matrix."""

    energies: np.ndarray
    wmat: np.ndarray

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        wmat = np.asarray(self.wmat, dtype=float)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "wmat", wmat)
        if energies.ndim != 1 or energies.size < 2:
            raise ModelValidationError("energies must be a vector of length >= 2")
        if energies[0] != 0.0:
            raise ModelValidationError(f"E_0 must be exactly 0, got {energies[0]!r}")
        if np.any(energies[1:] <= 0.0):
            raise ModelValidationError("excited energies must be strictly positive")
        if wmat.shape != (energies.size, energies.size):
            raise ModelValidationError(
                f"wmat shape {wmat.shape} does not match {energies.size} levels"
            )
        asym = np.max(np.abs(wmat - wmat.T)) if wmat.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ModelValidationError(f"wmat asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def gap(self) -> float:
        """Unperturbed ground-state gap E_1."""
        return float(self.energies[1])


@dataclass(frozen=True)
class TaylorCoefficients:
    """Taylor coefficients c_1..c_N of E_0(lambda) at lambda = 0.

    self_check is the oracle's own largest relative doubt about a c_n,
    over max(|c_n|, 1e-10); rs_oracle and taylor_oracle say how.
    """

    coeffs: np.ndarray
    self_check: float

    def __getitem__(self, n: int) -> float:
        if n < 1 or n > self.coeffs.size:
            raise IndexError(f"order {n} outside 1..{self.coeffs.size}")
        return float(self.coeffs[n - 1])


def g_value(model: SpectralModel, n: int, l: int) -> float:
    """Numeric value of g_n^(l) for the model.

    g_n^(l) = l!(-1)^l Sum' chain(W)/prod(E) * h_l(1/E over the chain),
    with the primed sum excluding the ground index.  Evaluated by l+1
    coupled matrix-vector passes over the excited subspace: slot r of
    pass i holds the chain partial sums with r derivative slots already
    distributed over the denominators crossed so far.
    """
    if n < 1:
        raise ValueError(f"g_value requires n >= 1, got {n}")
    if l < 0:
        raise ValueError(f"g_value requires l >= 0, got {l}")
    if n == 1:
        return float(model.wmat[0, 0]) if l == 0 else 0.0
    inv = 1.0 / model.energies[1:]
    w0 = model.wmat[1:, 0]
    wqq = model.wmat[1:, 1:]
    # inv powers 1..l+1 reused across passes
    powers = [inv ** (1 + r) for r in range(l + 1)]
    slots = [powers[r] * w0 for r in range(l + 1)]
    for _ in range(n - 2):
        pushed = [wqq @ v for v in slots]
        slots = [
            sum(powers[s] * pushed[r - s] for s in range(r + 1))
            for r in range(l + 1)
        ]
    sign = -1.0 if l % 2 else 1.0
    return float(math.factorial(l) * sign * (w0 @ slots[l]))


def bind_gvars(model: SpectralModel, variables: Sequence[GVar]) -> dict[GVar, float]:
    """Bindings {g_m^(k): value} for evaluating symbolic expressions."""
    return {var: g_value(model, var.order, var.deriv) for var in set(variables)}


def evaluate_epsilons(model: SpectralModel, n_max: int, order_cap: int = rspt.DEFAULT_ORDER_CAP) -> np.ndarray:
    """Numeric corrections epsilon_1..epsilon_{n_max} for the model."""
    series = rspt.epsilon_series(n_max, order_cap=order_cap)
    needed: set[GVar] = set()
    for result in series.values():
        needed |= result.epsilon.variables()
    bindings = bind_gvars(model, sorted(needed))
    return np.array([evaluate(series[n].epsilon, bindings) for n in range(1, n_max + 1)])


def evaluate_lambdas(model: SpectralModel, n: int) -> tuple[float, float]:
    """Numeric (lambda_n, lambda-dot_n), the Laurent oracle's targets."""
    lam, lamdot = rspt.lambda_naughts(n)
    needed = sorted(lam.variables() | lamdot.variables())
    bindings = bind_gvars(model, needed)
    return evaluate(lam, bindings), evaluate(lamdot, bindings)


def _mp_polyfit(us, values, degree: int):
    """Least-squares polynomial fit at the working mp precision.

    Returns the coefficients of u^0..u^degree, the largest absolute
    residual over the points, and the error each coefficient inherits
    from noise of that residual's size in the values.
    """
    vander = mp.matrix(len(us), degree + 1)
    for i, u in enumerate(us):
        acc = mp.mpf(1)
        for j in range(degree + 1):
            vander[i, j] = acc
            acc *= u
    rhs = mp.matrix(values)
    coeffs = mp.qr_solve(vander, rhs)[0]
    fitted = vander * coeffs
    resid = max(abs(fitted[i] - rhs[i]) for i in range(len(us)))
    cov = mp.inverse(vander.T * vander)
    return coeffs, resid, [resid * mp.sqrt(cov[j, j]) for j in range(degree + 1)]


def laurent_oracle(
    model: SpectralModel,
    n: int,
    *,
    dps: int = 50,
    scale: float = 0.002,
) -> tuple[float, float]:
    """Coefficients of z^1 and z^0 of G_n(z), by literal summation and fit.

    G_n(z) is summed over all index chains (ground index included, so the
    function has poles at z = 0 up to order n-1) on a small symmetric
    z-grid; z^{n-1} G_n(z) is polynomial and is fitted at high precision.
    Returns (coefficient of z^1, coefficient of z^0), directly comparable
    to the symbolic lambda_n and lambda-dot_n.

    The grid spans scale * E_1, far inside the first pole at z = -E_1;
    raising scale toward 1 degrades the polynomial truncation and trips
    the conditioning check, a fit residual above 1e-10 of the largest value.
    """
    if n < 1:
        raise ValueError(f"laurent_oracle requires n >= 1, got {n}")
    if n == 1:
        return 0.0, float(model.wmat[0, 0])
    degree = n + 5
    half_points = degree + 4
    zmax = scale * model.gap
    with mp.workdps(dps):
        energies = [mp.mpf(e) for e in model.energies]
        wmat = [[mp.mpf(model.wmat[i, j]) for j in range(model.dim)] for i in range(model.dim)]
        zs = [mp.mpf(j) * zmax / half_points for j in range(-half_points, half_points + 1) if j != 0]

        def chain_sum(z):
            total = mp.mpf(0)
            # literal sum over all chains 0 -> k_1 -> ... -> k_{n-1} -> 0, ground index included
            for chain in itertools.product(range(model.dim), repeat=n - 1):
                num = wmat[0][chain[0]]
                for a, b in zip(chain, chain[1:]):
                    num *= wmat[a][b]
                num *= wmat[chain[-1]][0]
                den = mp.mpf(1)
                for k in reversed(chain):
                    den *= energies[k] + z
                total += num / den
            return total

        values = [chain_sum(z) * z ** (n - 1) for z in zs]
        # fit in u = z/zmax to keep the Vandermonde well conditioned
        coeffs, resid, _ = _mp_polyfit([z / zmax for z in zs], values, degree)
        floor = max(abs(v) for v in values) or mp.mpf(1)
        if resid / floor > 1e-10:
            raise FitConditioningError(
                f"Laurent fit residual {float(resid / floor):.3e} at n={n}; "
                "z-grid too coarse or too close to the first pole"
            )
        scale_n = mp.mpf(zmax)
        c0 = coeffs[n - 1] / scale_n ** (n - 1)
        c1 = coeffs[n] / scale_n ** n
    return float(c1), float(c0)


def rs_oracle(model: SpectralModel, n_max: int) -> TaylorCoefficients:
    """Taylor coefficients of E_0(lambda) from the Rayleigh-Schrodinger recursion.

    E_n = <0|W|psi_{n-1}> and psi_n = R_0 (W psi_{n-1} - sum_k E_k psi_{n-k})
    with psi_0 = |0>, <0|psi_n> = 0 and R_0 = -Q/E_k, at mp dps 40.  It
    forms no chain sums or Bell polynomials, so it checks
    evaluate_epsilons independently and exactly at every order.
    self_check compares each E_n from order 3 up with Wigner's 2n+1 rule,
    which rebuilds it from psi_0..psi_{n//2}.
    """
    if n_max < 1:
        raise ValueError(f"rs_oracle requires n_max >= 1, got {n_max}")
    with mp.workdps(40):
        wmat = [[mp.mpf(x) for x in row] for row in model.wmat.tolist()]
        resolvent = [mp.mpf(0)] + [-1 / mp.mpf(e) for e in model.energies[1:].tolist()]
        psi = [[mp.mpf(1)] + [mp.mpf(0)] * (model.dim - 1)]
        w_psi: list[list] = []
        energies = [None]  # energies[n] = E_n
        for n in range(1, n_max + 1):
            w_psi.append([mp.fdot(row, psi[-1]) for row in wmat])
            energies.append(w_psi[-1][0])
            if n < n_max:
                psi.append([
                    r * (w - mp.fsum(energies[k] * psi[n - k][i] for k in range(1, n)))
                    for i, (r, w) in enumerate(zip(resolvent, w_psi[-1]))
                ])
        gap = mp.mpf(0)
        for m in range(3, n_max + 1):
            half = m // 2
            lead = psi[half - 1] if m % 2 == 0 else psi[half]
            rule = mp.fdot(lead, w_psi[half]) - mp.fsum(
                energies[m - k - l] * mp.fdot(psi[k], psi[l])
                for k in range(1, half + 1)
                for l in range(1, half + 1 - (m % 2 == 0))
            )
            gap = max(gap, abs(rule - energies[m]) / max(abs(energies[m]), mp.mpf(1e-10)))
        coeffs = np.array([float(e) for e in energies[1:]])
    return TaylorCoefficients(coeffs=coeffs, self_check=float(gap))


def taylor_oracle(
    model: SpectralModel,
    n_max: int,
    *,
    dps: int | None = None,
    scale: float = 1e-3,
) -> TaylorCoefficients:
    """Taylor coefficients of E_0(lambda) from exact diagonalization.

    Diagonalizes H(lambda) = diag(E) + lambda W on a symmetric grid of
    2 n_max + 3 couplings and least-squares fits a degree n_max + 2
    polynomial.  The grid extent satisfies lambda_max ||W|| = scale * E_1
    with scale well below the 0.1 conditioning bound.  Coefficient n is
    read from a change of order lambda_max^n in the eigenvalues, so the
    default precision is the digit budget
    dps = max(40, ceil(12 + n_max log10(1/lambda_max))).  The fit
    residual, carried into each coefficient, must stay below ORACLE_TOL
    of max(|c_n|, 1e-10); otherwise FitConditioningError is raised.
    """
    if n_max < 1:
        raise ValueError(f"taylor_oracle requires n_max >= 1, got {n_max}")
    norm_w = float(np.linalg.norm(model.wmat, 2))
    if norm_w == 0.0:
        return TaylorCoefficients(coeffs=np.zeros(n_max), self_check=0.0)
    gap0 = model.gap
    lam_max = scale * gap0 / norm_w
    half = n_max + 1
    degree = n_max + 2
    if dps is None:
        dps = max(40, math.ceil(12 + n_max * math.log10(1.0 / lam_max)))

    with mp.workdps(dps):
        lam_mp = [mp.mpf(j) * lam_max / half for j in range(-half, half + 1)]
        hmat0 = mp.diag(model.energies.tolist())
        wmp = mp.matrix(model.wmat.tolist())
        ground = []
        for lam in lam_mp:
            ev = sorted(mp.eigsy(hmat0 + lam * wmp, eigvals_only=True))
            if ev[1] - ev[0] < 0.5 * gap0:
                raise DegeneracyError(
                    f"ground gap {float(ev[1] - ev[0]):.3e} at lambda={float(lam):.3e} "
                    f"below half the unperturbed gap {gap0:.3e}"
                )
            ground.append(ev[0])
        coeffs, _, errors = _mp_polyfit([lam / lam_max for lam in lam_mp], ground, degree)
        scale_mp = mp.mpf(lam_max)
        cs = [coeffs[n] / scale_mp**n for n in range(1, n_max + 1)]
        noise, worst = max(
            (errors[n] / scale_mp**n / max(abs(c), mp.mpf(1e-10)), n) for n, c in enumerate(cs, start=1)
        )
        if noise > ORACLE_TOL:
            raise FitConditioningError(
                f"Taylor fit at dps {dps} knows c_{worst} only to {float(noise):.1e} "
                f"relative (bound {ORACLE_TOL:.0e}); raise dps"
            )
    return TaylorCoefficients(coeffs=np.array([float(c) for c in cs]), self_check=float(noise))


def build_anharmonic_model(basis_size: int, quartic_coupling: float) -> SpectralModel:
    """Quartic perturbation of the unit harmonic oscillator.

    Truncated ladder-operator basis with hbar = m = omega = 1, zero
    point removed so E_k = k; W = quartic_coupling * x^4 with the x^4
    matrix built by squaring the tridiagonal x^2 matrix.  Truncation
    makes the top of the basis unreliable, so keep basis_size well above
    the orders of interest.
    """
    if basis_size < 20:
        raise ModelValidationError(f"basis_size must be >= 20, got {basis_size}")
    d = basis_size
    x = np.zeros((d, d))
    for i in range(d - 1):
        x[i, i + 1] = x[i + 1, i] = math.sqrt((i + 1) / 2.0)
    x2 = x @ x
    x4 = x2 @ x2
    wmat = quartic_coupling * 0.5 * (x4 + x4.T)
    return SpectralModel(energies=np.arange(d, dtype=float), wmat=wmat)


def ground_state_energy(model: SpectralModel, coupling: float = 1.0) -> float:
    """Exact ground-state energy of diag(E) + coupling * W."""
    h = np.diag(model.energies) + coupling * model.wmat
    return float(np.linalg.eigvalsh(h)[0])


def random_model(
    seed: int | np.random.Generator,
    dim: int = 8,
    coupling_scale: float = 0.3,
) -> SpectralModel:
    """Seeded random model for oracle-equivalence sweeps.

    Excited energies uniform in [0.5, 3.0], sorted, so a ground gap of
    at least 0.5 keeps the Taylor oracle well conditioned; couplings
    uniform in [-coupling_scale, coupling_scale], symmetrized.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    excited = np.sort(rng.uniform(0.5, 3.0, size=dim - 1))
    raw = rng.uniform(-coupling_scale, coupling_scale, size=(dim, dim))
    return SpectralModel(energies=np.concatenate([[0.0], excited]), wmat=0.5 * (raw + raw.T))


# ---------------------------------------------------------------------------
# model files


_MODEL_KEYS = {"builder": str, "basis_size": int, "quartic_coupling": float, "energies": np.ndarray, "wmat": np.ndarray}


def parse_model_text(text: str) -> SpectralModel:
    """Parse a model file, written in the `key = value` grammar of `sptqmc.keyvalue`.

    Either explicit arrays:

        energies = [0.0, 1.0, 2.5]
        wmat = [[0.1, 0.2, 0.0],
                [0.2, 0.0, 0.3],
                [0.0, 0.3, 0.1]]

    or a named builder:

        builder = anharmonic
        basis_size = 40
        quartic_coupling = 0.1
    """
    entries = keyvalue.read_entries(text, ModelValidationError)
    keys = set(entries)
    values = {key: keyvalue.typed(key, entries[key], kind, ModelValidationError)
              for key, kind in _MODEL_KEYS.items() if key in keys}
    if "builder" in keys:
        if values["builder"] != "anharmonic":
            raise ModelValidationError(f"unknown builder '{values['builder']}'")
        extra = keys - {"builder", "basis_size", "quartic_coupling"}
        if extra:
            raise ModelValidationError(f"unexpected keys for builder model: {sorted(extra)}")
        missing = {"basis_size", "quartic_coupling"} - keys
        if missing:
            raise ModelValidationError(f"builder model missing keys: {sorted(missing)}")
        return build_anharmonic_model(values["basis_size"], values["quartic_coupling"])
    if keys == {"energies", "wmat"}:
        return SpectralModel(energies=values["energies"], wmat=values["wmat"])
    raise ModelValidationError(
        f"model file must define energies+wmat or a builder; got keys {sorted(keys)}"
    )


def load_model(path: str) -> SpectralModel:
    """Read a model file from disk (see parse_model_text)."""
    return parse_model_text(keyvalue.read_text(path, "model", ModelValidationError))
