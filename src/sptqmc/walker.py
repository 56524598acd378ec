"""Trial wavefunctions, model potentials, and Langevin propagation.

Phase-space conventions (harmonized across the formula sets in play):
kinetic energy -1/2 laplacian, diffusion constant 1/2, Langevin step
variance epsilon per coordinate, drift prefactor epsilon/2.  With these
choices the local energy W = -1/2 (lap log Phi + |grad log Phi|^2) + V
is literally (H Phi)/Phi, and the auxiliary potential Veff satisfies
(-1/2 lap + Veff) Phi = 0 with W = V - Veff pointwise.

Positions are numpy vectors of arbitrary dimension d.  All trial and
potential callables accept batched positions of shape (..., d) and
return values of shape (...,), so trajectories evaluate in vectorized
blocks of rows.  A trial is any object with log_value, gradient_log,
laplacian_log and dim; GaussianTrial is the one this module knows by
type, for its exact start and its fast paths.

The Langevin proposal is decided here: proposal_mean is its mean, and
langevin_kernel gives every per-step loop (langevin_walk, the creep
kernel) W and one step(bead, z) with z = rng.standard_normal(size), and
the form of a bead: a Python float on scalar_langevin's float closures
where they apply (a 1-d Gaussian trial in a built-in potential), a numpy
array otherwise.  Both forms draw the same stream and round alike.
langevin_walk is the one walk loop and start_position its one start
rule; the series sampler and rqmc.init_reptile both walk on them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .estimators import LocalEnergySeries


# ---------------------------------------------------------------------------
# trial wavefunctions


class GaussianTrial:
    """log Phi0 = -alpha |x|^2 / 2; exact harmonic ground state at alpha=1."""

    def __init__(self, alpha: float, dim: int = 1):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.alpha = float(alpha)
        self.dim = int(dim)

    def log_value(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return -0.5 * self.alpha * np.sum(positions * positions, axis=-1)

    def gradient_log(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return -self.alpha * positions

    def laplacian_log(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return np.broadcast_to(-self.alpha * positions.shape[-1], positions.shape[:-1]).copy()

    def equilibrium_sigma(self) -> float:
        """Std of each coordinate under Phi0^2 = e^(-U)."""
        return math.sqrt(1.0 / (2.0 * self.alpha))

    def __repr__(self) -> str:
        return f"GaussianTrial(alpha={self.alpha}, dim={self.dim})"


# ---------------------------------------------------------------------------
# potentials


class HarmonicPotential:
    """V = |x|^2 / 2 (omega = 1)."""

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        return 0.5 * np.sum(positions * positions, axis=-1)

    def __repr__(self) -> str:
        return "HarmonicPotential()"


class QuarticPotential:
    """V = |x|^2 / 2 + quartic_coupling * sum_i x_i^4."""

    def __init__(self, quartic_coupling: float):
        self.quartic_coupling = float(quartic_coupling)

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        sq = positions * positions
        return 0.5 * np.sum(sq, axis=-1) + self.quartic_coupling * np.sum(sq * sq, axis=-1)

    def __repr__(self) -> str:
        return f"QuarticPotential(quartic_coupling={self.quartic_coupling})"


class DoubleWellPotential:
    """V = barrier * ((|x|/half_separation)^2 - 1)^2, minima at |x| = a."""

    def __init__(self, barrier: float, half_separation: float = 1.0):
        if half_separation <= 0:
            raise ValueError("half_separation must be positive")
        self.barrier = float(barrier)
        self.half_separation = float(half_separation)

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        r2 = np.sum(positions * positions, axis=-1) / self.half_separation**2
        t = r2 - 1.0
        return self.barrier * (t * t)

    def __repr__(self) -> str:
        return f"DoubleWellPotential(barrier={self.barrier}, half_separation={self.half_separation})"


# ---------------------------------------------------------------------------
# pointwise quantities


def drift(trial, positions: np.ndarray) -> np.ndarray:
    """Drift force F = -dU/dR = 2 grad log Phi0."""
    return 2.0 * trial.gradient_log(positions)


def proposal_mean(trial, epsilon: float, positions: np.ndarray) -> np.ndarray:
    """Mean R + (eps/2) F(R) of the Langevin proposal out of R."""
    return positions + (0.5 * epsilon) * drift(trial, positions)


def local_energy(trial, potential, positions: np.ndarray) -> np.ndarray:
    """W = -1/2 (lap log Phi0 + |grad log Phi0|^2) + V, i.e. (H Phi0)/Phi0."""
    grad = trial.gradient_log(positions)
    grad2 = np.sum(grad * grad, axis=-1)
    # grouped so that V cancels the gradient term bitwise when the trial
    # is an exact eigenstate; the zero-variance series is then constant
    # to the last bit, not merely to rounding
    return (potential(positions) - 0.5 * grad2) - 0.5 * trial.laplacian_log(positions)


# ---------------------------------------------------------------------------
# walker propagation


def scalar_langevin(trial, potential, epsilon: float):
    """Float closures (w, step) for a 1-d Gaussian trial in a built-in potential.

    w(x) is the local energy at a float position x, and step(x, z) the
    position after one Langevin step driven by a standard normal z.  Each
    performs the floating-point operations of local_energy and of the
    numpy step x + (eps/2) F(x) + N(0, eps) on a shape-(1,) array in the
    same order, so the results are bitwise equal, and drawing z with
    rng.standard_normal() consumes the stream exactly as
    rng.normal(0.0, sqrt(eps), size=(1,)) does.  The reptation sampler
    keeps float beads on them, free of one-element arrays.  Returns None
    for any other trial or potential, which keep the numpy code.
    """
    if type(trial) is not GaussianTrial or trial.dim != 1:
        return None
    if type(potential) is HarmonicPotential:
        def v(x):
            return 0.5 * (x * x)
    elif type(potential) is QuarticPotential:
        coupling = potential.quartic_coupling

        def v(x):
            sq = x * x
            return 0.5 * sq + coupling * (sq * sq)
    elif type(potential) is DoubleWellPotential:
        barrier, scale2 = potential.barrier, potential.half_separation**2

        def v(x):
            t = (x * x) / scale2 - 1.0
            return barrier * (t * t)
    else:
        return None

    neg_alpha = -trial.alpha
    half_lap = 0.5 * neg_alpha
    epsilon = float(epsilon)
    half_eps, sqrt_eps = 0.5 * epsilon, math.sqrt(epsilon)

    def w(x):
        g = neg_alpha * x
        return (v(x) - 0.5 * (g * g)) - half_lap

    def step(x, z):
        return (x + half_eps * (2.0 * (neg_alpha * x))) + (0.0 + sqrt_eps * z)

    return w, step


def langevin_kernel(trial, potential, epsilon: float):
    """Closures (w, step) for per-step loops over single beads, and the bead form.

    w(bead) is the local energy at a bead as a float, and step(bead, z)
    the bead after one Langevin step driven by z = rng.standard_normal(size)
    of the bead's shape.  Where scalar_langevin applies, floats is True:
    beads are Python floats on its closures, and size is None.  Every
    other trial and potential keeps numpy beads; there 0.0 + sqrt(eps) z
    is the noise that rng.normal(0.0, sqrt(eps), size) draws, bit for bit.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    scalar = scalar_langevin(trial, potential, epsilon)
    if scalar is not None:
        return *scalar, True

    sqrt_eps = math.sqrt(epsilon)

    def w(pos):
        return float(local_energy(trial, potential, pos))

    def step(pos, z):
        return proposal_mean(trial, epsilon, pos) + (0.0 + sqrt_eps * z)

    return w, step, False


def log_transition_density(trial, epsilon: float, r_from: np.ndarray, r_to: np.ndarray) -> float:
    """log of the proposal density; shared by walker and path samplers."""
    r_from = np.atleast_1d(np.asarray(r_from, dtype=float))
    r_to = np.atleast_1d(np.asarray(r_to, dtype=float))
    diff = r_to - proposal_mean(trial, epsilon, r_from)
    d = r_from.shape[-1]
    return float(-np.sum(diff * diff) / (2.0 * epsilon) - 0.5 * d * math.log(2.0 * math.pi * epsilon))


# ---------------------------------------------------------------------------
# rng streams


_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Independent stream for (master seed, purpose label, worker index).

    The label enters through a stable hash, so streams do not collide
    across purposes and runs reproduce across platforms and sessions.
    """
    label = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & _MASK64, label, int(index) & _MASK64]))


# ---------------------------------------------------------------------------
# series generation


def start_position(trial, rng: np.random.Generator) -> np.ndarray:
    """A walk's first position: drawn from Phi0^2 for a Gaussian trial, else the origin."""
    if isinstance(trial, GaussianTrial):
        return rng.normal(0.0, trial.equilibrium_sigma(), size=trial.dim)
    return np.zeros(getattr(trial, "dim", 1))


def langevin_walk(trial, potential, epsilon: float, steps: int, rng, start, keep: int | None = None) -> np.ndarray:
    """The positions after each of `steps` Langevin steps out of start, one row per step (the last keep rows if given)."""
    _, step, floats = langevin_kernel(trial, potential, epsilon)
    trajectory = np.empty((steps if keep is None else min(keep, steps), len(start)))
    x, size = (start.item(), None) if floats else (start, start.shape)
    normal = rng.standard_normal
    for i in range(len(trajectory) - steps, len(trajectory)):  # steps before row 0 are walked, not stored
        x = step(x, normal(size))
        if i >= 0:
            trajectory[i] = x
    return trajectory


_SCAN_ROWS = 65536  # rows per block of the Gaussian walk's scan and of W: a few MB, not whole columns


def sample_local_energy_series(
    trial,
    potential,
    *,
    epsilon: float,
    steps: int,
    burn_in: int = 0,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    initial: np.ndarray | None = None,
    return_positions: bool = False,
):
    """Local-energy series from one Langevin walk.

    Runs burn_in + steps Langevin updates out of start_position (or
    initial) and evaluates W on the trajectory in vectorized blocks of
    _SCAN_ROWS rows, bitwise as one pass over it; the returned series
    carries the burn_in marker and analysis slices it off.  For a
    Gaussian trial the linear recursion
    x' = (1 - eps alpha) x + eta runs per coordinate as a float scan over
    the noise, in place, rounding bit for bit as the scipy.signal.lfilter
    call it replaced; the noise stream and so the statistics match
    langevin_walk, which other trials walk.  The scan costs about 0.2 s
    per 2M steps on a quiet 2-core Xeon VM; lfilter plus the 1.0-1.3 s
    import of scipy.signal would be cheaper only beyond about 10M steps
    per chain.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if rng is None:
        rng = derive_rng(0 if seed is None else seed, "local-energy-series")
    start = start_position(trial, rng) if initial is None else np.atleast_1d(np.asarray(initial, dtype=float))

    total = burn_in + steps
    if isinstance(trial, GaussianTrial):
        decay = 1.0 - epsilon * trial.alpha
        trajectory = rng.normal(0.0, math.sqrt(epsilon), size=(total, trial.dim))
        # AR(1) per coordinate seeded with the initial position, scanned in place
        for k, y in enumerate(start.tolist()):
            column = trajectory[:, k]
            for begin in range(0, total, _SCAN_ROWS):
                block = column[begin:begin + _SCAN_ROWS].tolist()
                for i, x in enumerate(block):
                    y = decay * y + x
                    block[i] = y
                column[begin:begin + _SCAN_ROWS] = block
    else:
        trajectory = langevin_walk(trial, potential, epsilon, total, rng, start)
    values = np.empty(total)
    for begin in range(0, total, _SCAN_ROWS):  # W block by block, so its temporaries span one block
        values[begin:begin + _SCAN_ROWS] = local_energy(trial, potential, trajectory[begin:begin + _SCAN_ROWS])
    series = LocalEnergySeries(values=values, step=float(epsilon), burn_in=burn_in)
    if return_positions:
        return series, trajectory
    return series
