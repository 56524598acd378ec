"""Reference code for the walker tests.

The numpy Langevin walker, one call per step, is the bitwise reference
for walker.langevin_kernel's step(bead, z) in both bead forms: the float
closures of walker.scalar_langevin, the numpy step, and the creep kernel
built on them must round as this walker does, step for step, and draw
the same random stream.  auxiliary_potential is the Veff of the identity
W = V - Veff that the local-energy tests check.  A trial is any object
with log_value, gradient_log, laplacian_log and dim: wrap_generic hides a
Gaussian trial from the float kernel in such a plain object, so that the
same system runs on numpy beads, and FLAT_TRIAL has no drift at all.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from sptqmc.walker import GaussianTrial, drift, local_energy

FLAT_TRIAL = SimpleNamespace(
    log_value=lambda r: np.zeros(r.shape[:-1]),
    gradient_log=lambda r: np.zeros_like(r),
    laplacian_log=lambda r: np.zeros(r.shape[:-1]),
    dim=1,
)


def wrap_generic(trial: GaussianTrial) -> SimpleNamespace:
    """Same trial, but hidden from the fast-path type check."""
    return SimpleNamespace(
        log_value=trial.log_value,
        gradient_log=trial.gradient_log,
        laplacian_log=trial.laplacian_log,
        dim=trial.dim,
    )


def auxiliary_potential(trial, positions: np.ndarray) -> np.ndarray:
    """Veff = 1/2 (lap log Phi0 + |grad log Phi0|^2); (-1/2 lap + Veff) Phi0 = 0."""
    grad = trial.gradient_log(positions)
    return 0.5 * (trial.laplacian_log(positions) + np.sum(grad * grad, axis=-1))


@dataclass
class WalkerState:
    """Single-owner mutable walker; caches always match the stored position."""

    trial: object
    potential: object
    position: np.ndarray
    drift: np.ndarray
    local_energy: float
    epsilon: float
    rng: np.random.Generator | None = None


def init_walker(trial, potential, position, epsilon: float, rng: np.random.Generator | None = None) -> WalkerState:
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    position = np.atleast_1d(np.asarray(position, dtype=float))
    return WalkerState(
        trial=trial,
        potential=potential,
        position=position,
        drift=drift(trial, position),
        local_energy=float(local_energy(trial, potential, position)),
        epsilon=float(epsilon),
        rng=rng,
    )


def langevin_step(state: WalkerState, rng: np.random.Generator | None = None, noise: np.ndarray | None = None) -> WalkerState:
    """One Euler step R' = R + (eps/2) F(R) + eta, eta ~ N(0, eps I).

    Mutates the state in place (caches refreshed) and returns it.  The
    noise argument bypasses the rng.
    """
    generator = rng if rng is not None else state.rng
    if noise is None:
        if generator is None:
            raise ValueError("langevin_step needs an rng or an explicit noise vector")
        noise = generator.normal(0.0, math.sqrt(state.epsilon), size=state.position.shape)
    new_position = state.position + (0.5 * state.epsilon) * state.drift + noise
    state.position = new_position
    state.drift = drift(state.trial, new_position)
    state.local_energy = float(local_energy(state.trial, state.potential, new_position))
    return state
