"""Reptation quantum Monte Carlo over action-weighted paths.

A reptile is an ordered chain of beads R_0..R_n separated by time step
epsilon, carrying one trapezoidal link action L_i = (eps/2)(W_i + W_{i+1})
per link.  A creep move proposes one Langevin step off the growing end,
drops the bead at the opposite end, and accepts with min(1, e^(-dS))
where dS is the new link action minus the removed one.  Direction
persists until a rejection flips it (bounce policy) or is redrawn every
move (random policy, the variant used by the exact small-instance
balance check).

Energy comes from the two end beads by head-tail symmetry of the path
distribution; general observables come from the middle bead, where both
path halves act as projectors.

ReptationSampler.for_system stores beads in the form that
walker.langevin_kernel gives them: Python floats for a 1-d GaussianTrial
in a built-in potential (every system the command line builds, with or
without the proposal correction), shape-(d,) numpy arrays otherwise.
One move loop runs both through the kernel's step(bead, z), and both
draw the same random stream and round alike.  Observables always see a
shape-(d,) array.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np

from . import estimators
from .estimators import EstimateWithError
from .walker import (
    derive_rng,
    langevin_kernel,
    langevin_walk,
    local_energy,
    log_transition_density,
    start_position,
)


def link_action(epsilon: float, w_a: float, w_b: float) -> float:
    """Trapezoidal action of one link: (eps/2)(W_a + W_b)."""
    return 0.5 * epsilon * (w_a + w_b)


def acceptance_probability(delta_s: float) -> float:
    """Metropolis factor min(1, e^(-dS))."""
    return 1.0 if delta_s <= 0.0 else math.exp(-delta_s)


class Reptile:
    """Bead chain with cached per-bead W and total action.

    Each link action is derived from the W values of its two beads.

    total_action is maintained incrementally by moves; it must track
    math.fsum(link_actions) to 1e-9 over a hundred thousand moves, and
    audit_links checks the cached W against the bead positions.
    """

    def __init__(self, beads: Iterable, w_values: Iterable[float], epsilon: float, direction: int = 1):
        self.beads = deque(beads)
        self.w_values = deque(float(w) for w in w_values)
        if len(self.beads) < 2:
            raise ValueError("a reptile needs at least 2 beads")
        if len(self.beads) != len(self.w_values):
            raise ValueError("one W value per bead required")
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 (head) or -1 (tail)")
        self.epsilon = float(epsilon)
        self.direction = direction
        self.total_action = math.fsum(self.link_actions)

    @property
    def link_actions(self) -> list[float]:
        """L_i = (eps/2)(W_i + W_{i+1}) of every link, tail to head."""
        ws = list(self.w_values)
        return [link_action(self.epsilon, a, b) for a, b in zip(ws[:-1], ws[1:])]

    @property
    def n_beads(self) -> int:
        return len(self.beads)

    @property
    def n_links(self) -> int:
        return len(self.beads) - 1

    @property
    def path_length(self) -> float:
        """tau = n_links * epsilon."""
        return self.n_links * self.epsilon

    @property
    def head(self):
        return self.beads[-1]

    @property
    def tail(self):
        return self.beads[0]

    @property
    def middle(self):
        return self.beads[len(self.beads) // 2]

    def end_energy(self) -> float:
        """(W(R_0) + W(R_n)) / 2, the two-end energy sample."""
        return 0.5 * (self.w_values[0] + self.w_values[-1])

    def audit_links(self, w_fn: Callable) -> float:
        """Max |link from cached W - link recomputed from positions via w_fn|."""
        ws = [float(w_fn(b)) for b in self.beads]
        worst = 0.0
        for cached, wa, wb in zip(self.link_actions, ws[:-1], ws[1:]):
            worst = max(worst, abs(cached - link_action(self.epsilon, wa, wb)))
        return worst


def init_reptile(
    trial,
    potential,
    n_beads: int,
    epsilon: float,
    rng: np.random.Generator,
    equilibration_steps: int = 1000,
) -> Reptile:
    """Reptile from the last n_beads positions of one Langevin walk, equilibration_steps past its start."""
    if n_beads < 2:
        raise ValueError(f"n_beads must be >= 2, got {n_beads}")
    steps = max(equilibration_steps, 0) + n_beads
    positions = langevin_walk(trial, potential, epsilon, steps, rng, start_position(trial, rng), keep=n_beads)
    ws = np.asarray(local_energy(trial, potential, positions), dtype=float)
    return Reptile(
        beads=(positions[i].copy() for i in range(n_beads)),
        w_values=ws,
        epsilon=epsilon,
    )


class ReptationSampler:
    """Creep-move Metropolis kernel over a single reptile.

    The kernel is defined by w_fn(bead) -> W as a float and
    step(bead, draw()) -> new bead, so the identical move loop drives both
    production runs (for_system: Langevin steps off trial wavefunctions,
    draw giving the standard normals of a bead) and the discretized toy
    of the exact stationary distribution check.  The toy comes from the
    constructor: a Reptile over its states with their W values, a step
    that proposes a state from the rng, and draw returning the rng itself.
    """

    def __init__(
        self,
        reptile: Reptile,
        w_fn: Callable,
        step: Callable,
        draw: Callable,
        rng: np.random.Generator,
        *,
        direction_policy: str = "bounce",
        correction_trial=None,
    ):
        if direction_policy not in ("bounce", "random"):
            raise ValueError(f"unknown direction policy '{direction_policy}'")
        self.reptile = reptile
        self.w_fn = w_fn
        self.step = step
        self.draw = draw
        self.rng = rng
        self.direction_policy = direction_policy
        self.correction_trial = correction_trial
        self.moves_proposed = 0
        self.moves_accepted = 0

    @classmethod
    def for_system(
        cls,
        trial,
        potential,
        reptile: Reptile,
        rng: np.random.Generator,
        *,
        direction_policy: str = "bounce",
        proposal_correction: bool = False,
    ) -> "ReptationSampler":
        """Langevin creep kernel for a trial and potential; takes over the reptile.

        The reptile's beads take the form walker.langevin_kernel gives
        them: floats where its float closures apply, numpy beads, whose
        shape sizes the draws, otherwise.
        """
        w_fn, step, floats = langevin_kernel(trial, potential, reptile.epsilon)
        if floats:
            reptile.beads = deque(np.asarray(b, dtype=float).item() for b in reptile.beads)
            draw = rng.standard_normal
        else:
            draw = partial(rng.standard_normal, np.shape(reptile.head))
        correction_trial = trial if proposal_correction else None
        return cls(reptile, w_fn, step, draw, rng, direction_policy=direction_policy, correction_trial=correction_trial)

    @property
    def acceptance_rate(self) -> float:
        if self.moves_proposed == 0:
            return 0.0
        return self.moves_accepted / self.moves_proposed

    def reset_counters(self) -> None:
        self.moves_proposed = 0
        self.moves_accepted = 0

    def _log_correction(self, new_bead, grow_head: bool) -> float:
        """Exact forward/reverse proposal correction (optional).

        Derived from the path measure anchored at bead 0: growing the
        head compares the discarded tail pair, growing the tail compares
        the proposed bead against the old tail bead.  Identically 0 when
        the Langevin proposal satisfies detailed balance with respect to
        Phi0^2, which holds only as eps -> 0.
        """
        trial = self.correction_trial
        eps = self.reptile.epsilon
        if grow_head:
            a, b = self.reptile.beads[1], self.reptile.beads[0]
        else:
            a, b = new_bead, self.reptile.beads[0]
        a, b = np.atleast_1d(a), np.atleast_1d(b)  # trial.log_value needs the trailing axis a float bead lacks
        return (
            2.0 * float(trial.log_value(a) - trial.log_value(b))
            + log_transition_density(trial, eps, a, b)
            - log_transition_density(trial, eps, b, a)
        )

    def _moves(self, n: int) -> int:
        """n creep moves on locals; returns how many were accepted."""
        r = self.reptile
        beads, ws = r.beads, r.w_values
        half_eps = 0.5 * r.epsilon
        w_fn, step, draw = self.w_fn, self.step, self.draw
        uniform, exp = self.rng.random, math.exp
        redraw = self.direction_policy == "random"
        correct = self.correction_trial is not None
        direction, action, accepted = r.direction, r.total_action, 0
        for _ in range(n):
            if redraw:
                direction = 1 if uniform() < 0.5 else -1
            grow_head = direction > 0
            if grow_head:
                end, w_end, w_a, w_b = beads[-1], ws[-1], ws[0], ws[1]
            else:
                end, w_end, w_a, w_b = beads[0], ws[0], ws[-2], ws[-1]
            new = step(end, draw())
            w_new = w_fn(new)
            # link_action(new link) - link_action(removed link), with link_action's rounding
            delta = half_eps * (w_end + w_new) - half_eps * (w_a + w_b)
            if correct:
                log_accept = -delta + self._log_correction(new, grow_head)
                accept = log_accept >= 0.0 or uniform() < exp(log_accept)
            else:
                accept = delta <= 0.0 or uniform() < exp(-delta)
            if accept:
                accepted += 1
                if grow_head:
                    beads.append(new)
                    ws.append(w_new)
                    beads.popleft()
                    ws.popleft()
                else:
                    beads.appendleft(new)
                    ws.appendleft(w_new)
                    beads.pop()
                    ws.pop()
                action += delta
            elif not redraw:
                direction = -direction
        r.direction, r.total_action = direction, action
        self.moves_proposed += n
        self.moves_accepted += accepted
        return accepted

    def move(self) -> bool:
        """One creep move; returns True when accepted."""
        return self._moves(1) == 1

    def sweep(self) -> None:
        """n_beads consecutive moves, roughly decorrelating the path."""
        self._moves(self.reptile.n_beads)


# ---------------------------------------------------------------------------
# the error-bar policy of sampled reptiles


def _blocking_ratio_tau(values: np.ndarray, sem2: float, plateau: bool) -> float:
    """tau_int in sweeps from the blocking ratio; without a plateau sem2 is the largest level, a conservative bound."""
    return max(0.5, 0.5 * sem2 * values.size / float(np.var(values, ddof=1)))


# ---------------------------------------------------------------------------
# full runs


@dataclass(frozen=True)
class RQMCRunResult:
    energy: EstimateWithError
    acceptance_rate: float
    pure_observables: dict[str, EstimateWithError]
    series: np.ndarray
    actions: np.ndarray
    n_beads: int
    epsilon: float
    sweeps: int
    burn_in_sweeps: int


def adaptive_burn_in(sampler: ReptationSampler, *, window: int = 25, max_windows: int = 80) -> int:
    """Sweep until two consecutive windows of energy samples agree to 1 sigma."""
    previous = None
    for done in range(1, max_windows + 1):
        samples = np.empty(window)
        for i in range(window):
            sampler.sweep()
            samples[i] = sampler.reptile.end_energy()
        current = (samples.mean(), samples.std(ddof=1) / math.sqrt(window))
        if previous is not None:
            gap = abs(current[0] - previous[0])
            if gap <= math.hypot(current[1], previous[1]):
                return done * window
        previous = current
    warnings.warn("burn-in did not stabilize; continuing with the full allowance", stacklevel=2)
    return max_windows * window


def run_reptation(
    trial,
    potential,
    *,
    n_beads: int,
    epsilon: float,
    sweeps: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    burn_in_sweeps: int | None = None,
    direction_policy: str = "bounce",
    proposal_correction: bool = False,
    observables: Mapping[str, Callable] | None = None,
    equilibration_steps: int = 1000,
    projection_time: float = 1.0,
) -> RQMCRunResult:
    """Full RQMC run: init, burn-in, production sweeps, estimators.

    One sample of (head W, tail W), the middle-bead observables, and the
    total action is taken per sweep (= n_beads moves).  Burn-in is
    adaptive unless burn_in_sweeps pins it.
    """
    if sweeps < 2:
        raise ValueError(f"sweeps must be >= 2, got {sweeps}")
    if rng is None:
        rng = derive_rng(0 if seed is None else seed, "rqmc-run")
    if observables is None:
        observables = {"x2": lambda bead: float(np.sum(np.square(bead)))}
    reptile = init_reptile(trial, potential, n_beads, epsilon, rng, equilibration_steps)
    sampler = ReptationSampler.for_system(
        trial, potential, reptile, rng,
        direction_policy=direction_policy,
        proposal_correction=proposal_correction,
    )
    if burn_in_sweeps is None:
        burned = adaptive_burn_in(sampler)
    else:
        for _ in range(burn_in_sweeps):
            sampler.sweep()
        burned = burn_in_sweeps
    sampler.reset_counters()

    series = np.empty((sweeps, 2))
    actions = np.empty(sweeps)
    middles = {name: np.empty(sweeps) for name in observables}
    for s in range(sweeps):
        sampler.sweep()
        r = sampler.reptile
        series[s, 0] = r.w_values[0]
        series[s, 1] = r.w_values[-1]
        actions[s] = r.total_action
        mid = np.atleast_1d(r.middle)
        for name, fn in observables.items():
            middles[name][s] = float(fn(mid))

    tau = reptile.path_length
    if tau < 2.0 * projection_time:
        warnings.warn(
            f"path length {tau:.3g} below twice the projection time {projection_time:.3g}",
            stacklevel=2,
        )
    energy = estimators.blocked_estimate(series.mean(axis=1), 16, _blocking_ratio_tau)
    pure = {name: estimators.blocked_estimate(vals, 16, _blocking_ratio_tau) for name, vals in middles.items()}
    return RQMCRunResult(
        energy=energy,
        acceptance_rate=sampler.acceptance_rate,
        pure_observables=pure,
        series=series,
        actions=actions,
        n_beads=n_beads,
        epsilon=epsilon,
        sweeps=sweeps,
        burn_in_sweeps=burned,
    )


def extrapolate_linear(coarse: EstimateWithError, fine: EstimateWithError) -> EstimateWithError:
    """Linear eps -> 0 extrapolation from runs at eps and eps/2.

    E(eps) = E0 + c eps gives E0 = 2 E(eps/2) - E(eps); errors add in
    quadrature with the doubled fine-run weight.
    """
    mean = 2.0 * fine.mean - coarse.mean
    err = math.sqrt(4.0 * fine.std_error**2 + coarse.std_error**2)
    return EstimateWithError(
        mean=mean,
        std_error=err,
        autocorr_time=fine.autocorr_time,
        effective_samples=min(coarse.effective_samples, fine.effective_samples),
    )
