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

The Langevin proposal, the equilibration walk and W come from
walker.langevin_kernel, which decides between float closures (a 1-d
GaussianTrial in a built-in potential, every system the command line
builds) and numpy; both draw the same random stream and round alike.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import estimators
from .estimators import EstimateWithError
from .walker import (
    GaussianTrial,
    derive_rng,
    langevin_kernel,
    local_energy,
    log_transition_density,
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

    total_action is maintained incrementally by moves; recompute helpers
    exist to audit the cache (it must track recomputation to 1e-9 over
    a hundred thousand moves).
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

    def recomputed_action(self) -> float:
        """Total action rebuilt from the cached per-bead W values."""
        return math.fsum(self.link_actions)

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
    """Reptile from one Langevin trajectory of an equilibrated walker."""
    if n_beads < 2:
        raise ValueError(f"n_beads must be >= 2, got {n_beads}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    dim = getattr(trial, "dim", 1)
    if isinstance(trial, GaussianTrial):
        start = rng.normal(0.0, trial.equilibrium_sigma(), size=dim)
    else:
        start = np.zeros(dim)
    _, propose = langevin_kernel(trial, potential, epsilon)
    x = start
    for _ in range(equilibration_steps):
        x = propose(rng, x)
    positions = np.empty((n_beads, dim))
    for i in range(n_beads):
        x = propose(rng, x)
        positions[i] = x
    ws = np.asarray(local_energy(trial, potential, positions), dtype=float)
    return Reptile(
        beads=(positions[i].copy() for i in range(n_beads)),
        w_values=ws,
        epsilon=epsilon,
    )


class ReptationSampler:
    """Creep-move Metropolis kernel over a single reptile.

    The kernel is defined by two callables, so the identical move logic
    drives both production runs (Langevin proposals off trial
    wavefunctions) and the discretized toy used by the exact stationary
    distribution check.
    """

    def __init__(
        self,
        reptile: Reptile,
        w_fn: Callable,
        propose_fn: Callable,
        rng: np.random.Generator,
        *,
        direction_policy: str = "bounce",
        correction_trial=None,
    ):
        if direction_policy not in ("bounce", "random"):
            raise ValueError(f"unknown direction policy '{direction_policy}'")
        self.reptile = reptile
        self.w_fn = w_fn
        self.propose_fn = propose_fn
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
        w_fn, propose_fn = langevin_kernel(trial, potential, reptile.epsilon)
        return cls(
            reptile,
            w_fn,
            propose_fn,
            rng,
            direction_policy=direction_policy,
            correction_trial=trial if proposal_correction else None,
        )

    @classmethod
    def from_functions(
        cls,
        w_fn: Callable,
        propose_fn: Callable,
        beads: Iterable,
        epsilon: float,
        rng: np.random.Generator,
        *,
        direction_policy: str = "bounce",
    ) -> "ReptationSampler":
        """Sampler over arbitrary states (used by the discrete toy oracle)."""
        beads = list(beads)
        reptile = Reptile(beads, [float(w_fn(b)) for b in beads], epsilon)
        return cls(reptile, w_fn, propose_fn, rng, direction_policy=direction_policy)

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
        return (
            2.0 * float(trial.log_value(a) - trial.log_value(b))
            + log_transition_density(trial, eps, a, b)
            - log_transition_density(trial, eps, b, a)
        )

    def move(self) -> bool:
        """One creep move; returns True when accepted."""
        r = self.reptile
        if self.direction_policy == "random":
            r.direction = 1 if self.rng.random() < 0.5 else -1
        grow_head = r.direction > 0
        end = r.beads[-1] if grow_head else r.beads[0]
        w_end = r.w_values[-1] if grow_head else r.w_values[0]
        new_bead = self.propose_fn(self.rng, end)
        w_new = float(self.w_fn(new_bead))
        l_new = link_action(r.epsilon, w_end, w_new)
        w_a, w_b = (r.w_values[0], r.w_values[1]) if grow_head else (r.w_values[-2], r.w_values[-1])
        l_removed = link_action(r.epsilon, w_a, w_b)
        delta = l_new - l_removed
        if self.correction_trial is not None:
            log_accept = -delta + self._log_correction(new_bead, grow_head)
            accept = log_accept >= 0.0 or self.rng.random() < math.exp(log_accept)
        else:
            accept = delta <= 0.0 or self.rng.random() < math.exp(-delta)
        self.moves_proposed += 1
        if accept:
            self.moves_accepted += 1
            if grow_head:
                r.beads.append(new_bead)
                r.w_values.append(w_new)
                r.beads.popleft()
                r.w_values.popleft()
            else:
                r.beads.appendleft(new_bead)
                r.w_values.appendleft(w_new)
                r.beads.pop()
                r.w_values.pop()
            r.total_action += l_new - l_removed
        elif self.direction_policy == "bounce":
            r.direction = -r.direction
        return accept

    def sweep(self) -> None:
        """n_beads consecutive moves, roughly decorrelating the path."""
        for _ in range(self.reptile.n_beads):
            self.move()


# ---------------------------------------------------------------------------
# estimators over sampled reptiles


def energy_estimator(samples, step: float = 1.0) -> EstimateWithError:
    """Ground-state energy from two-end averages over sampled reptiles.

    samples may be an iterable of Reptile snapshots or a plain array of
    per-sample (W_head + W_tail)/2 values; errors come from blocking
    over the sample sequence.
    """
    values = _end_values(samples)
    return _blocked(values, step)


def pure_estimator(
    observable: Callable,
    samples,
    step: float = 1.0,
    *,
    projection_time: float = 1.0,
) -> EstimateWithError:
    """Middle-bead average of an observable over sampled reptiles."""
    samples = list(samples) if not isinstance(samples, np.ndarray) else samples
    if len(samples) and isinstance(samples[0], Reptile):
        tau = samples[0].path_length
        if tau < 2.0 * projection_time:
            warnings.warn(
                f"path length {tau:.3g} below twice the projection time "
                f"{projection_time:.3g}; middle-bead estimates stay biased toward the trial",
                stacklevel=2,
            )
        values = np.array([float(observable(r.middle)) for r in samples])
    else:
        values = np.array([float(observable(v)) for v in samples])
    return _blocked(values, step)


def _end_values(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        return samples.astype(float)
    out = []
    for item in samples:
        out.append(item.end_energy() if isinstance(item, Reptile) else float(item))
    return np.array(out)


def _blocked(values: np.ndarray, step: float) -> EstimateWithError:
    n = values.size
    if n < 2:
        raise estimators.SeriesTooShortError("need at least 2 samples")
    mean = float(values.mean())
    if np.var(values) == 0.0:
        return EstimateWithError(mean=mean, std_error=0.0, autocorr_time=0.0, effective_samples=float(n))
    if n < 16:
        sem2 = float(np.var(values, ddof=1) / n)
        return EstimateWithError(mean=mean, std_error=math.sqrt(sem2), autocorr_time=step, effective_samples=float(n))
    # without a plateau this is the largest level, a conservative bound
    sem2, _ = estimators.blocking_error(values, min_blocks=16)
    var0 = float(np.var(values, ddof=1))
    tau_steps = max(0.5, 0.5 * sem2 * n / var0)
    return EstimateWithError(
        mean=mean,
        std_error=math.sqrt(sem2),
        autocorr_time=tau_steps * step,
        effective_samples=n / (2.0 * tau_steps),
    )


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
        mid = r.middle
        for name, fn in observables.items():
            middles[name][s] = float(fn(mid))

    tau = reptile.path_length
    if tau < 2.0 * projection_time:
        warnings.warn(
            f"path length {tau:.3g} below twice the projection time {projection_time:.3g}",
            stacklevel=2,
        )
    energy = _blocked(series.mean(axis=1), 1.0)
    pure = {name: _blocked(vals, 1.0) for name, vals in middles.items()}
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
