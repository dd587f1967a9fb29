"""Binary coin disorder: seeded sample ensembles and averaged reflection.

A disordered sample draws each site's second coin angle independently:
theta_b with probability p, theta_a otherwise.  The first coin field is
the identity everywhere, matching the two-angle hardware realization in
which every other half-step is a pure lead pass.

Patterns are pure functions of (master seed, config index, site): the
per-site uniforms come from a counter-based generator keyed by seed and
config, so a pattern is reproducible bit-for-bit, independent of window
size, execution order, and of which other configurations were drawn.
The same uniforms are thresholded for every p, which couples the
ensembles across disorder strengths and makes transition curves smooth
in p at fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .walk import CoinField, batches
from .scattering import (
    CANONICAL_ROTATION,
    ScatteringSystem,
    reflection_amplitudes,
    reflection_matrix_element,
    reflection_rows,
)

#: Disorder strengths used by the standard ensemble studies.
DEFAULT_P_GRID = tuple(i / 10 for i in range(11))


class NoCrossing(ValueError):
    """The ensemble median keeps one sign across the whole disorder range."""


@dataclass(frozen=True)
class DisorderSpec:
    """Binary disorder over a sample of `sites` sites."""

    theta_a: float
    theta_b: float
    p: float
    sites: int
    seed: int
    n_configs: int = 50

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.sites < 1:
            raise ValueError("sample region is empty")
        if self.n_configs < 1:
            raise ValueError("need at least one configuration")

    @classmethod
    def for_steps(cls, theta_a: float, theta_b: float, p: float, t: int,
                  seed: int, n_configs: int = 50) -> "DisorderSpec":
        """Spec whose sample covers the light cone of a t-step run."""
        return cls(theta_a, theta_b, p, t + 2, seed, n_configs)

    def with_p(self, p: float) -> "DisorderSpec":
        """Same ensemble (seed, angles, size) at a different strength."""
        return replace(self, p=p)


def site_uniforms(seed: int, config: int, sites: int) -> np.ndarray:
    """The counter-based uniform stream for one configuration.

    Extending `sites` keeps the existing prefix unchanged.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), config]))
    return gen.random(sites)


def sample_pattern(spec: DisorderSpec, config: int) -> CoinField:
    """Second coin field of one disorder configuration."""
    if not 0 <= config < spec.n_configs:
        raise ValueError(f"config index {config} outside [0, {spec.n_configs})")
    u = site_uniforms(spec.seed, config, spec.sites)
    return CoinField(0, np.where(u < spec.p, spec.theta_b, spec.theta_a))


def scattering_system(spec: DisorderSpec, config: int) -> ScatteringSystem:
    """Lead-sample system of one configuration (first coin identity)."""
    pattern = sample_pattern(spec, config)
    return ScatteringSystem(np.zeros(spec.sites), pattern.thetas)


def half_r0(system: ScatteringSystem, t: int) -> float:
    """Re(-i r(0)) / 2 for a t-step run: the signed invariant estimate.

    Q0 as `scattering.invariants` reads it, but without the degeneracy
    check, so ensemble members keep their signed values around zero.
    """
    return _half(reflection_amplitudes(system, t).r)


def _half(r: np.ndarray) -> float:
    return (CANONICAL_ROTATION * reflection_matrix_element(r, 0.0)).real / 2.0


@dataclass
class EnsembleResult:
    """Per-configuration values at one disorder strength: half r(0) for
    `ensemble_r0`, P_loc for `edges.localization_vs_disorder`."""

    p: float
    values: np.ndarray
    t: int

    @property
    def n_configs(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))


def _ensemble_batch(task) -> list[float]:
    spec, configs, t = task
    systems = [scattering_system(spec, k) for k in configs]
    return [_half(1j * rho) for rho in reflection_rows(systems, t)]


def ensemble_r0(spec: DisorderSpec, t: int, mapper=map) -> EnsembleResult:
    """Half r(0) for every configuration of the ensemble."""
    if t < 1:
        raise ValueError("t must be at least 1")
    tasks = [(spec, configs, t) for configs in batches(range(spec.n_configs))]
    values = np.array(list(chain.from_iterable(mapper(_ensemble_batch, tasks))))
    return EnsembleResult(spec.p, values, t)


def disorder_curve(spec: DisorderSpec, t: int, p_grid=DEFAULT_P_GRID,
                   mapper=map) -> list[EnsembleResult]:
    """Ensemble statistics across a grid of disorder strengths."""
    return [ensemble_r0(spec.with_p(p), t, mapper) for p in p_grid]


def _median_sign(spec: DisorderSpec, t: int, mapper) -> float:
    return float(np.median(np.sign(ensemble_r0(spec, t, mapper).values)))


def transition_locator(spec: DisorderSpec, t: int = 201, n_configs: int = 200,
                       resolution: float = 0.025, p_lo: float = 0.0,
                       p_hi: float = 1.0, mapper=map) -> float:
    """Disorder strength where the ensemble median invariant flips sign.

    Bisects on a p grid of the given resolution using the median of
    sign(half r(0)) over n_configs configurations, with the sample sized
    to the light cone of t steps.  Larger t sharpens the transition, so
    the bisection estimate converges to the infinite-size critical
    strength.  Raises NoCrossing when both endpoints share a sign.
    """
    if t < 101:
        raise ValueError("transition location needs t >= 101")
    if not 0 <= p_lo < p_hi <= 1:
        raise ValueError("need 0 <= p_lo < p_hi <= 1")
    work = DisorderSpec(spec.theta_a, spec.theta_b, p_lo, t + 2, spec.seed,
                        n_configs)
    lo, hi = p_lo, p_hi
    m_lo = _median_sign(work.with_p(lo), t, mapper)
    m_hi = _median_sign(work.with_p(hi), t, mapper)
    if m_lo == 0 or m_hi == 0 or np.sign(m_lo) == np.sign(m_hi):
        raise NoCrossing(
            f"median sign is {m_lo:+.2f} at p={lo} and {m_hi:+.2f} at p={hi}")
    while hi - lo > resolution * (1 + 1e-9):
        mid = round((0.5 * (lo + hi)) / resolution) * resolution
        if not lo < mid < hi:
            break
        m = _median_sign(work.with_p(mid), t, mapper)
        if m == 0 or np.sign(m) != np.sign(m_lo):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
