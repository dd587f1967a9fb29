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
in p at fixed seed.  An ensemble draws its (configs, sites) block of
uniforms once, only the prefix its reflection window steps, and
thresholds it straight into the angle array the engine runs on; a
disorder curve or a transition bisection draws it once for all its p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .walk import CoinField, batches, held
from .scattering import reflection_window, rotated_sums, sample_rows

_TWO_PI = 2.0 * np.pi

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


def config_uniforms(spec: DisorderSpec, configs, sites: int) -> np.ndarray:
    """(len(configs), sites) block whose row k is the uniform stream of
    configuration configs[k]."""
    for config in configs:
        if not 0 <= config < spec.n_configs:
            raise ValueError(f"config index {config} outside [0, {spec.n_configs})")
    return np.array([site_uniforms(spec.seed, k, sites) for k in configs])


def pattern_angles(spec: DisorderSpec, uniforms: np.ndarray) -> np.ndarray:
    """Second coin angles, reduced mod 2*pi, of the configurations whose
    uniforms are `uniforms`: theta_b where u < p, theta_a elsewhere."""
    return np.where(uniforms < spec.p, spec.theta_b, spec.theta_a) % _TWO_PI


def sample_pattern(spec: DisorderSpec, config: int) -> CoinField:
    """Second coin field of one disorder configuration."""
    u = config_uniforms(spec, [config], spec.sites)
    return CoinField(0, pattern_angles(spec, u)[0])


def _halves(rho: np.ndarray) -> np.ndarray:
    """Re(-i r(0)) / 2, the signed invariant estimate, of every row of a
    batch of real series, r_j = i rho_j: Q0 as `scattering.invariants`
    reads it, but without the degeneracy check, so ensemble members keep
    their signed values around zero."""
    return rotated_sums(rho, 0.0).real / 2.0


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


def ensemble_uniforms(spec: DisorderSpec, t: int) -> np.ndarray:
    """The uniforms a t-step ensemble of `spec` thresholds, one row per
    configuration: the prefix of each stream that `sample_rows` steps."""
    if t < 1:
        raise ValueError("t must be at least 1")
    sites = min(spec.sites, reflection_window(t) - 2)
    return config_uniforms(spec, range(spec.n_configs), sites)


def _ensemble_batch(task) -> np.ndarray:
    spec, uniforms, t = task
    return _halves(sample_rows(None, pattern_angles(spec, uniforms), t))


def ensemble_r0(spec: DisorderSpec, t: int, mapper=map) -> EnsembleResult:
    """Half r(0) for every configuration of the ensemble."""
    return _ensemble_r0(spec, t, mapper, ensemble_uniforms(spec, t))


def _ensemble_r0(spec: DisorderSpec, t: int, mapper, uniforms: np.ndarray) -> EnsembleResult:
    """`ensemble_r0` thresholding `uniforms`, which is `ensemble_uniforms`
    of the same seed, configurations and t at any p."""
    per_walker = held(reflection_window(t), t, identity_coin1=True)
    tasks = [(spec, block, t) for block in batches(uniforms, per_walker)]
    values = np.concatenate(list(mapper(_ensemble_batch, tasks)))
    return EnsembleResult(spec.p, values, t)


def disorder_curve(spec: DisorderSpec, t: int, p_grid=DEFAULT_P_GRID,
                   mapper=map) -> list[EnsembleResult]:
    """Ensemble statistics across a grid of disorder strengths."""
    uniforms = ensemble_uniforms(spec, t)
    return [_ensemble_r0(spec.with_p(p), t, mapper, uniforms) for p in p_grid]


def _median_sign(spec: DisorderSpec, t: int, mapper, uniforms) -> float:
    return float(np.median(np.sign(_ensemble_r0(spec, t, mapper, uniforms).values)))


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
    uniforms = ensemble_uniforms(work, t)
    lo, hi = p_lo, p_hi
    m_lo = _median_sign(work.with_p(lo), t, mapper, uniforms)
    m_hi = _median_sign(work.with_p(hi), t, mapper, uniforms)
    if m_lo == 0 or m_hi == 0 or np.sign(m_lo) == np.sign(m_hi):
        raise NoCrossing(
            f"median sign is {m_lo:+.2f} at p={lo} and {m_hi:+.2f} at p={hi}")
    while hi - lo > resolution * (1 + 1e-9):
        mid = round((0.5 * (lo + hi)) / resolution) * resolution
        if not lo < mid < hi:
            break
        m = _median_sign(work.with_p(mid), t, mapper, uniforms)
        if m == 0 or np.sign(m) != np.sign(m_lo):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
