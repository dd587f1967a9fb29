"""Interfaces between topologically distinct bulks and walker localization.

An interface system joins a uniform left bulk (second coin angle
theta_left for x < 0) to a binary-disordered right bulk (x >= 0), with
the first coin field the identity everywhere.  A walker launched on the
boundary site of the left bulk stays pinned when the two bulks carry
different invariants, for every disorder configuration; with equal
invariants it spreads ballistically into the usual double-lobe profile.
Localization is quantified as the probability mass within [-3, 3].

The launch state matters: the bound mode's weight sits on the left side
of the interface bond, so a walker started at x=-1 overlaps it strongly
while one started at x=0 mostly escapes, and the V polarization (which
the boundary coin converts toward H before the amplitude crosses the
bond) maximizes the bound/ballistic contrast.  LAUNCH_SITE and
LAUNCH_COIN pin the convention.

Configurations run in batches through `walk.record`.  The real coins keep
the launch state |-1, V> in the engine's real structure (H real, V
imaginary) up to the global phase i, which no intensity sees, and the
recorded window is the one `evolve` ends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .walk import V, batches, held, record, record_window
from .disorder import (DEFAULT_P_GRID, DisorderSpec, EnsembleResult, config_uniforms,
                       pattern_angles)

#: P_loc counts positions -LOC_WINDOW .. +LOC_WINDOW.
LOC_WINDOW = 3

#: The walker starts here, on the left bulk's boundary site.
LAUNCH_SITE = -1

#: Initial polarization of the launched walker.
LAUNCH_COIN = V

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class InterfaceSystem:
    """Left bulk angle plus the disorder law of the right bulk."""

    theta_left: float
    right: DisorderSpec

    @classmethod
    def for_steps(cls, theta_left: float, theta_a: float, theta_b: float,
                  p: float, t: int, seed: int, n_configs: int = 50) -> "InterfaceSystem":
        return cls(theta_left,
                   DisorderSpec.for_steps(theta_a, theta_b, p, t, seed, n_configs))

    def uniforms(self, configs) -> np.ndarray:
        """The right sample's uniforms of the configurations, one row each."""
        return config_uniforms(self.right, configs, self.right.sites)

    def field2_angles(self, uniforms: np.ndarray, extent: int) -> np.ndarray:
        """Second coin angles on [-extent, right sample end), one row per row
        of `uniforms`: theta_left on the left bulk, then the pattern."""
        right = pattern_angles(self.right, uniforms)
        left = np.full((right.shape[0], extent), self.theta_left % _TWO_PI)
        return np.concatenate([left, right], axis=1)


@dataclass
class LocalizationRecord:
    """Per-step position distributions of one interface run."""

    distributions: np.ndarray  # (t+1, sites), row j is P_i after j steps
    x_min: int
    t: int
    config: int

    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + self.distributions.shape[1])

    def p_loc_at(self, step: int) -> float:
        """Probability mass in [-LOC_WINDOW, LOC_WINDOW] after `step` steps."""
        row = self.distributions[step]
        x = self.positions()
        return float(row[(x >= -LOC_WINDOW) & (x <= LOC_WINDOW)].sum())

    @property
    def p_loc(self) -> float:
        return self.p_loc_at(self.t)


def _launch(system: InterfaceSystem, t: int, configs, uniforms) -> list[LocalizationRecord]:
    """Records of the launch state, one per configuration, whose uniforms are
    the rows of `uniforms`."""
    if t < 0:
        raise ValueError("t must be non-negative")
    th2 = system.field2_angles(uniforms, extent=t + 2)
    runs = record(-(t + 2), np.zeros_like(th2), th2, LAUNCH_SITE, LAUNCH_COIN, t)
    return [LocalizationRecord(a * a + b * b, x_min, t, k)
            for k, (x_min, a, b) in zip(configs, runs)]


def run_interface(system: InterfaceSystem, t: int = 13, config: int = 0) -> LocalizationRecord:
    """Evolve the launch state and record every step's distribution."""
    return _launch(system, t, [config], system.uniforms([config]))[0]


def intensity_map_export(record: LocalizationRecord):
    """(positions, matrix) of P_i per step, ready for heat maps or CSV."""
    return record.positions(), record.distributions


def _ploc_batch(task) -> list[float]:
    system, t, configs, uniforms = task
    return [rec.p_loc for rec in _launch(system, t, configs, uniforms)]


def localization_vs_disorder(theta_left: float, theta_a: float, theta_b: float,
                             seed: int, t: int = 13, p_grid=DEFAULT_P_GRID,
                             n_configs: int = 50, mapper=map) -> list[EnsembleResult]:
    """Ensemble P_loc statistics per disorder strength.

    p = 0 and p = 1 are deterministic (every configuration identical),
    so they are run as single configurations with zero variance.  The
    uniforms are drawn once and thresholded at every p.
    """
    uniforms = InterfaceSystem.for_steps(theta_left, theta_a, theta_b, 0.0, t, seed,
                                         n_configs).uniforms(range(n_configs))
    per_walker = held(record_window(t), t, history=True)
    out = []
    for p in p_grid:
        n = 1 if p in (0.0, 1.0) else n_configs
        system = InterfaceSystem.for_steps(theta_left, theta_a, theta_b, p, t,
                                           seed, n)
        tasks = [(system, t, configs, uniforms[configs])
                 for configs in batches(range(n), per_walker)]
        values = np.array(list(chain.from_iterable(mapper(_ploc_batch, tasks))))
        out.append(EnsembleResult(float(p), values, t))
    return out


def reference_record(theta_left: float, theta_right: float, t: int = 13) -> LocalizationRecord:
    """Clean interface between two bulks (no disorder, single run).

    With both angles drawn from the same phase this is the study's
    no-edge-state reference.
    """
    spec = DisorderSpec.for_steps(theta_right, theta_right, 0.0, t, seed=0,
                                  n_configs=1)
    return run_interface(InterfaceSystem(theta_left, spec), t, 0)
