"""Interfaces between topologically distinct bulks and walker localization.

An interface joins a uniform left bulk (second coin angle theta_left for
x < 0) to a binary-disordered right bulk (x >= 0), whose law is a
`disorder.DisorderSpec`, with the first coin field the identity
everywhere.  A walker launched on the boundary site of the left bulk
stays pinned when the two bulks carry different invariants, for every
disorder configuration; with equal invariants it spreads ballistically
into the usual double-lobe profile.  Localization is quantified as the
probability mass within [-3, 3].

The launch state matters: the bound mode's weight sits on the left side
of the interface bond, so a walker started at x=-1 overlaps it strongly
while one started at x=0 mostly escapes, and the V polarization (which
the boundary coin converts toward H before the amplitude crosses the
bond) maximizes the bound/ballistic contrast.  LAUNCH_SITE and
LAUNCH_COIN pin the convention.

Walkers run in batches through `walk.record`, with no coin-1 angles, so
the engine steps the occupied sublattice.  The right bulk's coins are
gathered through each pattern's mask from those of theta_a and theta_b
(`disorder.pattern_coins`), as every disorder study gathers them.  The
real coins keep the launch state |-1, V> in the engine's real structure
(H real, V imaginary) up to the global phase i, which no intensity sees.
A batch's P_loc is one sum over the history rows x in [-3, 3] of every
walker, which hold exact zeros outside a walker's window; `run_interface`
keeps the last of its batch of one's `walk.windows`, the window a
single-state stepper ends on.
`localization_vs_disorder` steps each distinct right-bulk pattern of all
its p once, through one `disorder.PatternStudy` call.  Neither study has
a default: every value comes from the run's config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import INTERFACE, interface_members
from .walk import V, Workspace, coins, record, windows
from .disorder import (DisorderSpec, EnsembleResult, PatternStudy, coin_table,
                       config_uniforms, pattern_coins)

#: P_loc counts positions -LOC_WINDOW .. +LOC_WINDOW.
LOC_WINDOW = 3

#: The walker starts here, on the left bulk's boundary site.
LAUNCH_SITE = -1

#: Initial polarization of the launched walker.
LAUNCH_COIN = V


def _joined(left, right: np.ndarray, extent: int) -> np.ndarray:
    """Values on [-extent, right sample end), one row per row of the right
    bulk's (B, sites) values `right`: the left bulk's `left`, then `right`."""
    return np.concatenate([np.full((right.shape[0], extent), left), right], axis=1)


@dataclass
class LocalizationRecord:
    """Per-step position distributions of one interface run."""

    distributions: np.ndarray  # (t+1, sites), row j is P_i after j steps
    x_min: int

    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + self.distributions.shape[1])


def _launch(theta_left: float, right: tuple, t: int,
            workspace: Workspace | None = None) -> tuple:
    """`walk.record` of the launch state, one walker per row of the (B, sites)
    right-bulk second coins `right`, behind the left bulk theta_left, on the
    positions from -(t + 2) on, stepped in `workspace`, or a fresh one."""
    if t < 0:
        raise ValueError("t must be non-negative")
    left = coins(np.array([theta_left]))
    coin2 = tuple(_joined(edge, bulk, t + 2) for edge, bulk in zip(left, right))
    return record(-(t + 2), None, coin2, LAUNCH_SITE, LAUNCH_COIN, t, workspace=workspace)


def run_interface(theta_left: float, right: DisorderSpec, t: int,
                  config: int) -> LocalizationRecord:
    """Evolve the launch state at the interface of the left bulk theta_left
    with configuration `config` of the right bulk `right`, and record every
    step's distribution."""
    mask = config_uniforms(right, [config], right.sites) < right.p
    x_min, h, v = _launch(
        theta_left, pattern_coins(coin_table(right.theta_a, right.theta_b), mask), t)
    lo, hi = windows(h, v)[-1]
    a, b = h[:, lo:hi + 1, 0], v[:, lo:hi + 1, 0]
    return LocalizationRecord(a * a + b * b, x_min + lo)


def _ploc_batch(right: tuple, theta_left: float, t: int,
                workspace: Workspace | None = None) -> np.ndarray:
    """P_loc after t steps of each row of the (B, sites) right-bulk coins, stepped
    in `workspace`: one sum over the rows x in [-LOC_WINDOW, LOC_WINDOW] of the
    whole batch's history."""
    x_min, h, v = _launch(theta_left, right, t, workspace)
    rows = slice(-LOC_WINDOW - x_min, LOC_WINDOW - x_min + 1)
    return np.sum(h[t, rows] ** 2 + v[t, rows] ** 2, axis=0)


def localization_vs_disorder(theta_left: float, theta_a: float, theta_b: float,
                             seed: int, t: int, p_grid, n_configs: int) -> list[EnsembleResult]:
    """Ensemble P_loc statistics per disorder strength.

    The uniforms are drawn once and thresholded at every p, and one
    `PatternStudy` call steps each distinct pattern of all p once.  p = 0
    and p = 1 are deterministic (every configuration identical), so they
    keep one configuration each, with zero variance.
    """
    right = DisorderSpec.for_steps(theta_a, theta_b, 0.0, t, seed, n_configs)
    uniforms = config_uniforms(right, range(n_configs), right.sites)
    study = PatternStudy(theta_a, theta_b,
                         lambda coin2, workspace: _ploc_batch(coin2, theta_left, t, workspace),
                         INTERFACE.held(t))
    counts = interface_members(n_configs, p_grid)
    values = study.values([uniforms[:n] < p for n, p in zip(counts, p_grid)])
    return [EnsembleResult(p, v) for p, v in zip(p_grid, values)]
