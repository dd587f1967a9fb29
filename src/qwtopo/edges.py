"""Interfaces between topologically distinct bulks and walker localization.

An interface joins a uniform left bulk (second coin angle theta_left for
x < 0) to a binary-disordered right bulk (x >= 0): theta_b where its
uniform u < p (`disorder.config_uniforms` of the seed, on the t + 2
sites a t-step walker reaches), theta_a elsewhere; the first coin field
is the identity everywhere.  A walker launched on the boundary site of
the left bulk stays pinned when the two bulks carry different
invariants, for every disorder configuration; with equal invariants it
spreads ballistically into the usual double-lobe profile.  Localization
is quantified as the probability mass within [-3, 3].

The launch state matters: the bound mode's weight sits on the left side
of the interface bond, so a walker started at x=-1 overlaps it strongly
while one started at x=0 mostly escapes, and the V polarization (which
the boundary coin converts toward H before the amplitude crosses the
bond) maximizes the bound/ballistic contrast.  LAUNCH_SITE and
LAUNCH_COIN pin the convention.

Walkers run with no coin-1 angles, so the engine steps the occupied
sublattice.  The right bulk's coins are gathered through each pattern's
mask from those of theta_a and theta_b (`disorder.pattern_coins`), as
every disorder study gathers them.  The real coins keep the launch state
|-1, V> in the engine's real structure (H real, V imaginary) up to the
global phase i, which no intensity sees.  A P_loc batch runs through
`walk.record_cut`, which keeps only the rows x in [-3, 3] that P_loc sums,
up to step t, and exact zeros outside a walker's window; its P_loc is one
sum over those rows of every walker.  `run_interface` records its one
walker's whole walk through `walk.record` and keeps the last of its
`walk.windows`, the window a single-state stepper ends on.
`localization_vs_disorder` steps each distinct right-bulk pattern of all
its p once, through one `disorder.PatternStudy` call.  Neither study has
a default: every value comes from the run's config.
"""

from dataclasses import dataclass

import numpy as np

from .budget import LOC_WINDOW, interface_members, ploc_held
from .walk import V, Workspace, coins, record, record_cut, windows
from .disorder import EnsembleResult, PatternStudy, coin_table, config_uniforms, pattern_coins

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


def _interface_coins(theta_left: float, right: tuple, t: int) -> tuple:
    """The second coins on the positions from -(t + 2) on, one row per row of
    the (B, sites) right-bulk second coins `right`, behind the left bulk
    theta_left."""
    if t < 0:
        raise ValueError("t must be non-negative")
    left = coins(np.array([theta_left]))
    return tuple(_joined(edge, bulk, t + 2) for edge, bulk in zip(left, right))


def _launch(theta_left: float, right: tuple, t: int) -> tuple:
    """`walk.record` of the launch state, one walker per row of the (B, sites)
    right-bulk second coins `right`, behind the left bulk theta_left."""
    return record(-(t + 2), None, _interface_coins(theta_left, right, t), LAUNCH_SITE,
                  LAUNCH_COIN, t)


def run_interface(theta_left: float, theta_a: float, theta_b: float, seed: int, t: int,
                  p: float, config: int) -> LocalizationRecord:
    """Evolve the launch state at the interface of the left bulk theta_left
    with configuration `config` of the right bulk of theta_a and theta_b at
    disorder strength p drawn from `seed`, and record every step's
    distribution."""
    mask = config_uniforms(seed, [config], t + 2) < p
    x_min, h, v = _launch(theta_left, pattern_coins(coin_table(theta_a, theta_b), mask), t)
    lo, hi = windows(h, v)[-1]
    a, b = h[:, lo:hi + 1, 0], v[:, lo:hi + 1, 0]
    return LocalizationRecord(a * a + b * b, x_min + lo)


def _ploc_batch(right: tuple, theta_left: float, t: int, workspace: Workspace) -> np.ndarray:
    """P_loc after t steps of each row of the (B, sites) right-bulk coins, stepped
    in `workspace`: one sum over the rows x in [-LOC_WINDOW, LOC_WINDOW] of the
    whole batch's history, the only rows `walk.record_cut` keeps of it."""
    _, h, v = record_cut(-(t + 2), None, _interface_coins(theta_left, right, t), LAUNCH_SITE,
                         LAUNCH_COIN, t, -LOC_WINDOW, 2 * LOC_WINDOW + 1, t, workspace=workspace)
    return np.sum(h[t] ** 2 + v[t] ** 2, axis=0)


def localization_vs_disorder(theta_left: float, theta_a: float, theta_b: float,
                             seed: int, t: int, p_grid, n_configs: int) -> list[EnsembleResult]:
    """Ensemble P_loc statistics per disorder strength.

    The uniforms are drawn once and thresholded at every p, and one
    `PatternStudy` call steps each distinct pattern of all p once.  p = 0
    and p = 1 are deterministic (every configuration identical), so they
    keep one configuration each, with zero variance.
    """
    uniforms = config_uniforms(seed, range(n_configs), t + 2)
    study = PatternStudy(theta_a, theta_b,
                         lambda coin2, workspace: _ploc_batch(coin2, theta_left, t, workspace),
                         ploc_held(t))
    counts = interface_members(n_configs, p_grid)
    values = study.values([uniforms[:n] < p for n, p in zip(counts, p_grid)])
    return [EnsembleResult(p, v) for p, v in zip(p_grid, values)]
