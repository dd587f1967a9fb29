"""Binary coin disorder: seeded sample ensembles and averaged reflection.

A disordered sample draws each site's second coin angle independently:
theta_b with probability p, theta_a otherwise.  The first coin field is
the identity everywhere, matching the two-angle hardware realization in
which every other half-step is a pure lead pass.

Patterns are pure functions of (master seed, config index, site): the
per-site uniforms come from a counter-based generator keyed by seed and
config (`config_uniforms`), so a pattern is reproducible bit-for-bit,
independent of window size, execution order, and of which other
configurations were drawn.
The same uniforms are thresholded for every p, which couples the
ensembles across disorder strengths and makes transition curves smooth
in p at fixed seed.  A study draws its (configs, sites) block of
uniforms once, only the prefix its reflection window steps: a disorder
curve or a transition bisection once for all its p.

Members of a study often share a pattern: at p = 0 and p = 1 every
configuration has the same one, and a short window has few patterns at
all.  A member's value depends on its pattern alone, not on its batch,
so a `PatternStudy` steps each distinct pattern once, its mask gathering
the cosine and sine of theta_a and theta_b into the coins the engine
runs on (`pattern_coins`, which interface walks share), and hands its
value to every member that has it.  It keys the members of a call in one
array pass, their masks packed to bits and sorted, and steps all its
batches in one `walk.Workspace`, which it keeps for its lifetime.  A
disorder curve evaluates all its p in one call; a transition bisection
its two endpoints and its first midpoint in one call, and it keeps the
values it stepped for every later probe.  Both take the values they read;
only `sample_pattern` and `ensemble_r0` read a `DisorderSpec`.
"""

from dataclasses import dataclass

import numpy as np

from .budget import ensemble_held, sample_width
from .walk import CoinField, Workspace, coins, over_batches
from .scattering import rotated_sums, sample_rows


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
    n_configs: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.sites < 1:
            raise ValueError("sample region is empty")
        if self.n_configs < 1:
            raise ValueError("need at least one configuration")

    @classmethod
    def for_steps(cls, theta_a: float, theta_b: float, p: float, t: int,
                  seed: int, n_configs: int) -> "DisorderSpec":
        """Spec whose sample covers the light cone of a t-step run."""
        return cls(theta_a, theta_b, p, t + 2, seed, n_configs)


def config_uniforms(seed: int, configs, sites: int) -> np.ndarray:
    """(len(configs), sites) block whose row k is the uniform stream of
    configuration configs[k]: the first `sites` doubles that
    `np.random.Generator(np.random.Philox(key=[seed, config]))` draws, with
    the seed reduced mod 2**64; an index outside [0, 2**64), which the key
    would alias to another stream, is refused.  Extending `sites` keeps the
    prefix.  One Philox is re-keyed through its state for every stream,
    from the rows of one array of keys, each converted as its constructor
    converts it: exactly, unless [seed, config] lies on both sides of 2**63,
    which numpy converts through float64."""
    configs = list(configs)
    for config in configs:
        if not 0 <= config < 2**64:
            raise ValueError(f"config index {config} outside [0, 2**64)")
    bits = np.random.Philox(0)
    draw = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty buffer, as in every new Philox
    seed = seed & (2**64 - 1)
    keys = np.empty((len(configs), 2), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = seed, configs
    for k in np.flatnonzero(keys[:, 1] >> 63 != seed >> 63):
        keys[k] = np.asarray([seed, configs[k]]).astype(np.uint64)
    out = np.empty((len(configs), sites))
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bits.state = state
        draw.random(out=row)
    return out


def sample_pattern(spec: DisorderSpec, config: int) -> CoinField:
    """Second coin field of one disorder configuration: theta_b where its
    uniform u < p, theta_a elsewhere, each reduced mod 2*pi."""
    if not 0 <= config < spec.n_configs:
        raise ValueError(f"config index {config} outside [0, {spec.n_configs})")
    u = config_uniforms(spec.seed, [config], spec.sites)[0]
    return CoinField(0, np.where(u < spec.p, spec.theta_b, spec.theta_a))


def coin_table(theta_a: float, theta_b: float) -> np.ndarray:
    """[[cos theta_a, sin theta_a], [cos theta_b, sin theta_b]]: the coins of
    theta_a and theta_b, reduced mod 2*pi, that `pattern_coins` gathers."""
    return np.column_stack(coins(np.array([theta_a, theta_b])))


def pattern_coins(table: np.ndarray, masks: np.ndarray, *,
                  workspace: Workspace | None = None) -> tuple:
    """The second coins of the (B, sites) boolean patterns `masks`, gathered
    from the `coin_table` rows of theta_a (False) and theta_b (True) into
    an array carved from `workspace`, or a fresh one if none is given."""
    out = (Workspace() if workspace is None else workspace).coins(2 * masks.size)
    # (B, sites, cos and sin); a "clip" take writes out directly, with no buffer
    table = np.take(table, masks.view(np.uint8), axis=0, out=out.reshape(*masks.shape, 2),
                    mode="clip")
    return table[..., 0], table[..., 1]


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

    @property
    def n_configs(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))


class PatternStudy:
    """The values of the distinct coin patterns of one study, each stepped once.

    A member's pattern is its row of a boolean mask u < p of its uniforms u:
    theta_b where True, theta_a elsewhere.  `values` steps the patterns the
    study has not stepped yet, as `budget.batches` of walkers that each hold
    `per_walker` elements, through `batch`, which maps the second coins of a
    (B, sites) block of patterns, a pair of `walk.coins` arrays, and the
    study's `walk.Workspace` to one value per row.  The cosine and sine of
    theta_a and theta_b are taken once, and every pattern's coins are
    gathered from them, in the workspace, which every batch of the study's
    lifetime reuses.  It keeps every value for the study's later calls.  A
    member's value depends on its pattern alone, not on its batch, so every
    member gets the bits that stepping it on its own gives.
    """

    def __init__(self, theta_a: float, theta_b: float, batch, per_walker: int):
        self.table = coin_table(theta_a, theta_b)
        self.batch, self.per_walker = batch, per_walker
        self.workspace = Workspace()
        self.keys = None  # the sorted keys of the patterns stepped
        self.stepped = np.empty(0)  # their values, in the same order

    def values(self, masks: list) -> list[np.ndarray]:
        """The value of every member of each (members, sites) block of masks,
        one array per block.  The members of all blocks are keyed in one
        array pass, each mask row packed to bits as one bytes key: the
        distinct keys are sorted once and looked up among those the study
        has stepped with one binary search.  The new patterns are stepped in
        the order they first occur."""
        rows = np.concatenate(masks)
        packed = np.packbits(rows, axis=1)
        keys, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1])))[:, 0],
                                         return_index=True, return_inverse=True)
        known = keys[:0] if self.keys is None else self.keys
        at = np.searchsorted(known, keys)
        seen = at < len(known)
        seen[seen] = known[at[seen]] == keys[seen]
        value = np.empty(len(keys))
        value[seen] = self.stepped[at[seen]]
        fresh = np.flatnonzero(~seen)  # in key order
        if fresh.size:
            new = fresh[np.argsort(first[fresh])]
            value[new] = over_batches(
                lambda block, workspace: self.batch(
                    pattern_coins(self.table, block, workspace=workspace), workspace),
                rows[first[new]], self.per_walker, workspace=self.workspace,
                gathered=2 * rows.shape[1])
            self.keys = np.insert(known, at[fresh], keys[fresh])
            self.stepped = np.insert(self.stepped, at[fresh], value[fresh])
        return np.split(value[inverse], np.cumsum([len(block) for block in masks[:-1]]))


def _ensemble_batch(coin2: tuple, t: int, workspace: Workspace) -> np.ndarray:
    """Half r(0) after t steps of the sample of every row of a (B, sites)
    block of second coins, stepped in `workspace`."""
    return _halves(sample_rows(None, coin2, t, workspace=workspace))


def _ensemble(theta_a: float, theta_b: float, seed: int, t: int, n_configs: int) -> tuple:
    """The uniforms of n_configs configurations on the sites `sample_rows`
    steps, and the `PatternStudy` of their half r(0) after t steps at any p."""
    if t < 1:
        raise ValueError("t must be at least 1")
    study = PatternStudy(theta_a, theta_b,
                         lambda coin2, workspace: _ensemble_batch(coin2, t, workspace),
                         ensemble_held(t))
    return config_uniforms(seed, range(n_configs), sample_width(t)), study


def ensemble_r0(spec: DisorderSpec, t: int) -> EnsembleResult:
    """Half r(0) for every configuration of the ensemble, on at most `spec.sites` sites."""
    uniforms, study = _ensemble(spec.theta_a, spec.theta_b, spec.seed, t, spec.n_configs)
    return EnsembleResult(spec.p, study.values([uniforms[:, :spec.sites] < spec.p])[0])


def disorder_curve(theta_a: float, theta_b: float, seed: int, t: int, n_configs: int,
                   p_grid) -> list[EnsembleResult]:
    """Ensemble statistics across a grid of disorder strengths, all p in one
    `PatternStudy` call."""
    uniforms, study = _ensemble(theta_a, theta_b, seed, t, n_configs)
    values = study.values([uniforms < p for p in p_grid])
    return [EnsembleResult(p, v) for p, v in zip(p_grid, values)]


def _midpoint(lo: float, hi: float, resolution: float) -> float | None:
    """The bisection's probe of the bracket [lo, hi]: its midpoint rounded to
    the p grid of `resolution`, or None, where the bisection stops, once the
    bracket is within the resolution or the probe is not strictly inside."""
    if hi - lo <= resolution * (1 + 1e-9):
        return None
    mid = round(0.5 * (lo + hi) / resolution) * resolution
    return mid if lo < mid < hi else None


def transition_locator(theta_a: float, theta_b: float, seed: int, t: int, n_configs: int,
                       resolution: float) -> float:
    """Disorder strength where the ensemble median invariant flips sign.

    Bisects [0, 1] on a p grid of the given resolution (`_midpoint`) using
    the median of sign(half r(0)) over n_configs configurations of binary
    disorder between theta_a and theta_b drawn from `seed` (`_ensemble`).
    Larger t sharpens the transition, so the bisection estimate converges to
    the infinite-size critical strength.  Raises NoCrossing when both
    endpoints share a sign.

    Every probe shares one `PatternStudy`, so a pattern is stepped once per
    bisection, in one workspace.  The two endpoints and the first midpoint,
    where the bisection probes one, are stepped in one call; its probe then
    reuses their values, and the bisection and the result are those of
    probing it on its own.  On NoCrossing that
    midpoint's patterns were stepped in vain.
    """
    if t < 101:
        raise ValueError("transition location needs t >= 101")
    uniforms, study = _ensemble(theta_a, theta_b, seed, t, n_configs)

    def median_signs(*ps):
        return [float(np.median(np.sign(v))) for v in study.values([uniforms < p for p in ps])]

    lo, hi = 0.0, 1.0
    mid = _midpoint(lo, hi, resolution)
    m_lo, m_hi = median_signs(lo, hi, *([] if mid is None else [mid]))[:2]
    if m_lo == 0 or m_hi == 0 or np.sign(m_lo) == np.sign(m_hi):
        raise NoCrossing(
            f"median sign is {m_lo:+.2f} at p={lo} and {m_hi:+.2f} at p={hi}")
    while (mid := _midpoint(lo, hi, resolution)) is not None:
        m, = median_signs(mid)
        if m == 0 or np.sign(m) != np.sign(m_lo):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
