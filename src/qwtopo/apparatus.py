"""Digital twin of the measurement chain.

The physical read-out never sees complex amplitudes.  It measures pulse
intensities step by step, then recovers the sign of each reflection
amplitude relative to its predecessor by interfering neighboring pulses
with a mixing coin of angle alpha, and finally fixes the global sign
with a reference pulse of known phase.  This module reproduces that
chain, with optional imperfections: per-detector efficiencies, a
relative loss asymmetry between the two polarization paths that
compounds every roundtrip, and static offsets of the two coin-control
stages (one offset on every realized sample angle, one additional
offset on switched, i.e. nonzero, angles).

All ideal reflection amplitudes are purely imaginary, so the chain
works with the real series rho_j = Im r_j; the measured complex
amplitudes are i * rho_j.  Each realized system is propagated once: an
emulation through `walk.record`, whose real V history at the read-out
site x = -2 is rho_j and whose history on its last window
(`walk.windows`) gives the walk intensities, and the fit's models in
batches through `walk.record_cut`, which keeps only what the fit reads.

The read-out runs on a whole batch at once: a (B, t) array of rho
gives the magnitudes, each present pulse interfered with the previous
present pulse of its row, one sign test with one floor rule per pair,
and the sign chain as a cumulative product over time from the reference
pulse.  Wherever a sign cannot be read, the result is NaN and no run
stops: a row with an unreadable pair is NaN, and so are (Q0, Qpi) of a
row whose |r(0)| is below 1e-6.  The Monte-Carlo fit runs it on batches
of models, each batch a (B, 5) array of model parameters.  It reads rho
from the engine's read-out of V at x = -2, and the intensities' distances
from the batch's history of steps 0 .. horizon on the observed positions
that the probe's cone -1 +- horizon reaches, zero on the others: the fit
compares model and observed intensities by position, each observed
column with the history row of its own site.
`emulate_measurement` runs it with B = 1 and keeps the signed series as
it is, which `measured_invariants` reads; its defaults, which no config
key sets, read the data an mc-errorbars run fits.  `relative_sign` and
`reconstruct_series` apply the same sign rule and chain one pair at a
time to sign data given as a list of pairs, and raise where the batch
gives NaN.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .budget import (ALPHA_GUARD, PROBE_SITE, READOUT_SITE, fit_held, readout_held,
                     record_window, within_guard)
from .walk import H, Workspace, coins, over_batches, record, record_cut, windows
from .scattering import InvariantPair, ScatteringSystem, invariant_rows

SAME = "same"
OPPOSITE = "opposite"

#: |Delta I| floor of the read-out, as a fraction of the pair's total intensity.
INTENSITY_FLOOR = 1e-4

#: Magnitudes at or below this are treated as structurally absent pulses.
MAGNITUDE_EPS = 1e-12


class AmbiguousSign(ValueError):
    """The interference contrast is too small to read a sign from."""


class ChainBroken(ValueError):
    """Sign reconstruction lost the chain; later signs are undetermined."""

    def __init__(self, undetermined):
        self.undetermined = sorted(undetermined)
        super().__init__(
            f"sign chain broken; undetermined steps: {self.undetermined}")


@dataclass(frozen=True)
class ApparatusModel:
    """Static imperfections of one experimental run."""

    efficiency_h: float = 1.0
    efficiency_v: float = 1.0
    loss_asymmetry: float = 0.0  # relative V-vs-H intensity drift per step
    eom_error: float = 0.0       # radians, added to switched (nonzero) angles
    sbc_error: float = 0.0       # radians, added to every sample angle

    def __post_init__(self):
        for name in ("efficiency_h", "efficiency_v"):
            e = getattr(self, name)
            if not 0.0 < e <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {e}")


@dataclass(frozen=True)
class ErrorRanges:
    """Uniform draw ranges for Monte-Carlo model sampling."""

    loss_asymmetry: float   # +-
    eom_error: float        # +-, radians
    sbc_error: float        # +-, radians
    efficiency_span: float  # efficiencies in [1 - span, 1]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 5) array of n models, one row each with the columns in
        ApparatusModel field order; each takes five uniforms from rng,
        in that order."""
        low = (0.0, 0.0, -self.loss_asymmetry, -self.eom_error, -self.sbc_error)
        high = (self.efficiency_span, self.efficiency_span, self.loss_asymmetry,
                self.eom_error, self.sbc_error)
        params = rng.uniform(low, high, (n, 5))
        params[:, :2] = 1.0 - params[:, :2]
        return params


# Columns of a (B, 5) model array such as `ErrorRanges.draw` returns.
_EFF_H, _EFF_V, _LOSS, _EOM, _SBC = range(5)


def _params(models) -> np.ndarray:
    """(B, 5) array of a list of models."""
    return np.array([astuple(m) for m in models], dtype=float)


@dataclass(frozen=True)
class SignMeasurement:
    """One pairwise interference read-out."""

    step_a: int  # 1-based step index of the earlier pulse
    step_b: int
    alpha: float
    i_h: float
    i_v: float


@dataclass
class MeasurementData:
    """What one run measures, and the series its sign chain reads."""

    magnitudes: np.ndarray           # |rho_j| estimates, index j-1
    series: np.ndarray               # signed rho_j, or NaN where a pair gives no sign
    reference_sign: int              # global sign of the first nonzero pulse
    alpha: float
    distributions: np.ndarray        # (t+1, sites) walk intensities per step
    x_min: int
    t: int


def interfere(r1, r2, alpha: float):
    """Detector intensities after mixing two real pulse amplitudes.

    I_{H/V} = (r1^2 sin^2 a -+ 2 r1 r2 sin a cos a + r2^2 cos^2 a) / 2,
    so I_H + I_V = (r1^2 sin^2 a + r2^2 cos^2 a), which at the working
    point a = pi/4 is (r1^2 + r2^2) / 2 exactly.  Works elementwise on
    arrays of pulse pairs.
    """
    s, c = np.sin(alpha), np.cos(alpha)
    base = r1 * r1 * s * s + r2 * r2 * c * c
    cross = 2.0 * r1 * r2 * s * c
    return 0.5 * (base - cross), 0.5 * (base + cross)


def _below_floor(i_h, i_v):
    """|Delta I| is zero or below INTENSITY_FLOOR times the pair's total
    intensity (elementwise on arrays)."""
    delta = i_h - i_v
    return (delta == 0.0) | (np.abs(delta) < INTENSITY_FLOOR * (i_h + i_v))


def _same(i_h, i_v, alpha: float):
    """sign(r1 r2) > 0, read as -sign(Delta I / (sin alpha cos alpha)): Delta I
    sin alpha cos alpha < 0, since negating a product is exact."""
    return (i_h - i_v) * (np.sin(alpha) * np.cos(alpha)) < 0


def _check_guard(alpha: float) -> None:
    if within_guard(alpha):
        raise AmbiguousSign(
            f"mixing angle {alpha:.4f} rad is within {np.degrees(ALPHA_GUARD):.0f} "
            "degrees of a multiple of pi/2")


def relative_sign(i_h: float, i_v: float, alpha: float) -> str:
    """SAME or OPPOSITE for two pulses interfered at mixing angle alpha
    into the detector intensities i_h and i_v.

    sign(r1 r2) = -sign(Delta I / (sin alpha cos alpha)) with
    Delta I = i_h - i_v.  Raises AmbiguousSign when alpha is within
    ALPHA_GUARD of a multiple of pi/2 (vanishing contrast) or |Delta I|
    is zero or below INTENSITY_FLOOR times i_h + i_v.
    """
    _check_guard(alpha)
    if _below_floor(i_h, i_v):
        raise AmbiguousSign(f"|Delta I| = {abs(i_h - i_v):.3e} is below the floor "
                            f"{INTENSITY_FLOOR * (i_h + i_v):.3e}")
    return SAME if _same(i_h, i_v, alpha) else OPPOSITE


def perturbed_angles(thetas: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The sample angles the imperfect hardware realizes, one row per row
    of the (B, 5) model array params.

    Every switched (nonzero) angle picks up both coin-stage offsets.
    Zero angles stay exact: identity coins are realized by a calibrated
    cancellation of the two stages, not synthesized from scratch.
    """
    off = params[:, _SBC, None] + params[:, _EOM, None]
    return np.where(thetas != 0.0, thetas + off, 0.0)


def _model_coins(system: ScatteringSystem, params: np.ndarray) -> tuple:
    """The (coin1, coin2) pairs of `walk.coins` of the system on [0, m) as the
    hardware of each row of the model array params realizes it: the coins of
    each distinct site angle of a field, perturbed by each model, gathered to
    that angle's sites."""
    fields = []
    for thetas in (system.theta1, system.theta2):
        distinct, sites = np.unique(thetas, return_inverse=True)
        fields.append(tuple(part[:, sites] for part in coins(perturbed_angles(distinct, params))))
    return tuple(fields)


def _intensities(a: np.ndarray, b: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Per-step position intensities of (t+1, sites, B) probe histories, with
    each walker's loss asymmetry, row k of the (B, 1) loss, applied.
    Overwrites a and b, one step at a time, so that numpy's buffer for the
    broadcast factor stays one step's size."""
    steps = np.arange(a.shape[0])[:, None]
    loss = loss[:, :, None]
    for x, factor in ((a, (1.0 - loss) ** steps), (b, (1.0 + loss) ** steps)):
        x *= x
        for row, f in zip(x, factor[:, :, 0].T):
            row *= f
    a += b
    return a


def _readout(rho: np.ndarray, params: np.ndarray, alpha: float, mode: str = "exact",
             shots: int = 1_000_000, rng: np.random.Generator | None = None) -> tuple:
    """(magnitudes, series, reference) of a (B, t) batch of read-out series,
    row k measured by the model in row k of the (B, 5) model array params:
    the |rho_j| estimates, the signed rows, and the sign of each row's first
    present pulse (+1 without one).

    Each present pulse is interfered with the previous present pulse of its
    row, and the signs are a cumulative product over time of the pair
    relations from that first pulse.  Absent pulses are exact zeros, and a
    row with a pair whose |Delta I| is below the floor is NaN.  In "shots"
    mode Poisson counts with `shots` photons per unit intensity are drawn
    from rng: every magnitude first, then each pair's (i_h, i_v) in turn,
    row after row.  Beside rho it holds its magnitudes, seven arrays of pulse
    pairs (one per step at most) as `interfere` forms its results, and masks:
    7.2-8.5 rows of t per model traced at t = 11 to 400 (`budget.READOUT_ARRAYS`).
    """
    steps = np.arange(rho.shape[1])
    eff_v = params[:, _EFF_V, None]
    gain = (1.0 + params[:, _LOSS, None]) ** (steps + 1)
    magnitudes = eff_v * gain  # the intensities eff_v gain rho^2 on the lossy V path
    amps = np.square(rho)
    magnitudes *= amps
    if mode == "shots":
        magnitudes = rng.poisson(magnitudes * shots) / shots
    magnitudes /= eff_v
    np.sqrt(magnitudes, out=magnitudes)
    present = magnitudes > MAGNITUDE_EPS
    np.multiply(rho, np.sqrt(gain, out=gain), out=amps)  # sqrt(gain) > 0 keeps the sign of rho
    del gain
    negative = present & (amps < 0)  # until the first present pulse
    # the last present step before each step, -1 before the first: a running maximum
    previous = np.full(rho.shape, -1)
    np.maximum.accumulate(np.where(present[:, :-1], steps[:-1], -1), axis=1, out=previous[:, 1:])
    negative &= previous < 0
    paired = present & (previous >= 0)
    first = amps[np.repeat(np.arange(len(rho)), np.count_nonzero(paired, axis=1)),
                 previous[paired]]
    del previous
    second = amps[paired]
    del amps
    i_h, i_v = interfere(first, second, alpha)
    del first, second
    i_h *= np.broadcast_to(params[:, _EFF_H, None], rho.shape)[paired]
    i_v *= np.broadcast_to(eff_v, rho.shape)[paired]
    if mode == "shots":
        i_h, i_v = (rng.poisson(np.stack([i_h, i_v], axis=1) * shots) / shots).T
    below, same = _below_floor(i_h, i_v), _same(i_h, i_v, alpha)
    del i_h, i_v
    signs = np.where(negative, -1.0, 1.0)  # the relation of each pulse to the one before
    signs[paired] = np.where(below, np.nan, np.where(same, 1.0, -1.0))
    np.cumprod(signs, axis=1, out=signs)  # a NaN runs on to the end of its row
    broken = np.isnan(signs[:, -1:]).any(axis=1)  # a slice: empty at t = 0
    signs *= magnitudes
    signs[~present] = 0.0
    signs[broken] = np.nan
    return magnitudes, signs, np.where(negative.any(axis=1), -1, 1)


def emulate_measurement(system: ScatteringSystem, t: int,
                        model: ApparatusModel = ApparatusModel(),
                        alpha: float = np.pi / 4, mode: str = "exact",
                        shots: int = 1_000_000, seed: int = 0) -> MeasurementData:
    """Run the full measurement chain on a lead-sample system.

    "exact" mode reads intensities directly; "shots" mode draws Poisson
    counts with the given photon budget per unit intensity.  A series with
    a pair whose sign cannot be read, as few photons may give, is NaN, and
    so are the invariants `measured_invariants` reads from it.  Raises
    AmbiguousSign when alpha is within ALPHA_GUARD of a multiple of pi/2,
    where no pair gives a sign.
    """
    if mode not in ("exact", "shots"):
        raise ValueError(f"unknown mode: {mode!r}")
    _check_guard(alpha)
    params = _params([model])
    x_min, h, v = record(0, *_model_coins(system, params), PROBE_SITE, H, t)
    lo, hi = windows(h, v)[-1]
    rho = v[1:, READOUT_SITE - x_min, 0].copy()
    # square the window in place: a copy of it would double what the run holds
    dists = _intensities(h[:, lo:hi + 1], v[:, lo:hi + 1], params[:, _LOSS, None])[..., 0]
    return _measure(rho, model, x_min + lo, dists, alpha, mode, shots, seed)


def _measure(rho: np.ndarray, model: ApparatusModel, x_min: int, distributions,
             alpha: float, mode: str, shots: int, seed: int) -> MeasurementData:
    """The batched read-out with B = 1 of one probe run's series rho_1 ..
    rho_t, whose intensities `distributions` start at position x_min."""
    magnitudes, series, reference = _readout(rho[None], _params([model]), alpha, mode, shots,
                                             np.random.default_rng(seed))
    return MeasurementData(magnitudes[0], series[0], int(reference[0]), alpha, distributions,
                           x_min, rho.size)


def reconstruct_series(magnitudes: np.ndarray, signs, reference_sign: int) -> np.ndarray:
    """Signed real series rho_j from magnitudes plus sign information.

    `signs` is a list of SignMeasurement or (step_a, step_b, relation)
    tuples with relation in {SAME, OPPOSITE} or None for an unreadable
    pair; a SignMeasurement is read by `relative_sign` at its own alpha.
    The reference sign is attached to the first present pulse; every
    other pulse must be reachable through the pairwise chain or
    ChainBroken reports the undetermined steps.  Magnitudes at or below
    MAGNITUDE_EPS are structurally absent and returned as exact zeros.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    t = magnitudes.size
    nonzero = [j for j in range(1, t + 1) if magnitudes[j - 1] > MAGNITUDE_EPS]
    relations = {}
    for item in signs:
        if isinstance(item, SignMeasurement):
            try:
                rel = relative_sign(item.i_h, item.i_v, item.alpha)
            except AmbiguousSign:
                continue
            relations[(item.step_a, item.step_b)] = rel
        else:
            a, b, rel = item
            if rel is not None:
                relations[(a, b)] = rel
    sign_of = {}
    if nonzero:
        if reference_sign not in (-1, 1):
            raise ValueError("reference sign must be -1 or +1")
        sign_of[nonzero[0]] = reference_sign
        for a, b in zip(nonzero, nonzero[1:]):
            rel = relations.get((a, b))
            if rel is None or a not in sign_of:
                continue
            sign_of[b] = sign_of[a] if rel == SAME else -sign_of[a]
    undetermined = [j for j in nonzero if j not in sign_of]
    if undetermined:
        raise ChainBroken(undetermined)
    rho = np.zeros(t)
    for j in nonzero:
        rho[j - 1] = sign_of[j] * magnitudes[j - 1]
    return rho


def measured_invariants(data: MeasurementData) -> InvariantPair:
    """Invariant pair of one measurement's signed series rho_j, r_j = i rho_j,
    with the series' residual 1 - sum_j rho_j^2."""
    q0, qpi = invariant_rows(data.series[None])
    return InvariantPair(float(q0[0]), float(qpi[0]), 1.0 - float(np.sum(data.series ** 2)))


@dataclass
class McResult:
    """Best-fit apparatus model and the spread of the MC population."""

    best: ApparatusModel
    distance: float
    q0_error: float
    qpi_error: float
    n_sets: int
    horizon: int


def _normalize(rows: np.ndarray) -> np.ndarray:
    """Scale each step (last axis) of rows to unit total, in place."""
    totals = rows.sum(axis=-1, keepdims=True)
    rows /= np.where(totals == 0.0, 1.0, totals)
    return rows


def _distances(observed: np.ndarray, at: int, h: np.ndarray, v: np.ndarray, loss: np.ndarray,
               workspace: Workspace) -> np.ndarray:
    """Summed squared difference of each walker's normalized intensities
    from the observed ones over steps 1 .. horizon, for the walkers' (horizon
    + 1, rows, B) history h and v on the observed columns [at, at + rows),
    zero on every other column, compared by position.  The intensities
    overwrite h and v.  Each chunk of walkers is gathered into one
    C-contiguous (walkers, horizon, columns) block, zero off those rows, as a
    stack of its walkers' rows would be, so every sum adds in the order of
    one walker alone.  A block holds no more elements than the batch's
    history rows of steps 1 .. horizon, one walker's at least, and is carved
    from `workspace`'s engine arrays."""
    kept, rows, walkers = h.shape
    model = _intensities(h, v, loss)[1:]
    columns = observed.shape[1]
    target = _normalize(observed[1:kept].copy())
    chunk = max(1, walkers * rows // max(columns, 1))
    out = np.empty(walkers)
    for k in range(0, walkers, chunk):
        part = model[..., k:k + chunk].transpose(2, 0, 1)
        d = workspace.engine(part.shape[0] * (kept - 1) * columns)
        d.fill(0.0)
        d = d.reshape(part.shape[0], kept - 1, columns)
        d[:, :, at:at + rows] = part
        _normalize(d)
        d -= target
        d *= d
        out[k:k + chunk] = np.sum(d, axis=(1, 2))
    return out


def _mc_batch(system: ScatteringSystem, data: MeasurementData, horizon: int,
              params: np.ndarray, workspace: Workspace) -> np.ndarray:
    """(distance, q0, qpi) of each model of one batch, one row per row of
    params, stepped in `workspace`, against the intensities of `data` over its
    first `horizon` steps, which a model's reach only on the probe's cone
    -1 +- horizon."""
    first = max(data.x_min, PROBE_SITE - horizon)
    rows = max(min(data.x_min + data.distributions.shape[1], PROBE_SITE + horizon + 1) - first, 0)
    rho, h, v = record_cut(0, *_model_coins(system, params), PROBE_SITE, H, data.t, first, rows,
                           horizon, READOUT_SITE, workspace=workspace)
    q0, qpi = invariant_rows(_readout(rho, params, data.alpha)[1])
    del rho  # carved from the engine arrays, where `_distances` carves its blocks
    distances = _distances(data.distributions, first - data.x_min, h, v, params[:, _LOSS, None],
                           workspace)
    return np.column_stack([distances, q0, qpi])


def monte_carlo_errorbars(data: MeasurementData, system: ScatteringSystem,
                          ranges: ErrorRanges, n_sets: int, horizon: int, seed: int) -> McResult:
    """Fit an apparatus model to observed walk distributions.

    Draws n_sets models uniformly within the ranges, simulates each,
    and selects the one whose per-step position distributions are
    closest (summed squared difference over the first `horizon` steps)
    to the observed ones.  The reported error bars are the mean absolute
    deviations of the MC population's invariants from the best-fit
    model's invariants.
    """
    if data.t < horizon:
        raise ValueError(f"need at least {horizon} recorded steps, got {data.t}")
    reach, width = record_window(data.t) // 2, data.distributions.shape[1]  # probe +- reach
    lo, hi = PROBE_SITE - reach, PROBE_SITE + reach + 1
    if not lo <= data.x_min <= data.x_min + width <= hi:
        raise ValueError(f"observed positions [{data.x_min}, {data.x_min + width}) are not "
                         f"inside the models' record window [{lo}, {hi})")
    params = ranges.draw(np.random.default_rng(seed), n_sets)
    distances, q0s, qps = over_batches(
        lambda block, workspace: _mc_batch(system, data, horizon, block, workspace),
        params, fit_held(data.t, horizon), beside=readout_held(data.t)).T
    best = int(np.argmin(distances))
    ok = ~np.isnan(q0s)
    q0_err = float(np.mean(np.abs(q0s[ok] - q0s[best]))) if ok.any() else np.nan
    qpi_err = float(np.mean(np.abs(qps[ok] - qps[best]))) if ok.any() else np.nan
    return McResult(ApparatusModel(*params[best].tolist()), float(distances[best]),
                    q0_err, qpi_err, n_sets, horizon)
