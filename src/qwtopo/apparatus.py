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
amplitudes are i * rho_j.  Each realized system is propagated once, in
batches through `walk.record`, whose real V history at the read-out
site x = -2 is rho_j and whose history on the batch's last window
(`walk.windows`) gives the walk intensities.

The read-out runs on a whole batch at once: a (B, t) array of rho
gives the magnitudes, each present pulse interfered with the previous
present pulse of its row, one sign test with one floor rule per pair,
and the sign chain as a cumulative product over time from the reference
pulse.  Wherever a sign cannot be read, the result is NaN and no run
stops: a row with an unreadable pair is NaN, and so are (Q0, Qpi) of a
row whose |r(0)| is below 1e-6.  The Monte-Carlo fit runs it on batches
of models, each batch a (B, 5) array of model parameters, and reads rho
and the intensities' distances from the batch's whole histories: the
fit compares model and observed intensities by position, each observed
column with the history row of its own site.
`emulate_measurement` runs it with B = 1 and keeps the signed series as
it is, which `measured_invariants` reads; its defaults, which no config
key sets, read the data an mc-errorbars run fits.  `relative_sign` and
`reconstruct_series` apply the same sign rule and chain one pair at a
time to sign data given as a list of pairs, and raise where the batch
gives NaN.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .budget import ALPHA_GUARD, MODEL, record_window, within_guard
from .walk import H, Workspace, coins, over_batches, record, windows
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
    """sign(r1 r2) > 0, read as -sign(Delta I / (sin alpha cos alpha))."""
    return -(i_h - i_v) * (np.sin(alpha) * np.cos(alpha)) > 0


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


def _runs(system: ScatteringSystem, params: np.ndarray, t: int,
          workspace: Workspace | None = None) -> tuple:
    """`walk.record` of the probe |-1, H> on the system as the hardware of
    each row of the model array params realizes it, stepped in `workspace`."""
    return record(0, coins(perturbed_angles(system.theta1, params)),
                  coins(perturbed_angles(system.theta2, params)), -1, H, t, workspace=workspace)


def _intensities(a: np.ndarray, b: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Per-step position intensities of (B, t+1, width) probe runs, with
    each row's (B, 1) loss asymmetry applied.  Overwrites a and b."""
    steps = np.arange(a.shape[1])[:, None]
    loss = loss[:, :, None]
    a *= a
    a *= (1.0 - loss) ** steps
    b *= b
    b *= (1.0 + loss) ** steps
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
    row after row.
    """
    steps = np.arange(rho.shape[1])
    gain = (1.0 + params[:, _LOSS, None]) ** (steps + 1)
    intensities = params[:, _EFF_V, None] * gain * rho ** 2  # V-path loss
    if mode == "shots":
        intensities = rng.poisson(intensities * shots) / shots
    magnitudes = np.sqrt(intensities / params[:, _EFF_V, None])
    present = magnitudes > MAGNITUDE_EPS
    amps = rho * np.sqrt(gain)  # sqrt(gain) > 0 keeps the sign of rho
    # the last present step before each step, -1 before the first: a running maximum
    previous = np.roll(np.maximum.accumulate(np.where(present, steps, -1), axis=1), 1, axis=1)
    previous[:, :1] = -1
    paired = present & (previous >= 0)
    rows = np.nonzero(paired)[0]
    i_h, i_v = interfere(amps[rows, previous[paired]], amps[paired], alpha)
    i_h = i_h * params[rows, _EFF_H]
    i_v = i_v * params[rows, _EFF_V]
    if mode == "shots":
        i_h, i_v = (rng.poisson(np.stack([i_h, i_v], axis=1) * shots) / shots).T
    negative = present & (previous < 0) & (amps < 0)
    relations = np.where(negative, -1.0, 1.0)
    relations[paired] = np.where(_below_floor(i_h, i_v), np.nan,
                                 np.where(_same(i_h, i_v, alpha), 1.0, -1.0))
    signs = np.cumprod(relations, axis=1)  # a NaN runs on to the end of its row
    series = np.where(present, signs * magnitudes, 0.0)
    series[np.isnan(signs[:, -1:]).any(axis=1)] = np.nan  # a slice: empty at t = 0
    return magnitudes, series, np.where(negative.any(axis=1), -1, 1)


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
    x_min, h, v = _runs(system, params, t)
    lo, hi = windows(h, v)[-1]
    rho = v[1:, -2 - x_min, 0].copy()
    # square the window in place: a copy of it would double what the run holds
    a, b = (x[None, :, lo:hi + 1, 0] for x in (h, v))
    dists = _intensities(a, b, params[:, _LOSS, None])[0]
    return _measure(rho, model, x_min + lo, dists, alpha, mode, shots, seed)


def _measure(rho: np.ndarray, model: ApparatusModel, x_min: int, distributions,
             alpha: float, mode="exact", shots=1_000_000, seed=0) -> MeasurementData:
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


def _distances(observed: np.ndarray, first: int, h: np.ndarray, v: np.ndarray,
               loss: np.ndarray, horizon: int) -> np.ndarray:
    """Summed squared difference of each walker's normalized intensities
    from the observed ones over steps 1 .. horizon, for `walk.record`
    histories h and v, compared by position: observed column i is the
    site of history row first + i.  The walkers are gathered into one
    C-contiguous (walkers, horizon + 1, columns) block, as a stack of their
    rows would be, so every sum adds in the order of one walker alone."""
    rows = slice(first, first + observed.shape[1])
    a, b = (np.ascontiguousarray(x[:horizon + 1, rows].transpose(2, 0, 1)) for x in (h, v))
    d = _normalize(_intensities(a, b, loss)[:, 1:])
    d -= _normalize(observed[1:horizon + 1].copy())
    d *= d
    return np.sum(d, axis=(1, 2))


def _mc_batch(system: ScatteringSystem, data: MeasurementData, horizon: int,
              params: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """(distance, q0, qpi) of each model of one batch, one row per row of
    params, stepped in `workspace`, against the intensities of `data` over its
    first `horizon` steps."""
    x_min, h, v = _runs(system, params, data.t, workspace)
    q0, qpi = invariant_rows(_readout(v[1:, -2 - x_min].T, params, data.alpha)[1])
    distances = _distances(data.distributions, data.x_min - x_min, h, v,
                           params[:, _LOSS, None], horizon)
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
    reach, width = record_window(data.t) // 2, data.distributions.shape[1]  # `_runs`: -1 +- reach
    if not -1 - reach <= data.x_min <= data.x_min + width <= reach:
        raise ValueError(f"observed positions [{data.x_min}, {data.x_min + width}) are not "
                         f"inside the models' record window [{-1 - reach}, {reach})")
    params = ranges.draw(np.random.default_rng(seed), n_sets)
    distances, q0s, qps = over_batches(
        lambda block, workspace: _mc_batch(system, data, horizon, block, workspace),
        params, MODEL.held(data.t)).T
    best = int(np.argmin(distances))
    ok = ~np.isnan(q0s)
    q0_err = float(np.mean(np.abs(q0s[ok] - q0s[best]))) if ok.any() else np.nan
    qpi_err = float(np.mean(np.abs(qps[ok] - qps[best]))) if ok.any() else np.nan
    return McResult(ApparatusModel(*params[best].tolist()), float(distances[best]),
                    q0_err, qpi_err, n_sets, horizon)
