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
batches through `walk.record`, whose real V amplitude at the read-out
site x = -2 is rho_j and whose per-step window gives the walk
intensities.

The read-out runs on a whole batch at once: a (B, t) array of rho
gives the magnitudes, the pairs of consecutive present pulses (a
stable sort of each row), their interfered intensities and one sign
test with one floor rule, the sign chain as a cumulative product from
the reference pulse, and (Q0, Qpi) per row, NaN where a pair gives no
sign or |r(0)| is degenerate.  The Monte-Carlo fit runs it on batches
of models, each batch a (B, 5) array of model parameters.
`emulate_measurement` runs it with B = 1 and keeps the signed series,
which `measured_invariants` reads.  `relative_sign` and
`reconstruct_series` apply the same sign rule and chain one pair at a
time to sign data given as a list of pairs.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .walk import H, batches, held, record, record_window
from .scattering import (
    InvariantPair,
    ReflectionSeries,
    ScatteringSystem,
    invariant_rows,
    invariants,
)

SAME = "same"
OPPOSITE = "opposite"

#: Mixing angles within this distance of a multiple of pi/2 are rejected.
ALPHA_GUARD = np.radians(2.0)

#: |Delta I| floor of the read-out, as a fraction of the pair's total intensity.
INTENSITY_FLOOR = 1e-4

#: Magnitudes at or below this are treated as structurally absent pulses.
MAGNITUDE_EPS = 1e-12

_TWO_PI = 2.0 * np.pi


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

    loss_asymmetry: float = 0.03        # +-
    eom_error: float = np.radians(1.0)  # +-
    sbc_error: float = np.radians(1.0)  # +-
    efficiency_span: float = 0.02       # efficiencies in [1 - span, 1]

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
    series: np.ndarray               # signed rho_j: magnitudes times chained signs
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


def within_guard(alpha: float) -> bool:
    """True when alpha lies within ALPHA_GUARD of a multiple of pi/2,
    where the interference contrast vanishes."""
    guard = np.sin(ALPHA_GUARD) * np.cos(ALPHA_GUARD)
    return bool(abs(np.sin(alpha) * np.cos(alpha)) < guard)


def _below_floor(i_h, i_v):
    """|Delta I| is zero or below INTENSITY_FLOOR times the pair's total
    intensity (elementwise on arrays)."""
    delta = i_h - i_v
    return (delta == 0.0) | (np.abs(delta) < INTENSITY_FLOOR * (i_h + i_v))


def _same(i_h, i_v, alpha: float):
    """sign(r1 r2) > 0, read as -sign(Delta I / (sin alpha cos alpha))."""
    return -(i_h - i_v) * (np.sin(alpha) * np.cos(alpha)) > 0


def relative_sign(i_h: float, i_v: float, alpha: float) -> str:
    """SAME or OPPOSITE for two pulses interfered at mixing angle alpha
    into the detector intensities i_h and i_v.

    sign(r1 r2) = -sign(Delta I / (sin alpha cos alpha)) with
    Delta I = i_h - i_v.  Raises AmbiguousSign when alpha is within
    ALPHA_GUARD of a multiple of pi/2 (vanishing contrast) or |Delta I|
    is zero or below INTENSITY_FLOOR times i_h + i_v.
    """
    if within_guard(alpha):
        raise AmbiguousSign(
            f"mixing angle {alpha:.4f} rad is within {np.degrees(ALPHA_GUARD):.0f} "
            "degrees of a multiple of pi/2")
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
    return np.where(thetas != 0.0, thetas + off, 0.0) % _TWO_PI


def _runs(system: ScatteringSystem, params: np.ndarray, t: int) -> list:
    """`walk.record` of the probe |-1, H> on the system as the hardware of
    each row of the model array params realizes it."""
    return record(0, perturbed_angles(system.theta1, params),
                  perturbed_angles(system.theta2, params), -1, H, t)


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


@dataclass
class _Readout:
    """The detector data of a batch of runs.

    Row k of `order` lists the 0-based steps of run k with its
    `count[k]` present pulses first, in time order; pair i interferes
    pulses order[k, i] and order[k, i + 1] into i_h[k, i], i_v[k, i],
    and is a real pair for i < count[k] - 1.
    """

    magnitudes: np.ndarray  # (B, t) |rho_j| estimates
    order: np.ndarray       # (B, t)
    count: np.ndarray       # (B,)
    i_h: np.ndarray         # (B, t - 1)
    i_v: np.ndarray
    reference: np.ndarray   # (B,) sign of the first present pulse, +1 without one
    alpha: float

    @property
    def readable(self) -> np.ndarray:
        """Rows whose every pair gives a sign."""
        bad = within_guard(self.alpha) | _below_floor(self.i_h, self.i_v)
        return ~np.any(bad & _paired(self.count, self.i_h.shape[1]), axis=1)

    def series(self) -> np.ndarray:
        """Signed rows from the magnitudes and the sign chain, a
        cumulative product of pair relations from the reference pulse;
        NaN rows where a pair gives no sign.  Absent pulses are exact
        zeros."""
        b, t = self.magnitudes.shape
        relations = np.where(_same(self.i_h, self.i_v, self.alpha), 1.0, -1.0)
        signs = np.cumprod(np.concatenate([self.reference[:, None], relations], axis=1),
                           axis=1)
        present = np.arange(t) < self.count[:, None]
        mags = np.take_along_axis(self.magnitudes, self.order, axis=1)
        rows = np.zeros((b, t))
        np.put_along_axis(rows, self.order, np.where(present, signs * mags, 0.0), axis=1)
        rows[~self.readable] = np.nan
        return rows


def _paired(count: np.ndarray, pairs: int) -> np.ndarray:
    return np.arange(pairs) < count[:, None] - 1


def _readout(rho: np.ndarray, params: np.ndarray, alpha: float, mode: str = "exact",
             shots: int = 1_000_000, rng: np.random.Generator | None = None) -> _Readout:
    """Detector data of a (B, t) batch of read-out series, row k measured
    by the model in row k of the (B, 5) model array params.

    In "shots" mode Poisson counts with `shots` photons per unit
    intensity are drawn from rng: every magnitude first, then each pair's
    (i_h, i_v) in turn, row after row.
    """
    eff_v = params[:, _EFF_V, None]
    gain = (1.0 + params[:, _LOSS, None]) ** np.arange(1, rho.shape[1] + 1)
    intensities = eff_v * gain * rho ** 2  # V-path loss
    if mode == "shots":
        intensities = rng.poisson(intensities * shots) / shots
    magnitudes = np.sqrt(intensities / eff_v)
    present = magnitudes > MAGNITUDE_EPS
    order = np.argsort(~present, axis=1, kind="stable")
    count = present.sum(axis=1)
    amps = np.take_along_axis(rho * np.sqrt(gain), order, axis=1)
    i_h, i_v = interfere(amps[:, :-1], amps[:, 1:], alpha)
    i_h = i_h * params[:, _EFF_H, None]
    i_v = i_v * eff_v
    if mode == "shots":
        paired = _paired(count, i_h.shape[1])
        drawn = rng.poisson(np.stack([i_h[paired], i_v[paired]], axis=1) * shots) / shots
        i_h[paired], i_v[paired] = drawn[:, 0], drawn[:, 1]
    # amps[:, :1] is empty for t = 0; sqrt(gain) > 0 keeps the sign of rho
    reference = np.where((count == 0) | np.all(amps[:, :1] >= 0, axis=1), 1, -1)
    return _Readout(magnitudes, order, count, i_h, i_v, reference, alpha)


def emulate_measurement(system: ScatteringSystem, t: int,
                        model: ApparatusModel = ApparatusModel(),
                        alpha: float = np.pi / 4, mode: str = "exact",
                        shots: int = 1_000_000, seed: int = 0) -> MeasurementData:
    """Run the full measurement chain on a lead-sample system.

    "exact" mode reads intensities directly; "shots" mode draws Poisson
    counts with the given photon budget per unit intensity.  Raises
    AmbiguousSign if any needed pairwise sign cannot be read (for
    example when alpha is a multiple of pi/2).
    """
    if mode not in ("exact", "shots"):
        raise ValueError(f"unknown mode: {mode!r}")
    params = _params([model])
    run = _runs(system, params, t)[0]
    dists = _intensities(np.stack([run[1]]), np.stack([run[2]]), params[:, _LOSS, None])
    return _measure(run, model, dists[0], alpha, mode, shots, seed)


def _measure(run, model: ApparatusModel, distributions: np.ndarray, alpha: float,
             mode: str = "exact", shots: int = 1_000_000,
             seed: int = 0) -> MeasurementData:
    """The measurement chain on one probe run of the realized system,
    the batched read-out with B = 1."""
    x_min, _, v = run
    out = _readout(v[None, 1:, -2 - x_min], _params([model]), alpha, mode, shots,
                   np.random.default_rng(seed))
    if not out.readable[0]:
        # the real pairs come first, so this raises AmbiguousSign at the first bad one
        for i_h, i_v in zip(out.i_h[0].tolist(), out.i_v[0].tolist()):
            relative_sign(i_h, i_v, alpha)
    return MeasurementData(out.magnitudes[0], out.series()[0], int(out.reference[0]),
                           alpha, distributions, x_min, v.shape[0] - 1)


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


def measured_series(rho: np.ndarray) -> ReflectionSeries:
    """Complex reflection series i * rho of a reconstructed real series."""
    return ReflectionSeries(1j * np.asarray(rho, dtype=float))


def measured_invariants(data: MeasurementData) -> InvariantPair:
    """Invariant pair from one measurement's signed series."""
    return invariants(measured_series(data.series))


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


def _distances(observed: np.ndarray, runs, loss: np.ndarray, horizon: int) -> np.ndarray:
    """Summed squared difference of each run's normalized intensities
    from the observed ones over steps 1 .. horizon.  Columns are compared
    by index over the narrower of the two windows; runs of one window
    width are handled together."""
    groups = {}
    for k, (_, a, _) in enumerate(runs):
        groups.setdefault(a.shape[1], []).append(k)
    out = np.empty(len(runs))
    for width, rows in groups.items():
        w = min(observed.shape[1], width)
        a = np.stack([runs[k][1][:horizon + 1, :w] for k in rows])
        b = np.stack([runs[k][2][:horizon + 1, :w] for k in rows])
        d = _normalize(_intensities(a, b, loss[rows])[:, 1:])
        d -= _normalize(observed[1:horizon + 1, :w].copy())
        d *= d
        out[rows] = np.sum(d, axis=(1, 2))
    return out


def _mc_batch(task) -> np.ndarray:
    """(distance, q0, qpi) of each model of one batch, one row each."""
    system, t, observed, horizon, alpha, params = task
    runs = _runs(system, params, t)
    rho = np.array([v[1:, -2 - x_min] for x_min, _, v in runs])
    q0, qpi = invariant_rows(_readout(rho, params, alpha).series())
    distances = _distances(observed, runs, params[:, _LOSS, None], horizon)
    return np.column_stack([distances, q0, qpi])


def monte_carlo_errorbars(data: MeasurementData, system: ScatteringSystem,
                          ranges: ErrorRanges = ErrorRanges(),
                          n_sets: int = 1000, horizon: int = 7,
                          seed: int = 0, mapper=map) -> McResult:
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
    params = ranges.draw(np.random.default_rng(seed), n_sets)
    tasks = [(system, data.t, data.distributions, horizon, data.alpha, block)
             for block in batches(params, held(record_window(data.t), data.t, history=True))]
    distances, q0s, qps = np.concatenate(list(mapper(_mc_batch, tasks))).T
    best = int(np.argmin(distances))
    ok = ~np.isnan(q0s)
    q0_err = float(np.mean(np.abs(q0s[ok] - q0s[best]))) if ok.any() else np.nan
    qpi_err = float(np.mean(np.abs(qps[ok] - qps[best]))) if ok.any() else np.nan
    return McResult(ApparatusModel(*params[best].tolist()), float(distances[best]),
                    q0_err, qpi_err, n_sets, horizon)
