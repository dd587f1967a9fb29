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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .walk import H, batches, record
from .scattering import (
    InvariantPair,
    ReflectionSeries,
    ScatteringSystem,
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

    @classmethod
    def identity(cls) -> "ApparatusModel":
        return cls()

    @property
    def is_identity(self) -> bool:
        return self == ApparatusModel()


@dataclass(frozen=True)
class ErrorRanges:
    """Uniform draw ranges for Monte-Carlo model sampling."""

    loss_asymmetry: float = 0.03        # +-
    eom_error: float = np.radians(1.0)  # +-
    sbc_error: float = np.radians(1.0)  # +-
    efficiency_span: float = 0.02       # efficiencies in [1 - span, 1]

    def draw(self, rng: np.random.Generator) -> ApparatusModel:
        return ApparatusModel(
            efficiency_h=1.0 - rng.uniform(0.0, self.efficiency_span),
            efficiency_v=1.0 - rng.uniform(0.0, self.efficiency_span),
            loss_asymmetry=rng.uniform(-self.loss_asymmetry, self.loss_asymmetry),
            eom_error=rng.uniform(-self.eom_error, self.eom_error),
            sbc_error=rng.uniform(-self.sbc_error, self.sbc_error),
        )


@dataclass(frozen=True)
class SignMeasurement:
    """One pairwise interference read-out."""

    step_a: int  # 1-based step index of the earlier pulse
    step_b: int
    alpha: float
    i_h: float
    i_v: float

    @property
    def delta(self) -> float:
        return self.i_h - self.i_v


@dataclass
class MeasurementData:
    """Everything the detectors deliver for one run."""

    magnitudes: np.ndarray           # |rho_j| estimates, index j-1
    signs: list[SignMeasurement]     # consecutive nonzero-pulse pairs
    reference_sign: int              # global sign of the first nonzero pulse
    alpha: float
    distributions: np.ndarray        # (t+1, sites) walk intensities per step
    x_min: int
    t: int


def interfere(r1: float, r2: float, alpha: float) -> tuple[float, float]:
    """Detector intensities after mixing two real pulse amplitudes.

    I_{H/V} = (r1^2 sin^2 a -+ 2 r1 r2 sin a cos a + r2^2 cos^2 a) / 2,
    so I_H + I_V = (r1^2 sin^2 a + r2^2 cos^2 a), which at the working
    point a = pi/4 is (r1^2 + r2^2) / 2 exactly.
    """
    s, c = np.sin(alpha), np.cos(alpha)
    base = r1 * r1 * s * s + r2 * r2 * c * c
    cross = 2.0 * r1 * r2 * s * c
    return 0.5 * (base - cross), 0.5 * (base + cross)


def relative_sign(delta: float, alpha: float, floor: float = INTENSITY_FLOOR) -> str:
    """SAME or OPPOSITE for the two interfered pulses.

    sign(r1 r2) = -sign(delta / (sin alpha cos alpha)).  Raises
    AmbiguousSign when alpha sits within ALPHA_GUARD of a multiple of
    pi/2 (vanishing contrast) or |delta| is below the floor.
    """
    sc = np.sin(alpha) * np.cos(alpha)
    guard = np.sin(ALPHA_GUARD) * np.cos(ALPHA_GUARD)
    if abs(sc) < guard:
        raise AmbiguousSign(
            f"mixing angle {alpha:.4f} rad is within {np.degrees(ALPHA_GUARD):.0f} "
            "degrees of a multiple of pi/2")
    if delta == 0.0 or abs(delta) < floor:
        raise AmbiguousSign(f"|Delta I| = {abs(delta):.3e} is below the floor {floor:.3e}")
    return SAME if -delta * sc > 0 else OPPOSITE


def perturbed_system(system: ScatteringSystem, model: ApparatusModel) -> ScatteringSystem:
    """The sample the imperfect hardware actually realizes.

    Every switched (nonzero) angle picks up both coin-stage offsets.
    Zero angles stay exact: identity coins are realized by a calibrated
    cancellation of the two stages, not synthesized from scratch.
    """
    if model.sbc_error == 0.0 and model.eom_error == 0.0:
        return system
    off = model.sbc_error + model.eom_error

    def shift(thetas):
        return np.where(thetas != 0.0, thetas + off, 0.0)

    return ScatteringSystem(shift(system.theta1), shift(system.theta2))


def _intensities(run, model: ApparatusModel) -> np.ndarray:
    """Per-step position intensities of one probe run, loss applied."""
    _, a, b = run
    steps = np.arange(a.shape[0])[:, None]
    return (1.0 - model.loss_asymmetry) ** steps * a ** 2 \
        + (1.0 + model.loss_asymmetry) ** steps * b ** 2


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
    run = record([perturbed_system(system, model).protocol()], -1, H, t)[0]
    return _measure(run, model, _intensities(run, model), alpha, mode, shots, seed)


def _measure(run, model: ApparatusModel, distributions: np.ndarray, alpha: float,
             mode: str = "exact", shots: int = 1_000_000,
             seed: int = 0) -> MeasurementData:
    """The measurement chain on one probe run of the realized system."""
    x_min, _, v = run
    t = v.shape[0] - 1
    rho = v[1:, -2 - x_min]  # the read-out amplitudes r_j = i * rho_j

    rng = np.random.default_rng(seed)
    gain = (1.0 + model.loss_asymmetry) ** np.arange(1, t + 1)  # V-path loss
    intensities = model.efficiency_v * gain * rho ** 2
    if mode == "shots":
        intensities = rng.poisson(intensities * shots) / shots
    magnitudes = np.sqrt(intensities / model.efficiency_v)

    nonzero = [j for j in range(1, t + 1) if magnitudes[j - 1] > MAGNITUDE_EPS]
    signs = []
    for a, b in zip(nonzero, nonzero[1:]):
        ra = rho[a - 1] * np.sqrt(gain[a - 1])
        rb = rho[b - 1] * np.sqrt(gain[b - 1])
        i_h, i_v = interfere(ra, rb, alpha)
        i_h *= model.efficiency_h
        i_v *= model.efficiency_v
        if mode == "shots":
            i_h = rng.poisson(i_h * shots) / shots
            i_v = rng.poisson(i_v * shots) / shots
        m = SignMeasurement(a, b, alpha, i_h, i_v)
        relative_sign(m.delta, alpha, INTENSITY_FLOOR * (m.i_h + m.i_v))
        signs.append(m)
    reference = 1 if (not nonzero or rho[nonzero[0] - 1] >= 0) else -1
    return MeasurementData(magnitudes, signs, reference, alpha, distributions,
                           x_min, t)


def reconstruct_series(magnitudes: np.ndarray, signs, reference_sign: int) -> np.ndarray:
    """Signed real series rho_j from magnitudes plus sign information.

    `signs` is a list of SignMeasurement or (step_a, step_b, relation)
    tuples with relation in {SAME, OPPOSITE} or None for an unreadable
    pair; a SignMeasurement is read at its own alpha, with a floor of
    INTENSITY_FLOOR times its total intensity.  The reference sign is
    attached to the first present pulse; every other pulse must be
    reachable through the pairwise chain or ChainBroken reports the
    undetermined steps.  Magnitudes at or below MAGNITUDE_EPS are
    structurally absent and returned as exact zeros.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    t = magnitudes.size
    nonzero = [j for j in range(1, t + 1) if magnitudes[j - 1] > MAGNITUDE_EPS]
    relations = {}
    for item in signs:
        if isinstance(item, SignMeasurement):
            try:
                rel = relative_sign(item.delta, item.alpha,
                                    INTENSITY_FLOOR * (item.i_h + item.i_v))
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
    """Invariant pair from one measurement's reconstructed series."""
    rho = reconstruct_series(data.magnitudes, data.signs, data.reference_sign)
    return invariants(measured_series(rho))


@dataclass
class McResult:
    """Best-fit apparatus model and the spread of the MC population."""

    best: ApparatusModel
    distance: float
    q0_error: float
    qpi_error: float
    n_sets: int
    horizon: int


def _normalized_rows(dists: np.ndarray, horizon: int) -> np.ndarray:
    rows = dists[1:horizon + 1]
    totals = rows.sum(axis=1, keepdims=True)
    return rows / np.where(totals == 0.0, 1.0, totals)


def _mc_batch(task) -> list[tuple]:
    """(distance, q0, qpi, model) of each model of one batch."""
    system, t, observed, horizon, alpha, models = task
    runs = record([perturbed_system(system, m).protocol() for m in models], -1, H, t)
    out = []
    for model, run in zip(models, runs):
        sim = _intensities(run, model)
        width = min(observed.shape[1], sim.shape[1])
        d = _normalized_rows(observed[:, :width], horizon) \
            - _normalized_rows(sim[:, :width], horizon)
        try:
            pair = measured_invariants(_measure(run, model, sim, alpha))
            q = (pair.q0, pair.qpi)
        except (AmbiguousSign, ChainBroken):
            q = (np.nan, np.nan)
        out.append((float(np.sum(d * d)), q[0], q[1], model))
    return out


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
    rng = np.random.default_rng(seed)
    models = [ranges.draw(rng) for _ in range(n_sets)]
    tasks = [(system, data.t, data.distributions, horizon, data.alpha, batch)
             for batch in batches(models)]
    results = list(chain.from_iterable(mapper(_mc_batch, tasks)))
    best_i = int(np.argmin([r[0] for r in results]))
    _, bq0, bqpi, best = results[best_i]
    q0s = np.array([r[1] for r in results])
    qps = np.array([r[2] for r in results])
    ok = ~np.isnan(q0s)
    q0_err = float(np.mean(np.abs(q0s[ok] - bq0))) if ok.any() else np.nan
    qpi_err = float(np.mean(np.abs(qps[ok] - bqpi))) if ok.any() else np.nan
    return McResult(best, results[best_i][0], q0_err, qpi_err, n_sets, horizon)
