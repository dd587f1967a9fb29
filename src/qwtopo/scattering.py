"""Lead-sample scattering and reflection-based topological invariants.

A scattering system is a half-infinite lead (identity coins at x < 0)
attached to a sample occupying x >= 0, with identity coins again right
of the sample, so weight that crosses it escapes and never returns.
The probe is a single walker launched on the last lead site as
|x=-1, H>; because lead coins are the identity, the probe enters the
sample with unit weight and everything that comes back travels through
the (x=-2, V) amplitude, which is read non-destructively after every
step.  Summing the step-resolved reflection amplitudes with Fourier
phases at quasienergies 0 and pi gives the invariant pair (Q0, Qpi),
each quantized to +-1/2 once the series has converged.

The coins are real rotations, so H amplitudes stay real and V
amplitudes stay imaginary: every reflection amplitude is r_j = i rho_j
with real rho_j.  The invariants therefore use one fixed rotation,
(Q0, Qpi) = (Re(-i r(0)), Re(-i r(pi))) / 2, which reads the signed sums
of rho_j and needs no per-series gauge.  Under it a clean sample with
first coin identity and second coin angle 1.68*pi comes out at
Q0 = +1/2 and the reference sample with second coin angle 0.52*pi at
Q0 = -1/2.  The same real structure lets `reflection_rows` step whole
batches of systems on the real engine `walk.real_steps`, and the
read-out site bounds its window: amplitude left of x = -2 never
returns, so the window starts there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .walk import CoinField, SplitStepProtocol, batches, real_steps

#: Unit phase removing the global factor i from every reflection series.
CANONICAL_ROTATION = -1j

#: |r(0)| below this leaves no sign of Q0 to read.
DEGENERATE_TOL = 1e-6

_TWO_PI = 2.0 * np.pi


class DegenerateGauge(ValueError):
    """r(0) is too close to zero to read the sign of Q0."""


@dataclass(frozen=True, eq=False)
class ScatteringSystem:
    """Per-site coin angles of the sample region [0, sites).

    The lead convention (identity coins outside the sample) and the
    probe |-1, H> / read-out (-2, V) are fixed; only the sample varies.
    """

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        t1 = np.array(self.theta1, dtype=float) % _TWO_PI
        t2 = np.array(self.theta2, dtype=float) % _TWO_PI
        if t1.shape != t2.shape or t1.ndim != 1:
            raise ValueError("theta1 and theta2 must be 1-d arrays of equal length")
        if t1.size == 0:
            raise ValueError("sample region is empty")
        t1.setflags(write=False)
        t2.setflags(write=False)
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)

    @classmethod
    def clean(cls, theta1: float, theta2: float, sites: int) -> "ScatteringSystem":
        """Uniform sample with coin angles (theta1, theta2) on [0, sites)."""
        return cls(np.full(sites, float(theta1)), np.full(sites, float(theta2)))

    @classmethod
    def for_steps(cls, theta1: float, theta2: float, t: int) -> "ScatteringSystem":
        """Clean sample sized to the light cone of a t-step run."""
        return cls.clean(theta1, theta2, t + 2)

    @property
    def sites(self) -> int:
        return self.theta1.size

    def protocol(self) -> SplitStepProtocol:
        """Coin fields of the sample."""
        return SplitStepProtocol(CoinField(0, self.theta1), CoinField(0, self.theta2))


@dataclass
class ReflectionSeries:
    """Step-resolved reflection amplitudes r_1 .. r_t."""

    r: np.ndarray

    @property
    def t(self) -> int:
        return self.r.size

    def head(self, t: int) -> "ReflectionSeries":
        """The first t amplitudes; r_j does not depend on how long we record."""
        if not 0 <= t <= self.t:
            raise ValueError(f"cannot take {t} amplitudes from a series of {self.t}")
        return ReflectionSeries(self.r[:t])

    def reflected_weight(self) -> float:
        return float(np.sum(np.abs(self.r) ** 2))

    @property
    def residual(self) -> float:
        """1 - sum_j |r_j|^2: weight not yet returned through the lead."""
        return 1.0 - self.reflected_weight()

    def max_abs_real(self) -> float:
        """Largest |Re r_j|; exactly 0 for ideal systems."""
        return float(np.max(np.abs(self.r.real))) if self.r.size else 0.0


@dataclass(frozen=True)
class InvariantPair:
    """Invariant pair with its convergence diagnostic."""

    q0: float
    qpi: float
    residual: float

    def signs(self) -> tuple[int, int]:
        return (1 if self.q0 > 0 else -1, 1 if self.qpi > 0 else -1)


def reflection_window(t: int) -> int:
    """Sites of the window [-2, t // 2] that `reflection_rows` steps."""
    return t // 2 + 3


def reflection_rows(systems: list[ScatteringSystem], t: int) -> np.ndarray:
    """Real reflection series of a batch: row k holds rho_1 .. rho_t of
    systems[k], whose amplitudes are r_j = i rho_j = <-2,V| U^j |-1,H>.

    The batch runs `real_steps` on positions [-2, t // 2] whatever the
    sample size, which is exact.  Nothing left of the read-out site comes
    back: the lead coins are the identity, so V amplitude there only moves
    further left and H amplitude there is zero.  On the right, cutting the
    window after site x first alters V at x after step x + 2, when the
    probe's front arrives, and the error needs x + 2 more steps to reach
    the read-out, which is past step t for x = t // 2.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    n = reflection_window(t)
    fields = [s.protocol() for s in systems]
    th1 = np.array([f.field1.window_angles(-2, n) for f in fields])
    th2 = np.array([f.field2.window_angles(-2, n) for f in fields])
    a = np.zeros((len(systems), n))
    a[:, 1] = 1.0  # |x=-1, H>
    rho = np.empty((len(systems), t))
    for j, (_, b) in enumerate(real_steps(th1, th2, a, np.zeros_like(a), t)):
        rho[:, j] = b[:, 0]
    return rho


def reflection_amplitudes(system: ScatteringSystem, t: int) -> ReflectionSeries:
    """Evolve the probe for t steps and collect r_j = <-2,V| U^j |-1,H>."""
    return ReflectionSeries(1j * reflection_rows([system], t)[0])


def reflection_matrix_element(series: ReflectionSeries | np.ndarray, eps: float) -> complex:
    """Fourier sum r(eps) = sum_j exp(i j eps) r_j over the recorded steps.

    eps = 0 and eps = pi use exact coefficient signs so that parities of
    the series survive to machine precision.
    """
    r = series.r if isinstance(series, ReflectionSeries) else np.asarray(series)
    if r.size == 0:
        return 0.0 + 0.0j
    if eps == 0.0:
        return complex(np.sum(r))
    if eps == np.pi:
        signs = np.where(np.arange(1, r.size + 1) % 2 == 0, 1.0, -1.0)
        return complex(np.sum(signs * r))
    j = np.arange(1, r.size + 1)
    return complex(np.sum(np.exp(1j * eps * j) * r))


def invariants(series: ReflectionSeries) -> InvariantPair:
    """(Q0, Qpi) = (Re(-i r(0)), Re(-i r(pi))) / 2 for a reflection series.

    Raises DegenerateGauge when |r(0)| < 1e-6, where Q0 has no sign.
    Ensemble members, which need signed values near zero, use
    `disorder.half_r0` instead.
    """
    v0 = CANONICAL_ROTATION * reflection_matrix_element(series, 0.0)
    if abs(v0) < DEGENERATE_TOL:
        raise DegenerateGauge(f"|r(0)| = {abs(v0):.3e} is below {DEGENERATE_TOL:.0e}")
    vpi = CANONICAL_ROTATION * reflection_matrix_element(series, np.pi)
    return InvariantPair(v0.real / 2.0, vpi.real / 2.0, series.residual)


@dataclass
class ScanPoint:
    theta1: float
    theta2: float
    pair: InvariantPair | None

    @property
    def degenerate(self) -> bool:
        return self.pair is None


@dataclass
class ScanResult:
    """Invariants along a one-parameter line in the coin-angle plane."""

    parametrization: str
    scanned: np.ndarray  # the swept angle per point
    points: list[ScanPoint]
    t: int

    @property
    def transitions(self) -> list[float]:
        """Swept-angle midpoints where sign(Q0 * Qpi) changes."""
        out = []
        prev_sign = None
        prev_angle = None
        for angle, pt in zip(self.scanned, self.points):
            if pt.pair is None:
                continue
            s = np.sign(pt.pair.q0 * pt.pair.qpi)
            if s == 0:
                continue
            if prev_sign is not None and s != prev_sign:
                out.append(0.5 * (prev_angle + angle))
            prev_sign = s
            prev_angle = angle
        return out

    def transition_width(self, center: float, floor: float = 0.25) -> float:
        """Swept-angle width of the unconverged region around a transition.

        A point counts as transitional when min(|Q0|, |Qpi|) < floor or
        its gauge is degenerate; the width is the extent of the
        contiguous transitional run nearest to center.  Returns 0.0 when
        no point near center is transitional.
        """
        flags = []
        for pt in self.points:
            if pt.pair is None:
                flags.append(True)
            else:
                flags.append(min(abs(pt.pair.q0), abs(pt.pair.qpi)) < floor)
        runs = []
        start = None
        for i, f in enumerate(flags):
            if f and start is None:
                start = i
            elif not f and start is not None:
                runs.append((start, i - 1))
                start = None
        if start is not None:
            runs.append((start, len(flags) - 1))
        best = None
        best_dist = None
        for a, b in runs:
            lo, hi = self.scanned[a], self.scanned[b]
            dist = 0.0 if lo <= center <= hi else min(abs(lo - center), abs(hi - center))
            if best_dist is None or dist < best_dist:
                best, best_dist = (a, b), dist
        if best is None or best_dist > 0.35:
            return 0.0
        a, b = best
        if a == b:
            # single-point run: charge one grid spacing
            if len(self.scanned) > 1:
                return float(np.min(np.diff(self.scanned)))
            return 0.0
        return float(self.scanned[b] - self.scanned[a])


LINE_GREEN = "theta1=2*theta2"
LINE_TURQUOISE = "theta2=2*theta1"
LINE_FREE = "free"


def _line_pairs(parametrization, grid):
    grid = np.asarray(grid, dtype=float)
    if parametrization == LINE_GREEN:
        return np.column_stack([2.0 * grid % _TWO_PI, grid])
    if parametrization == LINE_TURQUOISE:
        return np.column_stack([grid, 2.0 * grid % _TWO_PI])
    raise ValueError(f"unknown scan parametrization: {parametrization!r}")


def _scan_batch(task) -> list[InvariantPair | None]:
    """Invariants of clean samples, one per (theta1, theta2) row; None
    where the gauge is degenerate."""
    pairs, t = task
    systems = [ScatteringSystem.for_steps(th1, th2, t) for th1, th2 in pairs]
    out = []
    for rho in reflection_rows(systems, t):
        try:
            out.append(invariants(ReflectionSeries(1j * rho)))
        except DegenerateGauge:
            out.append(None)
    return out


def scan_line(parametrization: str, t: int, grid=None, pairs=None,
              mapper=map) -> ScanResult:
    """Invariants along a coin-angle line for clean samples.

    parametrization is one of "theta1=2*theta2" (grid sweeps theta2),
    "theta2=2*theta1" (grid sweeps theta1) or "free" (explicit pairs of
    angles).  Points whose gauge is degenerate are kept but flagged.
    """
    if parametrization == LINE_FREE:
        if pairs is None:
            raise ValueError("free parametrization needs explicit pairs")
        arr = np.asarray(pairs, dtype=float)
        scanned = arr[:, 0]
    else:
        if grid is None:
            raise ValueError("line parametrization needs a grid of swept angles")
        arr = _line_pairs(parametrization, grid)
        scanned = np.asarray(grid, dtype=float)
    tasks = [(batch, t) for batch in batches(arr)]
    results = chain.from_iterable(mapper(_scan_batch, tasks))
    points = [ScanPoint(th1, th2, pair) for (th1, th2), pair in zip(arr, results)]
    return ScanResult(parametrization, scanned, points, t)


PHASE_LABELS = ("--", "-+", "+-", "++")
BOUNDARY_LABEL = "boundary"


@dataclass
class PhaseDiagram:
    theta1: np.ndarray  # cell-center angles, axis 0
    theta2: np.ndarray  # cell-center angles, axis 1
    q0: np.ndarray
    qpi: np.ndarray
    residual: np.ndarray
    labels: np.ndarray  # strings from PHASE_LABELS or BOUNDARY_LABEL
    t: int
    tolerance: float


def classify(pair: InvariantPair | None, tolerance: float) -> str:
    """Phase label of one cell; 'boundary' when unconverged or degenerate."""
    if pair is None:
        return BOUNDARY_LABEL
    if min(abs(pair.q0), abs(pair.qpi)) < 0.5 - tolerance:
        return BOUNDARY_LABEL
    return ("+" if pair.q0 > 0 else "-") + ("+" if pair.qpi > 0 else "-")


def phase_diagram(resolution: int = 64, t: int = 30, tolerance: float = 0.05,
                  mapper=map) -> PhaseDiagram:
    """Classify the (theta1, theta2) plane on a grid of cell centers.

    Each cell is labelled by the sign pair of (Q0, Qpi) when both
    magnitudes exceed 1/2 - tolerance; otherwise it is marked boundary.
    """
    if resolution < 8:
        raise ValueError("phase diagram resolution must be at least 8")
    centers = (np.arange(resolution) + 0.5) * _TWO_PI / resolution
    pairs = [(th1, th2) for th1 in centers for th2 in centers]
    scan = scan_line(LINE_FREE, t, pairs=pairs, mapper=mapper)
    results = [pt.pair for pt in scan.points]

    q0 = np.full((resolution, resolution), np.nan)
    qpi = np.full((resolution, resolution), np.nan)
    res = np.full((resolution, resolution), np.nan)
    labels = np.empty((resolution, resolution), dtype="<U8")
    for idx, pair in enumerate(results):
        i, j = divmod(idx, resolution)
        labels[i, j] = classify(pair, tolerance)
        if pair is not None:
            q0[i, j] = pair.q0
            qpi[i, j] = pair.qpi
            res[i, j] = pair.residual
    return PhaseDiagram(centers, centers, q0, qpi, res, labels, t, tolerance)
