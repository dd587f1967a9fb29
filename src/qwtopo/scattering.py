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
Q0 = -1/2.  One reader, `invariant_rows`, reads the pair from a batch
of rho rows; `invariants` reads one series through it.  The same real
structure lets `sample_rows` step whole batches of systems on the real
engine `walk.real_steps`, on the sites that can still reach the read-out
x = -2: amplitude left of it never returns, so the window starts there.
`scan_line` steps the angle pairs it is given, a line's from `line_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import PROBE_ROW, READOUT_ROW, READOUT_SITE, SCAN, reflection_window
from .walk import (H, CoinField, SplitStepProtocol, Workspace, coins, over_batches, real_steps,
                   reduced)

#: Unit phase removing the global factor i from every reflection series.
CANONICAL_ROTATION = -1j

#: |r(0)| below this leaves no sign of Q0 to read.
DEGENERATE_TOL = 1e-6

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class ScatteringSystem:
    """Per-site coin angles of the sample region [0, sites).

    The lead convention (identity coins outside the sample) and the
    probe |-1, H> / read-out (-2, V) are fixed; only the sample varies.
    """

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        t1, t2 = reduced(self.theta1), reduced(self.theta2)
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

    def protocol(self) -> SplitStepProtocol:
        """Coin fields of the sample."""
        return SplitStepProtocol(CoinField(0, self.theta1), CoinField(0, self.theta2))


@dataclass
class ReflectionSeries:
    """Step-resolved reflection amplitudes r_1 .. r_t."""

    r: np.ndarray

    def reflected_weight(self) -> float:
        return float(np.sum(np.abs(self.r) ** 2))

    @property
    def residual(self) -> float:
        """1 - sum_j |r_j|^2: weight not yet returned through the lead."""
        return 1.0 - self.reflected_weight()


@dataclass(frozen=True)
class InvariantPair:
    """Invariant pair with its convergence diagnostic."""

    q0: float
    qpi: float
    residual: float


def sample_rows(coin1: tuple | None, coin2: tuple, t: int, *,
                workspace: Workspace | None = None) -> np.ndarray:
    """Real reflection series of a batch: row k holds rho_1 .. rho_t of
    the sample whose coins on [0, m) are row k of the pairs of (B, m)
    arrays coin1 and coin2 (`walk.coins` of the angles, reduced mod 2*pi),
    with r_j = i rho_j = <-2,V| U^j |-1,H>; coin1 None is the identity coin 1.

    The batch runs `real_steps` on the window [-2, t // 2] whatever the
    sample size, which is exact.  Nothing left of the read-out site comes
    back: the lead coins are the identity, so V amplitude there only moves
    further left and H amplitude there is zero.  On the right, cutting the
    window after site x first alters V at x after step x + 2, when the
    probe's front arrives, and the error needs x + 2 more steps to reach
    the read-out, which is past step t for x = t // 2.  Step j updates
    only sites the probe reached that can still reach x = -2 by step t,
    and the kernel copies V on the read-out site into the series as it
    goes.  Where coin 1 is the identity on the whole batch, as in disorder
    ensembles, which pass no coin-1 angles, the engine updates half of
    those sites, the sublattice the probe occupies, and V reaches the
    read-out only at even steps: rho_j is +0.0 at every odd j.  The rows are
    carved from `workspace`, if one is given (`walk.real_steps`).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    # the sample's first site, x = 0, is row -READOUT_SITE of the window
    return real_steps(coin1, coin2, -READOUT_SITE, reflection_window(t), PROBE_ROW, H, t,
                      READOUT_ROW, workspace=workspace)


def reflection_amplitudes(system: ScatteringSystem, t: int) -> ReflectionSeries:
    """Evolve the probe for t steps and collect r_j = <-2,V| U^j |-1,H>."""
    rho = sample_rows(coins(system.theta1[None]), coins(system.theta2[None]), t)
    return ReflectionSeries(1j * rho[0])


def fourier_sums(r: np.ndarray, eps: float) -> np.ndarray:
    """r(eps) = sum_j exp(i j eps) r_j of every series along the last axis, at
    the quasienergy eps = 0 or pi, with exact coefficient signs so that
    parities of the series survive to machine precision."""
    if eps == 0.0:
        return np.sum(r, axis=-1)
    if eps != np.pi:
        raise ValueError(f"invariants are read at eps = 0 and pi, not at {eps}")
    j = np.arange(1, r.shape[-1] + 1)
    return np.sum(np.where(j % 2 == 0, 1.0, -1.0) * r, axis=-1)


def invariants(series: ReflectionSeries) -> InvariantPair:
    """(Q0, Qpi) = (Re(-i r(0)), Re(-i r(pi))) / 2 of a reflection series
    r_j = i rho_j, as `invariant_rows` reads its rho_j, the imaginary parts,
    with the series' residual.

    Q0 = Qpi = NaN where |r(0)| < 1e-6, where Q0 has no sign.  Ensemble
    members, which need signed values near zero, use `disorder.ensemble_r0`
    instead.
    """
    q0, qpi = invariant_rows(series.r.imag[None])
    return InvariantPair(float(q0[0]), float(qpi[0]), series.residual)


def rotated_sums(rho: np.ndarray, eps: float) -> np.ndarray:
    """-i r(eps) of every row of a (B, t) batch of real series, r_j = i rho_j."""
    return CANONICAL_ROTATION * fourier_sums(1j * rho, eps)


def invariant_rows(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q0, Qpi) of every row of a (B, t) batch of real series, r_j = i rho_j,
    NaN where |r(0)| < 1e-6: the one invariant reader of the package."""
    v0 = rotated_sums(rho, 0.0)
    vpi = rotated_sums(rho, np.pi)
    degenerate = np.abs(v0) < DEGENERATE_TOL
    return (np.where(degenerate, np.nan, v0.real / 2.0),
            np.where(degenerate, np.nan, vpi.real / 2.0))


@dataclass
class ScanResult:
    """Invariants of clean samples at points of the coin-angle plane, one
    array entry per point; q0, qpi and residual are NaN where the gauge
    is degenerate."""

    theta1: np.ndarray
    theta2: np.ndarray
    q0: np.ndarray
    qpi: np.ndarray
    residual: np.ndarray


LINE_GREEN = "theta1=2*theta2"
LINE_TURQUOISE = "theta2=2*theta1"


def line_pairs(parametrization: str, grid) -> np.ndarray:
    """(theta1, theta2) rows of a coin-angle line, one per angle of grid:
    "theta1=2*theta2" sweeps theta2 and "theta2=2*theta1" sweeps theta1."""
    grid = np.asarray(grid, dtype=float)
    if parametrization == LINE_GREEN:
        return np.column_stack([reduced(2.0 * grid), grid])
    if parametrization == LINE_TURQUOISE:
        return np.column_stack([grid, reduced(2.0 * grid)])
    raise ValueError(f"unknown scan parametrization: {parametrization!r}")


def _scan_batch(pairs: np.ndarray, t: int, workspace: Workspace) -> np.ndarray:
    """(B, 3) rows of Q0, Qpi and residual 1 - sum_j rho_j^2 of t-step clean
    samples sized by `ScatteringSystem.for_steps`, one per (theta1, theta2)
    row of pairs, stepped in `workspace`; NaN where the gauge is degenerate."""
    c, s = coins(pairs)  # column 0 coin 1, 1 coin 2
    shape = (c.shape[0], t + 2)
    coin1, coin2 = ((np.broadcast_to(c[:, k, None], shape), np.broadcast_to(s[:, k, None], shape))
                    for k in (0, 1))
    rho = sample_rows(coin1, coin2, t, workspace=workspace)
    q0, qpi = invariant_rows(rho)
    residual = np.where(np.isnan(q0), np.nan, 1.0 - np.sum(rho ** 2, axis=1))
    return np.column_stack([q0, qpi, residual])


def _scan_rows(pairs: np.ndarray, t: int) -> np.ndarray:
    """`_scan_batch` rows of every (theta1, theta2) row of pairs, batch by batch."""
    return over_batches(lambda batch, workspace: _scan_batch(batch, t, workspace), pairs,
                        SCAN.held(t))


def scan_line(pairs, t: int) -> ScanResult:
    """Invariants of t-step clean samples at (theta1, theta2) rows of pairs,
    explicit ones or a coin-angle line's `line_pairs`.  Points whose gauge
    is degenerate are kept, with NaN values."""
    arr = np.asarray(pairs, dtype=float)
    q0, qpi, residual = _scan_rows(arr, t).T
    return ScanResult(arr[:, 0], arr[:, 1], q0, qpi, residual)


PHASE_LABELS = ("--", "-+", "+-", "++")
BOUNDARY_LABEL = "boundary"


@dataclass
class PhaseDiagram:
    theta1: np.ndarray  # (resolution,) cell-center angles, axis 0
    theta2: np.ndarray  # (resolution,) cell-center angles, axis 1
    q0: np.ndarray  # (resolution, resolution), as are the rest
    qpi: np.ndarray
    residual: np.ndarray
    labels: np.ndarray  # strings from PHASE_LABELS or BOUNDARY_LABEL


def phase_labels(q0, qpi, tolerance: float) -> np.ndarray:
    """Phase label of every cell: the sign pair of (Q0, Qpi) where both
    magnitudes reach 1/2 - tolerance, else 'boundary' (NaN included)."""
    q0, qpi = np.asarray(q0), np.asarray(qpi)
    converged = np.minimum(np.abs(q0), np.abs(qpi)) >= 0.5 - tolerance
    index = np.where(converged, 2 * (q0 > 0) + (qpi > 0), len(PHASE_LABELS))
    return np.array(PHASE_LABELS + (BOUNDARY_LABEL,))[index]


def phase_diagram(resolution: int, t: int, tolerance: float) -> PhaseDiagram:
    """Classify the (theta1, theta2) plane on a grid of cell centers.

    Each cell is labelled by `phase_labels`: the sign pair of (Q0, Qpi)
    when both magnitudes reach 1/2 - tolerance, otherwise boundary.
    """
    if resolution < 8:
        raise ValueError("phase diagram resolution must be at least 8")
    centers = (np.arange(resolution) + 0.5) * _TWO_PI / resolution
    pairs = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1)
    rows = _scan_rows(pairs.reshape(-1, 2), t)
    q0, qpi, res = rows.T.reshape(3, resolution, resolution)
    return PhaseDiagram(centers, centers, q0, qpi, res, phase_labels(q0, qpi, tolerance))
