"""Per-walker forms of the package's batch reductions, the tests' references.

`walk.record` returns a batch as the engine holds it, whole (steps + 1,
sites, B) histories on one record window, and the studies reduce whole
batches.  These are the walker-by-walker forms they replaced, kept here
to check them bit for bit: each walker stepped alone by `stepping.evolve`
on the window it ends on, the Monte-Carlo distances read by position
from those windows, and P_loc masked from one walker's distributions.
`mixed_windows` builds a batch whose walkers end on windows of different
widths and first rows, which no shipped run produces; `_distances`'
positional read is checked on it.  `written_rows` reads the rows each
step of an engine call writes.  `scalar_invariants` reads the invariants
of one complex series with complex scalars, the reference for the
package's one array reader, `scattering.invariant_rows`.
"""

import math

import numpy as np

from qwtopo.apparatus import _intensities, _normalize
from qwtopo.edges import LOC_WINDOW
from qwtopo.walk import H, coins, real_steps, record

from stepping import CoinField, SplitStepProtocol, WalkerState, evolve

#: The sample start of `mixed_windows`.
MIXED_START = -3


def mixed_angles(walkers: int = 64, seed: int = 0) -> np.ndarray:
    """Random (walkers, 6) coin-2 angles over x = -3 .. 2 of 0, pi/2, pi and 1.1."""
    return np.random.default_rng(seed).choice([0.0, np.pi / 2, np.pi, 1.1], (walkers, 6))


def mixed_windows(t: int, walkers: int = 64, seed: int = 0):
    """`walk.record` of the probe |-1, H>, coin 1 the identity, on the coin-2
    fields of `mixed_angles`.  A pi/2 coin reflects the walk completely, so
    some walkers never reach one window edge or the other and their windows
    stop growing there."""
    return record(MIXED_START, None, coins(mixed_angles(walkers, seed)), -1, H, t)


def evolve_windows(start, theta1, theta2, x0, coin, steps) -> list:
    """(x_min, a, b) of each walker of a batch with the (B, m) coin angles
    theta1 (None: the identity) and theta2 on the positions [start, start +
    m), stepped alone by `stepping.evolve` from `WalkerState.localized(x0,
    coin)`: a and b, of shape (steps + 1, width), are its H = a and V = i b
    in the engine's real form on the window `evolve` ends on, each step's
    state placed on its own sites of that window."""
    out = []
    for k in range(theta2.shape[0]):
        fields = [CoinField.identity() if th is None else CoinField(start, th[k])
                  for th in (theta1, theta2)]
        traj = evolve(WalkerState.localized(x0, coin), SplitStepProtocol(*fields), steps)
        x_min, width = traj[-1].x_min, traj[-1].sites
        amps = np.zeros((steps + 1, width, 2), dtype=complex)
        for j, state in enumerate(traj):
            amps[j, state.x_min - x_min:state.x_max - x_min + 1] = state.amps
        amps *= (1.0, 1j)[coin]  # the engine launches V as i |x0, V>
        assert not amps[..., 0].imag.any() and not amps[..., 1].real.any()
        out.append((x_min, amps[..., 0].real.copy(), amps[..., 1].imag.copy()))
    return out


def union_window(run, windows) -> tuple:
    """The rows of a `walk.record` result that the union of `evolve_windows`
    covers: the last (lo, hi) that `walk.windows` must return."""
    x_min = run[0]
    return (min(w[0] for w in windows) - x_min,
            max(w[0] + w[1].shape[1] - 1 for w in windows) - x_min)


def on_own_window(run, windows) -> bool:
    """Every walker's history in a `walk.record` result equals its evolved
    window, bit for bit up to the sign of exact zeros, and is exact zeros on
    every other row."""
    x_min, h, v = run[:3]
    for k, (first, a, b) in enumerate(windows):
        rows = slice(first - x_min, first - x_min + a.shape[1])
        for hist, want in ((h, a), (v, b)):
            inside = hist[:, rows, k]
            if not np.array_equal(inside, want):
                return False
            if np.count_nonzero(hist[:, :, k]) != np.count_nonzero(inside):
                return False
    return True


def distances(observed, first_x, windows, loss, horizon) -> np.ndarray:
    """Summed squared difference of each walker's normalized intensities
    from the observed ones over steps 1 .. horizon, by position: observed
    column i is the site first_x + i.  Each walker of `evolve_windows` is
    read on those sites, zero off its window, and the walkers are stacked."""
    width = observed.shape[1]
    a, b = np.zeros((2, len(windows), horizon + 1, width))
    for k, (x_min, wa, wb) in enumerate(windows):
        lo, hi = max(x_min, first_x), min(x_min + wa.shape[1], first_x + width)
        if hi > lo:
            a[k, :, lo - first_x:hi - first_x] = wa[:horizon + 1, lo - x_min:hi - x_min]
            b[k, :, lo - first_x:hi - first_x] = wb[:horizon + 1, lo - x_min:hi - x_min]
    d = _normalize(_intensities(a, b, loss)[:, 1:])
    d -= _normalize(observed[1:horizon + 1].copy())
    d *= d
    return np.sum(d, axis=(1, 2))


def written_rows(coin1, coin2, offset, sites, site, coin, steps, read=None) -> list:
    """The window rows of H and of V that each step of a `walk.real_steps`
    call writes into a history, one pair of index arrays per step: the call
    rerun on one walker into a NaN-filled history.  That walker has coin-1
    angles if any walker of the batch has, so it runs on the batch's lattice."""
    k = 0 if coin1 is None else int(np.argmax(np.any(coin1[1] != 0, axis=1)))
    h, v = np.full((2, steps + 1, sites, 1), np.nan)
    real_steps(None if coin1 is None else tuple(x[k:k + 1] for x in coin1),
               tuple(x[k:k + 1] for x in coin2), offset, sites, site, coin, steps, read, (h, v))
    return [(np.flatnonzero(~np.isnan(a[:, 0])), np.flatnonzero(~np.isnan(b[:, 0])))
            for a, b in zip(h[1:], v[1:])]


def p_loc_at(record, step: int) -> float:
    """Probability mass in [-LOC_WINDOW, LOC_WINDOW] after `step` steps of
    one `edges.LocalizationRecord`, masked from its own window."""
    row = record.distributions[step]
    x = record.positions()
    return float(row[(x >= -LOC_WINDOW) & (x <= LOC_WINDOW)].sum())


def scalar_invariants(r) -> tuple:
    """(Q0, Qpi) of one complex series r_1 .. r_t read with complex scalars:
    r(0) = sum_j r_j and r(pi) = sum_j (-1)^j r_j, with exact signs, each
    turned by -i and halved, NaN where |r(0)| < 1e-6.  The per-series form
    of `scattering.invariant_rows`."""
    r = np.asarray(r)
    signs = np.where(np.arange(1, r.size + 1) % 2 == 0, 1.0, -1.0)
    v0 = -1j * complex(np.sum(r))
    if abs(v0) < 1e-6:
        return math.nan, math.nan
    vpi = -1j * complex(np.sum(signs * r))
    return v0.real / 2.0, vpi.real / 2.0
