"""Per-walker forms of the package's batch reductions, the tests' references.

`walk.record` returns a batch as the engine holds it, whole (steps + 1,
sites, B) histories with each walker's window edges as row arrays, and the
studies reduce whole batches.  These are the walker-by-walker forms they
replaced, kept here to check them bit for bit: each walker's own window of
the history, the Monte-Carlo distances regrouped from those windows, and
P_loc masked from one walker's distributions.  `mixed_windows` builds a
batch whose walkers end on windows of different widths and first rows,
which no shipped run produces.  `written_rows` reads the rows each step of
an engine call writes.  `scalar_invariants` reads the invariants of one
complex series with complex scalars, the reference for the package's one
array reader, `scattering.invariant_rows`.
"""

import math

import numpy as np

from qwtopo.apparatus import _intensities, _normalize
from qwtopo.edges import LOC_WINDOW
from qwtopo.walk import H, coins, real_steps, record


def mixed_windows(t: int, walkers: int = 64, seed: int = 0):
    """`walk.record` of the probe |-1, H>, coin 1 the identity, on random
    coin-2 fields over x = -3 .. 2 of the angles 0, pi/2, pi and 1.1.  A pi/2
    coin reflects the walk completely, so some walkers never reach one window
    edge or the other and their windows stop growing there."""
    theta2 = np.random.default_rng(seed).choice([0.0, np.pi / 2, np.pi, 1.1], (walkers, 6))
    return record(-3, None, coins(theta2), -1, H, t)


def walker_windows(run) -> list:
    """(x_min, a, b) of each walker of a `walk.record` result: a and b, of
    shape (steps + 1, width), are its H and V history on its own window."""
    x_min, h, v, lo, hi = run
    return [(x_min + i, h[:, i:e + 1, k], v[:, i:e + 1, k])
            for k, (i, e) in enumerate(zip(lo.tolist(), hi.tolist()))]


def distances(observed, runs, loss, horizon) -> np.ndarray:
    """Summed squared difference of each run's normalized intensities from
    the observed ones over steps 1 .. horizon, runs given as
    `walker_windows`.  Columns are compared by index over the narrower of
    the two windows; runs of one window width are stacked together."""
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
