"""Per-walker forms of the package's batch reductions, the tests' references.

`walk.record` returns a batch as the engine holds it, whole (steps + 1,
sites, B) histories on one record window, `walk.record_cut` the rows of
them that a study reads, and the studies reduce whole batches.  These are
the walker-by-walker forms they replaced, kept here to check them bit for
bit: each walker stepped alone by `stepping.evolve` on the window it ends
on, the Monte-Carlo distances read by position from those windows, and
P_loc masked from one walker's distributions.  `mixed_windows` builds a
batch whose walkers end on windows of different widths and first rows,
which no shipped run produces; `_distances`' positional read is checked on
it.  `grown_record_cut` steps `walk.record_cut`'s walkers on the grown
window of `record`'s history rather than on their cone.  `kernel_history`
shows the rows each step of an engine call writes, and `written_rows`
reads them.  `seed_kernel` is the engine's kernel loop in its plain form,
one `_rotate` call per step, against which `walk._kernel` is pinned bit
for bit.  `scalar_invariants` reads the invariants of one complex series
with complex scalars, the reference for the package's one array reader,
`scattering.invariant_rows`.  `parent_estimate` is the cost model that
`config._plan` replaced, a `Study` of flags per kind with separate stage
and table dispatches, against which `config.estimate` is pinned.
"""

import contextlib
import math

import numpy as np

import qwtopo.walk
from qwtopo.apparatus import _intensities, _normalize
from qwtopo.budget import (_GROW, batch_capacity, batch_walkers, cone_window, fit_held, held,
                           interface_members, ploc_held, record_site_steps, record_window,
                           reflection_site_steps, reflection_window)
from qwtopo.config import BLOCK_KEY, MAX_SITE_STEPS
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
    a, b = np.zeros((2, horizon + 1, width, len(windows)))
    for k, (x_min, wa, wb) in enumerate(windows):
        lo, hi = max(x_min, first_x), min(x_min + wa.shape[1], first_x + width)
        if hi > lo:
            a[:, lo - first_x:hi - first_x, k] = wa[:horizon + 1, lo - x_min:hi - x_min]
            b[:, lo - first_x:hi - first_x, k] = wb[:horizon + 1, lo - x_min:hi - x_min]
    d = _normalize(_intensities(a, b, loss)[1:].transpose(2, 0, 1).copy())
    d -= _normalize(observed[1:horizon + 1].copy())
    d *= d
    return np.sum(d, axis=(1, 2))


def grown_record_cut(start, coin1, coin2, x0, coin, steps, first, rows, kept, read=None):
    """(rho, h, v) of `walk.record_cut`, its walkers stepped by the same kernel
    on the grown window x0 +- (steps + _GROW) of `record`'s history, where a
    walker's window can grow to, instead of on their cone."""
    reach = steps + _GROW
    x_min = x0 - reach
    h, v = np.zeros((2, kept + 1, rows, coin2[0].shape[0]))
    if 0 <= x0 - first < rows:
        (h, v)[coin][0, x0 - first] = 1.0
    rho = real_steps(coin1, coin2, start - x_min, record_window(steps), reach, coin, steps,
                     None if read is None else read - x_min, (first - x_min, h, v))
    return rho, h, v


@contextlib.contextmanager
def kernel_history(h, v):
    """Within the block, the kernel of every `walk.real_steps` call writes
    each step into the (steps + 1, sites, B) history (0, h, v) of the whole
    window, whether the call keeps a history or not: the rows of the cone
    the call steps, cut to its read row where it keeps no history."""
    kernel = qwtopo.walk._kernel
    qwtopo.walk._kernel = lambda *args: kernel(*args[:-1], (0, h, v))
    try:
        yield
    finally:
        qwtopo.walk._kernel = kernel


def seed_kernel(buf, walkers, q, per, first, last, read, rho, history):
    """`walk._kernel` in its plain form: each step works out its rows from q
    and the bounds, makes one `_rotate` call on seven views, and checks
    whether it is a kept step of `per`."""
    half, width = buf.shape[1:]
    c, s, h, v = (buf[p:p + 2].reshape(2 * half, width) for p in (0, 2, 4, 6))
    at_read = None if read is None else read % 2 * half + read // 2
    kept = None if history is None else history[1].shape[0] - 1  # the last step kept
    for k, lo, hi in zip(range(1, len(first) + 1), first, last):
        # rotate, for every R = 2m + q in [lo + 1, hi + 2], the pair (H at R - 1, V at R)
        # by the coin of R into (H at R, V at R - 1): H of parity 1 - q, V of parity q
        m0, m1 = (lo + 2 - q) // 2, (hi + 4 - q) // 2  # m in [m0, m1)
        at, before = q * half, (1 - q) * half + q - 1  # R at row at + m, R - 1 at before + m
        i, o = slice(at + m0, at + m1), slice(before + m0, before + m1)
        _rotate(c[i], s[i], h[o], v[i], h[i], v[o], buf[8, m0:m1])
        if k % per == 0:
            if rho is not None and lo < read <= hi + 1 and (read + q) % 2:
                rho[:, k // per - 1] = v[at_read, :walkers]  # V on the read row, written this step
            if history is not None and k // per <= kept:
                qwtopo.walk._keep(history[0], history[1][k // per], h, at, m0,
                                  (hi + 3 - q) // 2, (q - 1) // per, per, walkers)
                qwtopo.walk._keep(history[0], history[2][k // per], v, before,
                                  (lo + 3 - q) // 2, m1, (q - 2) // per, per, walkers)
        q = 1 - q


def _rotate(c, s, x, y, x_out, y_out, tmp):
    """x_out = c x + s y, then y_out = c y - s x, through the buffer tmp."""
    np.add(np.multiply(c, x, x_out), np.multiply(s, y, tmp), x_out)
    np.subtract(np.multiply(c, y, y_out), np.multiply(s, x, tmp), y_out)


def written_rows(coin1, coin2, offset, sites, site, coin, steps, read=None,
                 history=None) -> list:
    """The window rows of H and of V that each step of a `walk.real_steps`
    call writes, one pair of index arrays per step: the call rerun on one
    walker, with a history if it has one, its kernel writing into a
    NaN-filled history (`kernel_history`).  That walker has coin-1 angles if
    any walker of the batch has, so it runs on the batch's lattice."""
    k = 0 if coin1 is None else int(np.argmax(np.any(coin1[1] != 0, axis=1)))
    h, v = np.full((2, steps + 1, sites, 1), np.nan)
    with kernel_history(h, v):
        real_steps(None if coin1 is None else tuple(x[k:k + 1] for x in coin1),
                   tuple(x[k:k + 1] for x in coin2), offset, sites, site, coin, steps, read,
                   None if history is None else (0, h, v))
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


class Study:
    """How one kind of study steps its walkers: with `history` on the
    `cone_window`, a whole walk by `walk.record` (`held`) and batches by
    `walk.record_cut`, else by `scattering.sample_rows` on the
    `reflection_window`; with `identity_coin1` on that window's rows, else
    on the doubled lattice; with `distinct` each distinct pattern once."""

    def __init__(self, history: bool, identity_coin1: bool, distinct: bool):
        self.history, self.identity_coin1, self.distinct = history, identity_coin1, distinct

    def window(self, t: int) -> int:
        return (cone_window if self.history else reflection_window)(t)

    def site_steps(self, t: int) -> int:
        return (record_site_steps if self.history else reflection_site_steps)(t)

    def held(self, t: int) -> int:
        return held(self.window(t), t, self.history, self.identity_coin1)


SCAN = Study(history=False, identity_coin1=False, distinct=False)  # scans, phase diagrams
ENSEMBLE = Study(history=False, identity_coin1=True, distinct=True)  # disorder, transitions
INTERFACE = Study(history=True, identity_coin1=True, distinct=True)  # edge walks
MODEL = Study(history=True, identity_coin1=False, distinct=False)  # apparatus models

STUDY = {"scan": SCAN, "phase-diagram": SCAN, "disorder": ENSEMBLE, "edge": INTERFACE,
         "emulate": MODEL, "mc-errorbars": MODEL}


def _stages(cfg: dict) -> list[tuple[int, int, str, str, int, int]]:
    """(walkers, steps, walkers field, steps field, group, held) of each
    stepping stage of a resolved config."""
    kind = cfg["experiment"]
    key = BLOCK_KEY[kind]
    block = cfg[key]
    t = block["t"]
    held = STUDY[kind].held(t)
    extra = []
    if kind == "scan":
        field = "pairs_pi" if block["parametrization"] == "free" else "count"
        sims = group = len(block[field]) if field == "pairs_pi" else block[field]
    elif kind == "phase-diagram":
        field, sims = "resolution", block["resolution"] ** 2
        group = sims
    elif kind == "disorder":
        field = "n_configs"
        sims = group = len(block["p_grid"]) * block["n_configs"]
        tr = block.get("transition")
        if tr is not None:
            n = tr["n_configs"]
            probes = 2 + math.ceil(math.log2(1.0 / tr["resolution"]))
            extra.append((probes * n, tr["t"], f"{key}.transition.n_configs",
                          f"{key}.transition.t", n + max(n, 2), ENSEMBLE.held(tr["t"])))
    elif kind == "edge":
        field, held = "n_configs", ploc_held(t)
        group = sum(interface_members(block["n_configs"], block["p_grid"]))
        sims = group + 1
    elif kind == "emulate":
        field, sims, group = "t", 1, 1
    else:
        field, sims, group = "n_sets", block["n_sets"] + 1, block["n_sets"]
        held = fit_held(t, block["horizon"])
    return [(sims, t, f"{key}.{field}", f"{key}.t", group, held)] + extra


def _tables(cfg: dict) -> list[tuple[int, str]]:
    """(rows, field) of each table a resolved config's run writes."""
    kind = cfg["experiment"]
    key = BLOCK_KEY[kind]
    block = cfg[key]
    if kind in ("scan", "phase-diagram"):
        walkers, _, field, *_ = _stages(cfg)[0]
        return [(walkers, field)]
    tables = []
    if kind in ("disorder", "edge"):
        n, grid = block["n_configs"], block["p_grid"]
        counts = interface_members(n, grid) if kind == "edge" else [n] * len(grid)
        factor = "n_configs" if max(counts) >= len(counts) else "p_grid"
        tables.append((sum(counts), f"{key}.{factor}"))
    if kind in ("edge", "emulate"):
        t = block["t"]
        tables.append(((t + 1) * record_window(t), f"{key}.t"))
    return tables


def parent_estimate(cfg: dict) -> dict:
    """`config.estimate` of a resolved config as the `Study` model made it."""
    study = STUDY[cfg["experiment"]]
    stages = _stages(cfg)
    per = [t * t // 4 if w * (t * t // 4) > MAX_SITE_STEPS else study.site_steps(t)
           for w, t, *_ in stages]
    cost = [stage[0] * sites for stage, sites in zip(stages, per)]
    i = cost.index(max(cost))
    walkers, _, walkers_field, steps_field, *_ = stages[i]
    holds = [max(held, study.held(t)) for _, t, *_, held in stages]
    j = holds.index(max(holds))
    rows, rows_field = max(_tables(cfg), key=lambda table: table[0], default=(0, ""))
    widest = (lambda group, h: min(group, batch_capacity(h))) if study.distinct \
        else batch_walkers
    return {"exact": not study.distinct,
            "simulations": sum(stage[0] for stage in stages),
            "window_sites": study.window(max(stage[1] for stage in stages)),
            "site_steps": sum(cost),
            "cost_field": walkers_field if walkers >= per[i] else steps_field,
            "batch_walkers": [(field, widest(group, held))
                              for _, _, _, field, group, held in stages],
            "held": holds[j],
            "held_field": stages[j][3],
            "table_rows": rows,
            "table_field": rows_field}
