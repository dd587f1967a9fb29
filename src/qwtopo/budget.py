"""The engine's cost model: windows, light cones, memory per walker, batches.

Pure Python, so that `config.estimate`, and `qwtopo verify` with it, runs
without numpy or the engine: `walk.real_steps` steps the rows of `cone`,
and each kind of `Study` splits its walkers into `batches` by `Study.held`,
or by the cut histories' `ploc_held` and `fit_held`.
It holds no run value, such as a p grid: those come from the config alone.
"""

from __future__ import annotations

import math

_GROW = 16  # slots added when a shift reaches an occupied window edge

#: float64 elements (1.5 MiB) that one engine batch may hold, which bounds what a
#: run holds at once; a batch takes as many walkers as fit, one at least.  It
#: leaves out the engine's column pad (`held`): a batch's buffer may hold up to
#: 7/64, 11 %, more than the budget counts for it.  A study keeps one
#: workspace (`walk.Workspace`), for its widest batch, for its lifetime, so
#: the memory of that batch stays held between the study's calls.
BATCH_BUDGET = 3 * 2**16

#: Positions of the probe |x = -1, H> and the read-out (x = -2, V), on the lead.
PROBE_SITE, READOUT_SITE = -1, -2

#: Rows of the reflection window, which starts at the read-out, holding them.
PROBE_ROW, READOUT_ROW = PROBE_SITE - READOUT_SITE, 0

#: P_loc counts positions -LOC_WINDOW .. +LOC_WINDOW.
LOC_WINDOW = 3

#: Mixing angles within this distance of a multiple of pi/2 are rejected.
ALPHA_GUARD = math.radians(2.0)


def within_guard(alpha: float) -> bool:
    """True when alpha lies within ALPHA_GUARD of a multiple of pi/2,
    where the interference contrast vanishes."""
    guard = math.sin(ALPHA_GUARD) * math.cos(ALPHA_GUARD)
    return abs(math.sin(alpha) * math.cos(alpha)) < guard


def held(sites: int, steps: int, history: bool = False, identity_coin1: bool = False) -> int:
    """float64 elements one walker holds while the engine steps it `steps` times
    on a window of `sites`: the kernel's buffer of nine half planes of the
    lattice `real_steps` runs on, the window with coin 1 the identity
    (`identity_coin1`, passed as no coin-1 angles) and twice its rows
    otherwise, which holds the coins, the state and the launch amplitude;
    then, with `history`, the H and V history of `record` on its
    `record_window`, while the engine steps the `cone_window`, else the rho
    row of its `steps` read-outs (`ploc_held` and `fit_held` keep a cut
    history).  The coins a study passes in are not counted, nor the
    buffer's column pad: a batch of 64 walkers or more rounds its buffer up
    to a multiple of 8 columns, at most 7 more than it has walkers, so 7/64
    of its buffer at most, and a narrower batch none (`walk._buffer`).
    A study keeps one workspace (`walk.Workspace`), for its widest batch, for
    its lifetime: the buffer and read-out or history of that batch, and the
    coins a pattern study gathers for it, stay held between its calls."""
    rows = sites if identity_coin1 else 2 * sites
    kept = 2 * record_window(steps) * (steps + 1) if history else steps
    return 9 * ((rows + 3) // 2) + kept


def ploc_held(t: int) -> int:
    """`held` by a walker of `edges._ploc_batch`: its buffer on the
    `cone_window`, and its history of steps 0 .. t on the rows that P_loc sums."""
    return held(cone_window(t), 0, identity_coin1=True) + 2 * (t + 1) * (2 * LOC_WINDOW + 1)


#: (models, t) float64 arrays that reading a fit batch's series holds at once,
#: beside its workspace: `apparatus._readout`'s magnitudes, up to seven arrays of
#: pulse pairs, one pair per step at most, while `interfere` forms its results,
#: and boolean masks (7.2-8.5 rows of t per model, traced at t = 11 to 400), then
#: the signed series and `scattering.invariant_rows`' complex arrays (6.3-7.6).
READOUT_ARRAYS = 9


def fit_held(t: int, horizon: int) -> int:
    """`held` by a model of `apparatus._mc_batch`: in its workspace, its history
    of steps 0 .. horizon on the 2 horizon + 1 rows of the probe's cone, and
    either the buffer and read-out on the `cone_window` or, once the engine is
    done, `_distances`' blocks, half as much as that history, where the buffer
    was; beside it, `readout_held`, the arrays of the read-out.  numpy's
    buffer for a broadcasting operation, at most 8192 elements a batch, is
    left out, as the buffer's column pad is."""
    cut = 2 * (horizon + 1) * (2 * horizon + 1)
    return cut + max(held(cone_window(t), t), horizon * (2 * horizon + 1)) + readout_held(t)


def readout_held(t: int) -> int:
    """float64 elements that reading the series of t steps of a fit batch
    allocates per model, beside its workspace: READOUT_ARRAYS rows of t."""
    return READOUT_ARRAYS * t


def batch_capacity(per_walker: int) -> int:
    """Most walkers that hold `per_walker` elements (`held`) each that one of
    the `batches` takes: as many as fit in BATCH_BUDGET, one at least.  The
    engine's buffer may hold up to 7 columns more than a batch of 64 walkers
    or more has walkers, and none more below 64; the budget leaves them out."""
    return max(1, BATCH_BUDGET // per_walker)


def _batch_count(walkers: int, per_walker: int) -> int:
    return -(-walkers // batch_capacity(per_walker))


def batch_walkers(walkers: int, per_walker: int) -> int:
    """Walkers in the widest of the `batches` of `walkers` walkers that each
    hold `per_walker` elements (`held`)."""
    count = _batch_count(walkers, per_walker)
    return -(-walkers // count) if count else 0


def batches(items, per_walker: int) -> list:
    """Consecutive slices of a sequence of walkers that each hold `per_walker`
    elements (`held`), in order: as few as keep every slice within
    BATCH_BUDGET elements, or one walker where one alone exceeds it, of equal
    sizes within one."""
    n, count = len(items), _batch_count(len(items), per_walker)
    return [items[n * i // count:n * (i + 1) // count] for i in range(count)]


def cone(lo: int, hi: int, sites: int, steps: int, read: int | None = None):
    """(first, last, total): lists of the rows `real_steps` updates at steps
    j = 1 .. steps from rows [lo, hi], their light cone cut to the window and,
    for a caller reading only row `read`, to read +- (steps - j); total counts
    them all, per walker.  Where the cut leaves no row, as when `read` is out
    of reach, the step is empty: last = first - 1, and it adds 0 to total."""
    # the rows that can still reach `read` lie in [low + j, high - j]
    low, high = (-steps, sites - 1 + steps) if read is None else (read - steps, read + steps)
    # first = max(lo - j, 0, low + j): falling, then 0, then rising
    fall = min(max(min(lo, (lo - low) // 2), 0), steps)
    flat = min(max(-low, fall), steps)
    first = [*range(lo - 1, lo - 1 - fall, -1), *[0] * (flat - fall),
             *range(low + flat + 1, low + steps + 1)]
    # last = min(hi + j, sites - 1, high - j): rising, then sites - 1, then falling
    rise = min(max(min(sites - 1 - hi, (high - hi) // 2), 0), steps)
    flat = min(max(high - sites + 1, rise), steps)
    last = [*range(hi + 1, hi + 1 + rise), *[sites - 1] * (flat - rise),
            *range(high - flat - 1, high - steps - 1, -1)]
    # last - first is concave in j, so some step is empty only if the first or last is
    if steps and min(last[0] - first[0], last[-1] - first[-1]) < -1:
        last = [max(b, a - 1) for a, b in zip(first, last)]
    return first, last, sum(last) - sum(first) + steps


def reflection_window(t: int) -> int:
    """Sites of the window [READOUT_SITE, t // 2] that `sample_rows` steps."""
    return t // 2 + 1 - READOUT_SITE


def reflection_site_steps(t: int) -> int:
    """Sites one `sample_rows` walker updates: min(j + 2, t - j + 1) at step j."""
    return cone(PROBE_ROW, PROBE_ROW, reflection_window(t), t, READOUT_ROW)[2]


def record_window(steps: int) -> int:
    """Sites of the window x0 +- (steps + _GROW) of a `record` history."""
    return 2 * (steps + _GROW) + 1


def cone_window(steps: int) -> int:
    """Sites of the window x0 - steps .. x0 + steps + 1 that `walk.record_cut`
    steps: the light cone, and the site right of it, whose coin the last step
    of a V launch reads, so that every exact zero keeps its sign."""
    return 2 * steps + 2


def record_site_steps(steps: int) -> int:
    """Sites one walker's `record` updates: its cone, 2j + 1 at step j."""
    return cone(steps, steps, cone_window(steps), steps)[2]


class Study:
    """How one kind of study steps its walkers: with `history` on the
    `cone_window`, a whole walk by `walk.record` (`held`) and batches by
    `walk.record_cut`, else by `scattering.sample_rows` on the
    `reflection_window`; with `identity_coin1` on that window's rows, else
    on the doubled lattice; with `distinct` each distinct pattern once
    (`disorder.PatternStudy`).  A plain class: building a dataclass would
    add about 0.4 ms to every `verify`."""

    __slots__ = ("history", "identity_coin1", "distinct")

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


def interface_members(n_configs: int, p_grid) -> list[int]:
    """Members an interface study reduces at each p of its grid: one at
    p = 0 and 1, where every configuration is equal, else n_configs."""
    return [1 if p in (0.0, 1.0) else n_configs for p in p_grid]
