"""Exact state-vector dynamics of one-dimensional split-step quantum walks.

The walker lives on an integer position lattice with a two-level internal
(polarization) space spanned by H and V.  H components move to the right,
V components to the left.  One full step applies, in order: the first coin,
the polarization-selective right shift, the second coin, and the
polarization-selective left shift.

One engine steps every walker: `real_steps`, on batches.  It needs real coin
angles: exp(-i sigma_x theta) then maps H = a, V = i b with real a and b to
the same form, so two real (sites, walkers) arrays carry a batch exactly, up
to a global phase that covers both |x, H> and |x, V> launches.  One kernel
steps every batch: the walk whose coin 1 is the identity, which is
bipartite, so the kernel holds H and V as even-row and odd-row half planes
in one reused buffer and updates the live sublattice of each step's light
cone (`budget.cone`).  A walker is a column of that buffer.  The buffer
starts on a 64-byte cache line, and a batch of 64 walkers or more is padded
with identity-coin columns to a multiple of 8, so that each row the kernel
rotates starts on a cache line too; the pad leaves every real walker's
arithmetic, and so its bits, as they are.  A batch whose coin 1 is the
identity, as in every disorder ensemble and interface walk, runs on its own
window; any other runs on the doubled lattice of the fibre loop, where a
split step is two such steps.  The cone's sites times steps stay the unit
of work that studies budget.  Coins enter the kernel as their cosines and
sines (`coins`, of the angles `reduced` into [0, 2*pi)), which the studies
take once per distinct angle, where they make the angles, and gather into
(walkers, sites) arrays; the kernel copies them into its buffer and runs no
trig.  Its loop writes each step's read-out, or the step's cone into a
history, as it goes: `scattering.sample_rows` reads one row's V, and
`record` keeps every step of a batch whole.  Studies reduce whole batches.

A walker's window is the span a single-state stepper would hold it on: it
starts at [x0 - 1, x0 + 1] and grows by _GROW sites whenever a shift meets
amplitude on its edge.  `windows` reads each step's window of a batch off
its `record` history, the union of its walkers' windows; the interface and
emulation runs keep their last.  `evolve` is a view of one `record` walker:
the complex states of a `WalkerState.localized` launch, each on its step's
window.

A study steps all its batches in one `Workspace`, which it keeps for its
lifetime: the kernel's buffer and read-out, the history of `record` and a
pattern study's gathered coins are carved from one array, sized for the
study's widest batch, so that a study allocates them once.  Each call
zeroes what a fresh array would have to hold, so reuse changes no bit.  A
call given no workspace gets a fresh one, and arrays that are its caller's
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .budget import _GROW, batch_walkers, batches, cone, record_window

H = 0
V = 1

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class CoinField:
    """Position-dependent coin angles over one contiguous sample region.

    Positions outside the region resolve to theta = 0 (the identity coin),
    which is the lead convention.  Angles are reduced into [0, 2*pi) and
    the backing array is frozen after construction.
    """

    start: int
    thetas: np.ndarray

    def __post_init__(self):
        th = reduced(self.thetas)
        th.setflags(write=False)
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "thetas", th)

    @property
    def stop(self) -> int:
        return self.start + len(self.thetas)

    def window_angles(self, x_min: int, sites: int) -> np.ndarray:
        """Per-position angles for a window of given extent (zero outside)."""
        out = np.zeros(sites)
        lo, hi = max(self.start, x_min), min(self.stop, x_min + sites)
        if hi > lo:
            out[lo - x_min:hi - x_min] = self.thetas[lo - self.start:hi - self.start]
        return out


@dataclass(frozen=True, eq=False)
class SplitStepProtocol:
    """The pair of coin fields of one split step."""

    field1: CoinField
    field2: CoinField


@dataclass
class WalkerState:
    """Complex amplitudes over a position window times the (H, V) space:
    amps has shape (sites, 2), and row i holds the H and V amplitudes at
    position x_min + i after `time` steps."""

    x_min: int
    amps: np.ndarray
    time: int = 0

    @classmethod
    def localized(cls, x: int = 0, coin: int = H) -> "WalkerState":
        """Unit amplitude at (x, coin) on the window [x - 1, x + 1]."""
        amps = np.zeros((3, 2), dtype=complex)
        amps[1, coin] = 1.0
        return cls(x - 1, amps)

    @property
    def sites(self) -> int:
        return self.amps.shape[0]


def evolve(state: WalkerState, protocol: SplitStepProtocol, steps: int) -> list[WalkerState]:
    """The trajectory [state, after 1 step, ..., after `steps`] of a state
    that `WalkerState.localized(x, coin)` built, each on its step's window.

    One walker's `record`, on the coins of both fields gathered over its
    window: step j's state is H = h and V = i v of the history on rows
    `windows(h, v)[j]`, times -i for a V launch, which the engine launches
    as i |x, V>.  Raises ValueError for any other state."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x0, n = state.x_min + 1, record_window(steps)
    launches = [c for c in (H, V)
                if np.array_equal(state.amps, WalkerState.localized(x0, c).amps)]
    if not launches:
        raise ValueError("evolve steps the unit state WalkerState.localized(x, coin) builds")
    start, coin = x0 - n // 2, launches[0]
    fields = [coins(field.window_angles(start, n)[None])
              for field in (protocol.field1, protocol.field2)]
    x_min, h, v = record(start, *fields, x0, coin, steps)
    amps = np.stack([h[..., 0], 1j * v[..., 0]], axis=-1)
    if coin == V:
        amps *= -1j
    return [WalkerState(x_min + lo, amps[j, lo:hi + 1], state.time + j)
            for j, (lo, hi) in enumerate(windows(h, v))]


def reduced(theta) -> np.ndarray:
    """The angles theta mod 2*pi, in [0, 2*pi), as float64: `%` alone gives
    exactly 2*pi for an angle a little below a multiple of 2*pi, such as
    -1e-20, which is 0 here, so that reducing twice gives what reducing once
    does.  Every angle the package stores or steps is reduced by this."""
    r = np.array(theta, dtype=float)
    np.remainder(r, _TWO_PI, out=r)
    r[r == _TWO_PI] = 0.0
    return r


def coins(theta):
    """The coins of the angles theta, `reduced` mod 2*pi, as the engine takes
    them: the pair (cos theta, sin theta), each of theta's shape; None (the
    identity coins) stays None.  The studies take the cosine and sine of each
    distinct angle once and gather them into their coin arrays: an element
    of either ufunc does not depend on the array around it."""
    return None if theta is None else (np.cos(r := reduced(theta)), np.sin(r))


class Workspace:
    """The float64 array one study's engine calls carve their arrays from.

    A batch carves, in this order, the coins `disorder.pattern_coins`
    gathers, if its study gathers any, the (h, v) history of `record`, if
    it keeps one, and the kernel's buffer and read-out (`_buffer`), each
    right after the last sizes of the kinds before it.  `over_batches`
    sizes the array for the study's widest batch before its first, so the
    study allocates its batch arrays once and a later call finds their
    memory paged in.  Holding one block, the largest a study allocates,
    also keeps glibc's malloc from handing the study's memory back to the
    system between studies: it trims its heap once the free space at the
    top exceeds twice the largest block freed so far.

    An array carved from a workspace holds what its call wrote only until
    the next call with the same workspace.  A caller that passes none gets
    a fresh one, which grows to the first array it carves and allocates
    any later one on its own, so the arrays are the caller's alone."""

    __slots__ = ("storage", "_coins", "_history")

    def __init__(self):
        self.storage, self._coins, self._history = None, 0, 0

    def reserve(self, size: int):
        """Grow the array to `size` elements, freeing the narrower one first;
        only between batches, when no array carved from it is in use."""
        if self.storage is None or self.storage.size < size:
            self.storage = None
            self.storage = np.empty(size)

    def coins(self, size: int) -> np.ndarray:
        self._coins = size
        return self._carve(0, size)

    def history(self, size: int) -> np.ndarray:
        self._history = size
        return self._carve(self._coins, size)

    def engine(self, size: int) -> np.ndarray:
        return self._carve(self._coins + self._history, size)

    def _carve(self, start: int, size: int) -> np.ndarray:
        if self.storage is None or self.storage.size < start + size:
            if start:  # the batch's earlier arrays live in the array: keep it
                return np.empty(size)
            self.reserve(size)
        return self.storage[start:start + size]


def real_steps(coin1, coin2, offset: int, sites: int, site: int, coin: int, steps: int,
               read: int | None = None, history: tuple | None = None, *,
               workspace: Workspace | None = None):
    """Step a walker batch `steps` split steps on the window rows [0, sites),
    from unit amplitude at row `site` in polarization `coin`.

    coin2 is the pair (c, s) of `coins`: (B, m) arrays, row k walker k,
    whose column i holds the coin of window row offset + i; every other row
    has the identity coin, and coin1 None is the identity coin 1 on every
    row.  The state is H = a, V = i b, and each step gives the amplitudes of
    one split step of the complex state bit for bit, up to the sign of exact
    zeros and, for a V launch, the global phase i.  Amplitude shifted past
    the window edges is dropped, and the inputs are never modified.  Each
    step updates the rows of its `cone` from the launch site, cut to the
    rows that can still reach row `read` if one is given.

    With `read`, returns the (B, steps) read-out: column j - 1 holds V of
    every walker on row `read` after step j.  The buffer and the read-out are
    carved from `workspace`, or from a fresh `Workspace` if none is given
    (`_buffer`).  With `history` = (h, v),
    (steps + 1, sites, B) arrays, writes H and V of each step j's cone rows
    into h[j] and v[j] and leaves every other element alone.

    One kernel steps every batch: the walk with coin 1 the identity, which
    is bipartite (coin 2 maps the pair (H at row i, V at row i + 1) onto (H
    at i + 1, V at i)), so it holds H and V as even-row and odd-row half
    planes and updates only the live one of each pair.  A batch whose coin
    1 is the identity runs on its window's rows.  Any other runs on the
    doubled lattice of 2 * sites rows, where a split step is two kernel
    steps, as it is two roundtrips of the fibre loop: coin 2 of row r and H
    sit on row 2r, coin 1 and V on row 2r + 1, and every second step is read
    out on the rows halved; at a read cut, H on the cone's first row, which cannot reach V
    on the read row in time, is left out of the history.
    """
    walkers, m = coin2[0].shape
    lo, hi = max(offset, 0), max(min(offset + m, sites), offset, 0)  # the coin rows in the window
    doubled = coin1 is not None and np.any(coin1[1][:, lo - offset:hi - offset])
    per, rows = (2, 2 * sites) if doubled else (1, sites)  # kernel steps per step, lattice rows
    if doubled:
        site, steps = 2 * site + coin, 2 * steps
        read = None if read is None else 2 * read + 1
    buf, rho = _buffer(coin1 if doubled else None, coin2, offset, rows, lo, hi, workspace,
                       None if read is None else steps // per)
    buf[4 + 2 * coin + (site + 1) % 2, (site + 1) // 2] = 1.0
    first, last = cone(site, site, rows, steps, read)[:2]
    _kernel(buf, walkers, (site + coin) % 2, per, first, last,
            None if read is None else read + 1, rho, history)
    return rho


def _buffer(coin1, coin2, offset: int, rows: int, lo: int, hi: int,
            workspace: Workspace | None = None, reads: int | None = None) -> tuple:
    """(buf, rho): the kernel's buffer for a lattice of `rows` rows, the c, s,
    H, V and scratch half planes, with the coins of the window rows [lo, hi)
    placed and the state zero, and the zeroed (B, reads) read-out, None for
    no `reads`.  Both are carved from one array of `workspace`, or of a fresh
    `Workspace` if none is given, and the scratch plane is left as it was.
    Kernel row R = lattice row + 1, a zero guard row with identity coins on
    each side; the rows R of parity p sit at p * half + R // 2 of a plane.
    With coin1 None window row i is kernel row i + 1, else coin 2 of row i
    is kernel row 2i + 1 and coin 1 2i + 2.

    Column k is walker k.  The buffer starts on a 64-byte cache line, and a
    batch of 64 walkers or more has its columns rounded up to a multiple of
    8, so that every row, and every slice of rows the kernel rotates, starts
    on a cache line too.  The pad columns hold identity coins: the kernel
    steps them with the rest and reads out only the first B columns.  A
    narrower batch is not padded: its rows gain little, and the pad would
    be a large share of what it holds (`budget.held`)."""
    half, walkers = (rows + 3) // 2, coin2[0].shape[0]
    width = _width(walkers)
    size, read_out = 9 * half * width, walkers * (reads or 0)
    # one array, so no plane is trimmed and refaulted, 8 elements over to align it
    raw = (Workspace() if workspace is None else workspace).engine(size + read_out + 8)
    first = -raw.__array_interface__["data"][0] % 64 // 8
    buf = raw[first:first + size].reshape(9, half, width)
    rho = None
    if reads is not None:
        rho = _zeroed(raw[first + size:first + size + read_out]).reshape(walkers, reads)
    buf[0:2] = 1.0
    buf[2:8] = 0.0
    c, s = buf[0:2].reshape(2 * half, width), buf[2:4].reshape(2 * half, width)
    if coin1 is None:  # even window rows on the parity-1 half plane, odd on the parity-0
        even, odd = lo + lo % 2, lo + 1 - lo % 2
        placed = ((coin2, half + even // 2, slice(even - offset, hi - offset, 2)),
                  (coin2, odd // 2 + 1, slice(odd - offset, hi - offset, 2)))
    else:
        placed = ((coin2, half + lo, slice(lo - offset, hi - offset)),
                  (coin1, lo + 1, slice(lo - offset, hi - offset)))
    for (cv, sv), at, cols in placed:
        count = len(range(cv.shape[1])[cols])
        c[at:at + count, :walkers], s[at:at + count, :walkers] = cv.T[cols], sv.T[cols]
    return buf, rho


def _zeroed(a: np.ndarray) -> np.ndarray:
    """The contiguous array a, set to +0.0: numpy fills its bytes with memset,
    about as fast as a fresh np.zeros, and a float64 fill half as fast again."""
    a.view(np.uint8).fill(0)
    return a


def _width(walkers: int) -> int:
    """Columns of the buffer of a batch of `walkers` walkers (`_buffer`)."""
    return walkers if walkers < 64 else -(-walkers // 8) * 8


def _kernel(buf, walkers, q, per, first, last, read, rho, history):
    """The kernel loop of `real_steps`: the steps of the cone rows [lo, hi] of
    `first` and `last`, copying every `per`-th into rho, V on kernel row
    `read`, and into history, from the buffer's first `walkers` columns."""
    half, width = buf.shape[1:]
    c, s, h, v = (buf[p:p + 2].reshape(2 * half, width) for p in (0, 2, 4, 6))
    at_read = None if read is None else read % 2 * half + read // 2
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
            if history is not None:
                mh, mv = (hi + 1 - q) // 2, (lo + 3 - q) // 2  # the last H, first V in the cone
                # H on the window rows 2m + q - 1, V on 2m + q - 2, halved on the doubled lattice
                j = k // per
                history[0][j, (2 * m0 + q - 1) // per:(2 * mh + q - 1) // per + 1:2 // per] = \
                    h[at + m0:at + mh + 1, :walkers]
                history[1][j, (2 * mv + q - 2) // per:(2 * m1 + q - 4) // per + 1:2 // per] = \
                    v[before + mv:before + m1, :walkers]
        q = 1 - q


def _rotate(c, s, x, y, x_out, y_out, tmp):
    """x_out = c x + s y, then y_out = c y - s x, through the buffer tmp.  The
    views passed in die with the call, not at the next step."""
    np.add(np.multiply(c, x, x_out), np.multiply(s, y, tmp), x_out)
    np.subtract(np.multiply(c, y, y_out), np.multiply(s, x, tmp), y_out)


def record(start: int, coin1: tuple | None, coin2: tuple, x0: int, coin: int,
           steps: int, *, workspace: Workspace | None = None) -> tuple:
    """Every step of walkers launched at (x0, coin), one per row of coin2.

    coin1 and coin2 are the pairs of `coins` of the (B, m) coin angles,
    reduced mod 2*pi, of the positions [start, start + m); coins elsewhere,
    and everywhere for coin1 None, are the identity.  Returns (x_min, h, v):
    h and v are the (steps + 1, sites, B) history on x0 +- (steps + _GROW)
    that `real_steps` fills on its cone, [j, i, k] holding H = h and V = i v
    (up to a global phase) of walker k after j steps at position x_min + i,
    and exact zeros off the walker's own window (`windows`).  h and v are
    carved from `workspace`, or a fresh one, which the engine runs in too
    (`real_steps`), and zeroed.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    reach = steps + _GROW
    x_min, n = x0 - reach, record_window(steps)
    walkers = coin2[0].shape[0]
    workspace = Workspace() if workspace is None else workspace
    h, v = _zeroed(workspace.history(2 * (steps + 1) * n * walkers)).reshape(2, steps + 1, n,
                                                                          walkers)
    (h, v)[coin][0, reach] = 1.0
    real_steps(coin1, coin2, start - x_min, n, reach, coin, steps, history=(h, v),
               workspace=workspace)
    return x_min, h, v


def windows(h: np.ndarray, v: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi), the first and last row of the window after each step 0 ..
    steps of a `record` history h, v: the union of its walkers' windows.

    A walker's window starts at [x0 - 1, x0 + 1], the rows around the
    history's middle, and grows by _GROW sites whenever a shift meets
    amplitude on its edge: after a step, the right edge hi grew iff H now
    sits at hi + 1 or V sits at hi, the left edge lo iff V sits at lo - 1.
    An edge grows only once the front, moving one site per step, has reached
    it, so no edge passes x0 +- (steps + _GROW - 1), inside the history."""
    lo, hi = h.shape[1] // 2 - 1, h.shape[1] // 2 + 1
    out = [(lo, hi)]
    for j in range(1, h.shape[0]):
        hi += _GROW * bool(h[j, hi + 1].any() or v[j, hi].any())
        lo -= _GROW * bool(v[j, lo - 1].any())
        out.append((lo, hi))
    return out


def over_batches(fn, walkers, per_walker: int, workspace: Workspace | None = None,
                 gathered: int = 0) -> np.ndarray:
    """fn(batch, workspace) of each of the `budget.batches` of the sequence
    `walkers`, which each hold `per_walker` elements (`budget.held`), one
    after another in this process, joined along the first axis: one result
    row per walker.  Every batch runs in one `Workspace`: `workspace`, that
    of a study that makes several such calls, or else a new one, the study's
    own.  Before the first batch it is sized for the widest: per_walker
    elements for each column of its buffer, pad columns included, the
    buffer's alignment, and `gathered` elements per walker that fn gathers
    into it (a pattern study's coins).  fn's result must not be carved from
    the workspace."""
    widest = batch_walkers(len(walkers), per_walker)
    workspace = Workspace() if workspace is None else workspace
    workspace.reserve(_width(widest) * per_walker + 8 + widest * gathered)
    return np.concatenate([fn(batch, workspace) for batch in batches(walkers, per_walker)])
