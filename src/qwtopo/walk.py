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
trig.  Its arithmetic rule: each `np.multiply`, `np.add` and `np.subtract`
on float64 reals is rounded separately, with no fused or complex multiply,
so every SIMD level numpy dispatches gives the same bits.  A step is six
such calls on seven row-slice views of the buffer and a few integer
operations, so its cost is mostly fixed at small batches: at t = 201, on
one core of a 2-core AVX-512 host, a step takes about 3.7 us at B = 1,
about 2.1 us of ufunc dispatch, 1.0 us of views and 0.6 us of loop, and
about 11.5 us at B = 200, where the rest is element work.  Its loop writes
each step's read-out, and the step's cone into a history, as it goes, and a
caller asks only for what it reads: `scattering.sample_rows` reads one
row's V; `record_cut` keeps the history of the first steps on a range of
rows, the P_loc rows or the positions a Monte-Carlo fit compares, beside a
read-out; `record` keeps every step of a batch whole, the case of
`record_cut` over the whole window.  A batch with a history steps its
uncut cone, and `record_cut` steps it in a buffer of the cone alone,
x0 - steps .. x0 + steps + 1 (`budget.cone_window`) and the read row:
amplitude never leaves x0 +- steps, and the last step of a V launch reads
the coin of x0 + steps + 1, so every value of the history, and the sign
of every exact zero, is what a wider window gives.  Studies reduce whole
batches.

A walker's window is the span a single-state stepper would hold it on: it
starts at [x0 - 1, x0 + 1] and grows by _GROW sites whenever a shift meets
amplitude on its edge.  `record`'s history keeps the window x0 +- (steps +
_GROW) that such a window can grow to, zero off the cone, and `windows`
reads each step's window of a batch off it, the union of its walkers'
windows; the interface and emulation runs keep their last.  `evolve` is a
view of one `record` walker: the complex states of a
`WalkerState.localized` launch, each on its step's window.

A study steps all its batches in one `Workspace`, which it keeps for its
lifetime: the kernel's buffer and read-out, the history of `record_cut` and
a pattern study's gathered coins are carved from one array, sized for the
study's widest batch, so that a study allocates them once.  Each call
zeroes what a fresh array would have to hold, so reuse changes no bit.  A
call given no workspace gets a fresh one, and arrays that are its caller's
alone.
"""

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
    gathers, if its study gathers any, the (h, v) history of `record_cut`,
    if it keeps one, and the kernel's buffer and read-out (`_buffer`), each
    right after the last sizes of the kinds before it; once the engine is
    done, `apparatus._distances` carves its blocks where the engine's were.  `over_batches`
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
    rows that can still reach row `read` if one is given and no history is.

    With `read`, returns the (B, steps) read-out: column j - 1 holds V of
    every walker on row `read` after step j.  The buffer and the read-out are
    carved from `workspace`, or from a fresh `Workspace` if none is given.
    With `history` = (first, h, v), h and v (k + 1, rows, B) arrays with k
    <= steps, the cut history of the window rows [first, first + rows) over
    steps 0 .. k: writes H and V of each step j = 1 .. k's cone rows among
    them into h[j] and v[j] and leaves every other element alone.  Rows off
    the window are never written, so a range may reach past either edge, or
    be empty.

    One kernel steps every batch: the walk with coin 1 the identity, which
    is bipartite (coin 2 maps the pair (H at row i, V at row i + 1) onto (H
    at i + 1, V at i)), so it holds H and V as even-row and odd-row half
    planes and updates only the live one of each pair.  A batch whose coin
    1 is the identity runs on its window's rows.  Any other runs on the
    doubled lattice of 2 * sites rows, where a split step is two kernel
    steps, as it is two roundtrips of the fibre loop: coin 2 of row r and H
    sit on row 2r, coin 1 and V on row 2r + 1, and every second step is read
    out on the rows halved.
    """
    walkers, m = coin2[0].shape
    lo, hi = max(offset, 0), max(min(offset + m, sites), offset, 0)  # the coin rows in the window
    doubled = coin1 is not None and np.any(coin1[1][:, lo - offset:hi - offset])
    per, rows = (2, 2 * sites) if doubled else (1, sites)  # kernel steps per step, lattice rows
    if doubled:
        site, steps = 2 * site + coin, 2 * steps
        read = None if read is None else 2 * read + 1
    buf, rho = _buffer(coin1 if doubled else None, coin2, offset, rows, lo, hi,
                       Workspace() if workspace is None else workspace,
                       None if read is None else steps // per)
    buf[4 + 2 * coin + (site + 1) % 2, (site + 1) // 2] = 1.0
    first, last = cone(site, site, rows, steps, read if history is None else None)[:2]
    _kernel(buf, walkers, (site + coin) % 2, per, first, last,
            None if read is None else read + 1, rho, history)
    return rho


def _buffer(coin1, coin2, offset: int, rows: int, lo: int, hi: int, workspace: Workspace,
            reads: int | None) -> tuple:
    """(buf, rho): the kernel's buffer for a lattice of `rows` rows, the c, s,
    H, V and scratch half planes, with the coins of the window rows [lo, hi)
    placed and the state zero, and the zeroed (B, reads) read-out, None for
    no `reads`.  Both are carved from one array of `workspace`, and the
    scratch plane is left as it was.
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
    raw = workspace.engine(size + read_out + 8)
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
    `read`, and into history, from the buffer's first `walkers` columns.

    A step makes six ufunc calls on seven row-slice views and little else:
    its row bounds come from two offsets of its parity, fixed for the call,
    and its views die with the step, so the call holds no more than one
    step's.  Of a t = 201 step at B = 200, about 11.5 us, the six calls'
    dispatch is about 2.1 us, the views 1.0 us, the loop 0.6 us and the
    element work the rest."""
    half, width = buf.shape[1:]
    c, s, h, v = (buf[p:p + 2].reshape(2 * half, width) for p in (0, 2, 4, 6))
    multiply, add, subtract = np.multiply, np.add, np.subtract
    at_read = None if read is None else read % 2 * half + read // 2
    kept = None if history is None else history[1].shape[0] - 1  # the last step kept
    # a step of parity q rotates, for every R = 2m + q in [lo + 1, hi + 2], the pair (H
    # at R - 1, V at R) by the coin of R into (H at R, V at R - 1), H of parity 1 - q and
    # V of parity q.  m runs over [(lo + 2 - q) // 2, (hi + 4 - q) // 2), R sits on row
    # q * half + m of a plane and R - 1 on (1 - q) * half + q - 1 + m, so R's rows are
    # [(lo + ea) // 2, (hi + ea + 2) // 2) and R - 1's start at (lo + eb) // 2, where
    # plans[q] = (ea, eb, whether a step of parity q writes V on the read row): on the
    # doubled lattice launches have q = 0 and read rows are even, so only the second
    # step of a pair, the kept one, does
    plans = ((2, 2 * half, rho is not None and read % 2 == 1),
             (2 * half + 1, 1, rho is not None and read % 2 == 0))
    for k, lo, hi in zip(range(1, len(first) + 1), first, last):
        ea, eb, reading = plans[q]
        a0, a1, b0 = (lo + ea) // 2, (hi + ea + 2) // 2, (lo + eb) // 2
        b1 = b0 + a1 - a0
        ca, sa, ha, va, hb, vb, tmp = (c[a0:a1], s[a0:a1], h[a0:a1], v[a0:a1], h[b0:b1],
                                       v[b0:b1], buf[8, :a1 - a0])
        # H at R = c H at R - 1 + s V at R, then V at R - 1 = c V at R - s H at R - 1
        add(multiply(ca, hb, ha), multiply(sa, va, tmp), ha)
        subtract(multiply(ca, va, vb), multiply(sa, hb, tmp), vb)
        del ca, sa, ha, va, hb, vb, tmp
        if reading and lo < read <= hi + 1:
            rho[:, k // per - 1] = v[at_read, :walkers]  # V on the read row, written this step
        if history is not None and k % per == 0 and k // per <= kept:
            # H of m in [a0 - at, the last H in the cone] on the window rows 2m + q - 1, V
            # of m in [the first V, b1 - before) on 2m + q - 2, halved on the doubled lattice
            at, before = q * half, (1 - q) * half + q - 1
            _keep(history[0], history[1][k // per], h, at, a0 - at, (hi + 3 - q) // 2,
                  (q - 1) // per, per, walkers)
            _keep(history[0], history[2][k // per], v, before, (lo + 3 - q) // 2, b1 - before,
                  (q - 2) // per, per, walkers)
        q = 1 - q


def _keep(first, out, plane, at, m0, m1, base, per, walkers):
    """out[i] = plane[at + m] for the m in [m0, m1) whose window row m * (2 //
    per) + base is first + i, one of out's rows."""
    step = 2 // per
    m0 = max(m0, -((base - first) // step))
    m1 = min(m1, (first + out.shape[0] - 1 - base) // step + 1)
    if m0 < m1:
        out[m0 * step + base - first:(m1 - 1) * step + base - first + 1:step] = \
            plane[at + m0:at + m1, :walkers]


def record(start: int, coin1: tuple | None, coin2: tuple, x0: int, coin: int,
           steps: int, *, workspace: Workspace | None = None) -> tuple:
    """Every step of walkers launched at (x0, coin), one per row of coin2.

    coin1 and coin2 are the pairs of `coins` of the (B, m) coin angles,
    reduced mod 2*pi, of the positions [start, start + m); coins elsewhere,
    and everywhere for coin1 None, are the identity.  Returns (x_min, h, v):
    h and v are the (steps + 1, sites, B) history on x0 +- (steps + _GROW),
    the `windows` a single-state stepper can grow to, [j, i, k] holding H =
    h and V = i v (up to a global phase) of walker k after j steps at
    position x_min + i, and exact zeros off the walker's own window: the cut
    history of `record_cut` over the whole window and every step.
    """
    x_min = x0 - steps - _GROW
    _, h, v = record_cut(start, coin1, coin2, x0, coin, steps, x_min, record_window(steps), steps,
                         workspace=workspace)
    return x_min, h, v


def record_cut(start: int, coin1: tuple | None, coin2: tuple, x0: int, coin: int, steps: int,
               first: int, rows: int, kept: int, read: int | None = None, *,
               workspace: Workspace | None = None) -> tuple:
    """(rho, h, v): the walkers of `record`, with their history cut to what a
    study reads.

    h and v are the (kept + 1, rows, B) history of steps 0 .. kept on the
    positions [first, first + rows): bit for bit that slice of `record`'s
    history, and exact zeros at positions off its window.  With `read`, rho
    is the (B, steps) read-out of V at position `read` after steps 1 ..
    steps (`real_steps`), else None.  h and v are carved from `workspace`,
    or a fresh one, which the engine runs in too, and zeroed.

    The engine steps the positions x0 - steps .. x0 + steps + 1, widened to
    `read`, in a buffer of their rows alone (`budget.cone_window`): the
    walkers' light cone, and the position whose coin the last step of a V
    launch reads.  Its values are those of any wider window, exact zeros
    and their signs included, except where coin 1 is the identity on every
    position stepped but not on the positions beyond: then the batch runs
    on its own lattice, where a window reaching such a position would run
    on the doubled one, and a zero may differ in sign.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0 <= kept <= steps or rows < 0:
        raise ValueError(f"cannot keep steps 0 .. {kept} of {steps} on {rows} rows")
    lo, hi = x0 - steps, x0 + steps + 1  # the engine's window: the cone, and the read row
    if read is not None:
        lo, hi = min(lo, read), max(hi, read)
    walkers = coin2[0].shape[0]
    workspace = Workspace() if workspace is None else workspace
    h, v = _zeroed(workspace.history(2 * (kept + 1) * rows * walkers)).reshape(2, kept + 1, rows,
                                                                             walkers)
    if 0 <= x0 - first < rows:
        (h, v)[coin][0, x0 - first] = 1.0
    rho = real_steps(coin1, coin2, start - lo, hi - lo + 1, x0 - lo, coin, steps,
                     None if read is None else read - lo, (first - lo, h, v),
                     workspace=workspace)
    return rho, h, v


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
                 gathered: int = 0, beside: int = 0) -> np.ndarray:
    """fn(batch, workspace) of each of the `budget.batches` of the sequence
    `walkers`, which each hold `per_walker` elements (`budget.held`), one
    after another in this process, joined along the first axis: one result
    row per walker.  Every batch runs in one `Workspace`: `workspace`, that
    of a study that makes several such calls, or else a new one, the study's
    own.  Before the first batch it is sized for the widest: per_walker
    elements for each column of its buffer, pad columns included, less the
    `beside` of them that fn allocates outside the workspace, the buffer's
    alignment, and `gathered` elements per walker that fn gathers into it (a
    pattern study's coins).  fn's result must not be carved from the
    workspace."""
    widest = batch_walkers(len(walkers), per_walker)
    workspace = Workspace() if workspace is None else workspace
    workspace.reserve(_width(widest) * (per_walker - beside) + 8 + widest * gathered)
    return np.concatenate([fn(batch, workspace) for batch in batches(walkers, per_walker)])
