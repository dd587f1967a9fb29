"""Exact state-vector dynamics of one-dimensional split-step quantum walks.

The walker lives on an integer position lattice with a two-level internal
(polarization) space spanned by H and V.  H components move to the right,
V components to the left.  One full step applies, in order: the first coin,
the polarization-selective right shift, the second coin, and the
polarization-selective left shift.

Amplitudes are stored on a finite window that always contains the light
cone of the evolved state, so the truncation is exact: a shift that would
push amplitude past the window edge grows the window first.

`WalkerState` and `evolve` step one complex state; they are the public
single-state API and the reference for `real_steps`, the batched engine
every study runs on.  The engine needs real coin angles: exp(-i sigma_x
theta) then maps H = a, V = i b with real a and b to the same form, so
two real (sites, walkers) arrays carry a batch exactly, up to a global
phase that covers both |x, H> and |x, V> launches.  Each step updates
only its light cone (`budget.cone`), a contiguous block of rows, in reused
buffers.  Where coin 1 is the identity on a whole batch, as in every
disorder ensemble and interface walk, the walk is bipartite and the
engine updates half of each cone's sites: the live sublattice, held as
even-row and odd-row half planes.  The cone's sites times steps stay the
unit of work that studies budget.  `record` keeps every step of a batch
whole, with each walker's window edges, so studies reduce whole batches.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .budget import _GROW, batches, cone, record_window

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
        th = np.array(self.thetas, dtype=float) % _TWO_PI
        th.setflags(write=False)
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "thetas", th)

    @classmethod
    def identity(cls) -> "CoinField":
        """Field with an empty sample region: identity coin everywhere."""
        return cls(0, np.zeros(0))

    @classmethod
    def uniform(cls, theta: float, start: int, sites: int) -> "CoinField":
        return cls(start, np.full(sites, float(theta)))

    @property
    def stop(self) -> int:
        return self.start + len(self.thetas)

    def theta_at(self, x: int) -> float:
        if self.start <= x < self.stop:
            return float(self.thetas[x - self.start])
        return 0.0

    def window_angles(self, x_min: int, sites: int) -> np.ndarray:
        """Per-position angles for a window of given extent (zero outside)."""
        return place_angles(self.start, self.thetas[None], x_min, sites)[:, 0]


@dataclass(frozen=True, eq=False)
class SplitStepProtocol:
    """The pair of coin fields of one split step."""

    field1: CoinField
    field2: CoinField

    @classmethod
    def lead_only(cls) -> "SplitStepProtocol":
        return cls(CoinField.identity(), CoinField.identity())


@dataclass
class WalkerState:
    """Complex amplitudes over a position window times the (H, V) space.

    amps has shape (sites, 2); row i holds the H and V amplitudes at
    position x_min + i.  Evolution functions return new states and never
    mutate their input.
    """

    x_min: int
    amps: np.ndarray
    time: int = 0

    @classmethod
    def localized(cls, x: int = 0, coin: int = H, x_min: int | None = None,
                  x_max: int | None = None) -> "WalkerState":
        """Unit amplitude at (x, coin), window defaulting to [x-1, x+1]."""
        lo = x - 1 if x_min is None else int(x_min)
        hi = x + 1 if x_max is None else int(x_max)
        if not lo <= x <= hi:
            raise ValueError("window does not contain the initial position")
        amps = np.zeros((hi - lo + 1, 2), dtype=complex)
        amps[x - lo, coin] = 1.0
        return cls(lo, amps)

    @property
    def sites(self) -> int:
        return self.amps.shape[0]

    @property
    def x_max(self) -> int:
        return self.x_min + self.sites - 1

    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + self.sites)

    def amplitude(self, x: int, coin: int) -> complex:
        if self.x_min <= x <= self.x_max:
            return complex(self.amps[x - self.x_min, coin])
        return 0.0 + 0.0j

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def copy(self) -> "WalkerState":
        return WalkerState(self.x_min, self.amps.copy(), self.time)


def _grown(state: WalkerState, left: int, right: int) -> WalkerState:
    amps = np.zeros((state.sites + left + right, 2), dtype=complex)
    amps[left : left + state.sites] = state.amps
    return WalkerState(state.x_min - left, amps, state.time)


def apply_shift_plus(state: WalkerState) -> WalkerState:
    """Move H components one site to the right; V components stay."""
    if state.amps[-1, H] != 0:
        state = _grown(state, 0, _GROW)
    amps = state.amps.copy()
    amps[1:, H] = state.amps[:-1, H]
    amps[0, H] = 0.0
    return WalkerState(state.x_min, amps, state.time)


def apply_shift_minus(state: WalkerState) -> WalkerState:
    """Move V components one site to the left; H components stay."""
    if state.amps[0, V] != 0:
        state = _grown(state, _GROW, 0)
    amps = state.amps.copy()
    amps[:-1, V] = state.amps[1:, V]
    amps[-1, V] = 0.0
    return WalkerState(state.x_min, amps, state.time)


def apply_shift_symmetric(state: WalkerState) -> WalkerState:
    """Move H right and V left in one pass (the full fibre-loop shift)."""
    if state.amps[-1, H] != 0:
        state = _grown(state, 0, _GROW)
    if state.amps[0, V] != 0:
        state = _grown(state, _GROW, 0)
    amps = np.zeros_like(state.amps)
    amps[1:, H] = state.amps[:-1, H]
    amps[:-1, V] = state.amps[1:, V]
    return WalkerState(state.x_min, amps, state.time)


def apply_coin_field(state: WalkerState, field: CoinField) -> WalkerState:
    """Apply the coin rotation exp(-i sigma_x theta), [[cos, -i sin], [-i sin,
    cos]] in the (H, V) basis, with each window site's own angle theta."""
    th = field.window_angles(state.x_min, state.sites)
    c = np.cos(th)
    s = np.sin(th)
    h = state.amps[:, H]
    v = state.amps[:, V]
    amps = np.empty_like(state.amps)
    amps[:, H] = c * h - 1j * (s * v)
    amps[:, V] = c * v - 1j * (s * h)
    return WalkerState(state.x_min, amps, state.time)


def split_step(state: WalkerState, protocol: SplitStepProtocol) -> WalkerState:
    """One step: coin 1, right shift of H, coin 2, left shift of V."""
    out = apply_coin_field(state, protocol.field1)
    out = apply_shift_plus(out)
    out = apply_coin_field(out, protocol.field2)
    out = apply_shift_minus(out)
    out.time = state.time + 1
    return out


def _interleave_field(field: CoinField, parity: int) -> CoinField:
    """Map a coin field onto the doubled lattice used by the double step.

    Coin-1 angles sit on even doubled positions (parity 0), coin-2 angles
    on odd ones (parity 1); the other parity carries the identity coin.
    """
    if field.thetas.size == 0:
        return CoinField.identity()
    th = np.zeros(2 * field.thetas.size - 1)
    th[::2] = field.thetas
    return CoinField(2 * field.start - parity, th)


def double_step_equivalent(state: WalkerState, protocol: SplitStepProtocol) -> WalkerState:
    """One step realized as two symmetric-shift roundtrips plus relabelling.

    The state is embedded on a doubled lattice (position x becomes 2x), the
    sequence coin-1 / shift / coin-2 / shift is applied with coin 1 placed
    on even and coin 2 on odd doubled positions, and the result is read off
    the even sublattice, relabelling 2x back to x.
    """
    doubled = np.zeros((2 * state.sites - 1, 2), dtype=complex)
    doubled[::2] = state.amps
    d = WalkerState(2 * state.x_min, doubled, state.time)

    f1 = _interleave_field(protocol.field1, 0)
    f2 = _interleave_field(protocol.field2, 1)

    d = apply_coin_field(d, f1)
    d = apply_shift_symmetric(d)
    d = apply_coin_field(d, f2)
    d = apply_shift_symmetric(d)

    # support returns to the even sublattice after the second roundtrip
    offset = d.x_min % 2
    odd = d.amps[1 - offset :: 2]
    if np.any(odd):
        raise AssertionError("double-step support leaked onto the odd sublattice")
    even = d.amps[offset::2].copy()
    out = WalkerState((d.x_min + offset) // 2, even, state.time + 1)
    return out


def evolve(state: WalkerState, protocol: SplitStepProtocol, steps: int) -> list[WalkerState]:
    """Evolve and return the trajectory [state, after 1 step, ..., after t]."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = [state.copy()]
    cur = state
    for _ in range(steps):
        cur = split_step(cur, protocol)
        out.append(cur)
    return out


def real_steps(th1: np.ndarray, th2: np.ndarray, site: int, coin: int, steps: int,
               read: int | None = None):
    """An iterator of (ra, a, rb, b) after each of `steps` split steps of a
    walker batch launched at row `site` in polarization `coin`.

    The coin angles th1 and th2 have shape (n, B): row i is position
    x_min + i of a window shared by the batch, column k walker k; th1 None
    is the identity coin 1 on every site.  Every
    walker starts with unit amplitude at (site, coin), which `real_steps`
    writes into its own buffers.  The state is H = a, V = i b, and each
    step gives the amplitudes of `split_step` bit for bit, up to the sign
    of exact zeros and, for a V launch, the global phase i.  Amplitude
    shifted past the window edges is dropped, so the window must contain
    whatever the caller reads.  The inputs are never modified.  A step
    updates only the rows of its `cone` from the launch site, cut to those
    that can still reach row `read` if the caller reads only that row.
    The yielded a and b hold H on the window rows of the slice ra and V on
    those of rb, in shape (rows, B): views of buffers that the next step
    overwrites.  Rows of the cone outside them hold exact zeros.

    A batch whose coin 1 is the identity everywhere is bipartite: coin 2
    maps the pair (H at row i, V at row i + 1) onto (H at i + 1, V at i),
    so after step j H sits only on rows of the parity of site + j + coin
    and V only on the others.  That path holds H and V as even-row and
    odd-row half planes and updates half of each cone's sites: ra and rb
    step by 2 and together cover the cone once.  Every other batch steps
    both amplitudes of every cone row, and ra = rb is the cone.
    """
    first, last, _ = cone(site, site, len(th2), steps, read)
    rows = zip(first, last)
    if th1 is not None and np.any(th1):
        return _dense_steps(th1, th2, site, coin, rows)
    return _sublattice_steps(th2, site, coin, rows)


def _dense_steps(th1, th2, site, coin, rows):
    """`real_steps` of every amplitude on the cone rows [lo, hi] of `rows`."""
    # a zero guard row on each side, with identity coins, stands for outside;
    # one allocation: separate cos/sin arrays let glibc trim and refault each batch
    buf = np.zeros((11, len(th1) + 2, th1.shape[1]))
    buf[0, 1:-1], buf[1, 1:-1] = th1, th2
    buf[2 + coin, site + 1] = 1.0
    (c1, c2), (s1, s2) = np.cos(buf[:2], out=buf[7:9]), np.sin(buf[:2], out=buf[9:])
    a, b, a2, b2, tmp = buf[2:7]
    for lo, hi in rows:
        p, q = lo + 1, hi + 2  # the rows [lo, hi] of the buffers
        r = slice(p - 1, q + 1)  # coin 1 on the rows coin 2 reads
        _rotate(c1[r], s1[r], a[r], b[r], a2[r], b2[r], tmp[r])
        a, a2, b, b2 = a2, a, b2, b
        # coin 2 between the shifts: H comes from row i - 1, V goes to i - 1
        o, right = slice(p, q), slice(p + 1, q + 1)
        _mix(c2[o], a[p - 1:q - 1], s2[o], b[o], a2[o], tmp[o])
        _mix(c2[right], b[right], s2[right], a[o], b2[o], tmp[o], np.subtract)
        a, a2, b, b2 = a2, a, b2, b
        yield slice(lo, hi + 1), a[o], slice(lo, hi + 1), b[o]


def _sublattice_steps(th2, site, coin, rows):
    """`real_steps` of a batch whose coin 1 is the identity, on the live
    sublattice of the cone rows [lo, hi] of `rows`.

    Window row r is row R = r + 1 of the window with a guard row on each
    side.  The planes hold the rows R of parity p at rows p * half + R // 2,
    so each parity is a contiguous half plane.  A step rotates, for every
    R = 2m + q in [lo + 1, hi + 2], the pair (H at R - 1, V at R) by the
    coin-2 angle of R into (H at R, V at R - 1), with the operands and
    order of the dense path.  It reads the H half plane of parity 1 - q and
    the V half plane of parity q and writes the other two; q flips every
    step.
    """
    n, walkers = th2.shape
    half = (n + 3) // 2
    c, s = np.ones((2 * half, walkers)), np.zeros((2 * half, walkers))
    for trig, out in ((np.cos, c), (np.sin, s)):
        trig(th2[0::2], out=out[half:half + (n + 1) // 2])  # rows 0, 2, .. are R = 1, 3, ..
        trig(th2[1::2], out=out[1:n // 2 + 1])  # rows 1, 3, .. are R = 2, 4, ..
    h, v = np.zeros((2, 2 * half, walkers))
    (h, v)[coin][(site + 1) % 2 * half + (site + 1) // 2] = 1.0
    tmp = np.empty((half, walkers))
    q = (site + coin) % 2
    for lo, hi in rows:
        m0, m1 = (lo + 2 - q) // 2, (hi + 2 - q) // 2
        at, before = q * half, (1 - q) * half + q - 1  # R at row at + m, R - 1 at before + m
        i, o = slice(at + m0, at + m1 + 1), slice(before + m0, before + m1 + 1)
        _rotate(c[i], s[i], h[o], v[i], h[i], v[o], tmp[m0:m1 + 1])
        mh, mv = (hi + 1 - q) // 2, (lo + 3 - q) // 2  # the last H, first V in the cone
        yield (slice(2 * m0 + q - 1, 2 * mh + q, 2), h[at + m0:at + mh + 1],
               slice(2 * mv + q - 2, 2 * m1 + q - 1, 2), v[before + mv:before + m1 + 1])
        q = 1 - q


def _rotate(c, s, x, y, x_out, y_out, tmp):
    """x_out = c x + s y, then y_out = c y - s x, through the buffer tmp.  The
    views passed in die with the call, not at the next step."""
    _mix(c, x, s, y, x_out, tmp)
    _mix(c, y, s, x, y_out, tmp, np.subtract)


def _mix(c, x, s, y, out, tmp, op=np.add):
    """out = op(c x, s y), through the buffer tmp."""
    np.multiply(c, x, out=out)
    op(out, np.multiply(s, y, out=tmp), out=out)


def place_angles(start: int, thetas: np.ndarray | None, x_min: int, sites: int):
    """The (sites, B) window [x_min, x_min + sites) of the (B, m) angles `thetas`
    of positions [start, start + m), zero outside; None (identity coins) stays None."""
    if thetas is None:
        return None
    out = np.zeros((sites, thetas.shape[0]))
    lo = max(start, x_min)
    hi = min(start + thetas.shape[1], x_min + sites)
    if hi > lo:
        out[lo - x_min:hi - x_min] = thetas[:, lo - start:hi - start].T
    return out


def record(start: int, theta1: np.ndarray | None, theta2: np.ndarray, x0: int, coin: int,
           steps: int) -> tuple:
    """Every step of walkers launched at (x0, coin), one per row of theta2.

    theta1 and theta2 hold the (B, m) coin angles, reduced mod 2*pi, of
    the positions [start, start + m); coins elsewhere, and everywhere for
    theta1 None, are the identity.  Returns (x_min, h, v, lo, hi): h and v
    are the (steps + 1, sites, B) history on x0 +- (steps + _GROW) that
    `real_steps` fills on its cone, [j, i, k] holding H = h and V = i v (up
    to a global phase) of walker k after j steps at position x_min + i.
    Walker k's window is the rows lo[k] .. hi[k] of the (B,) arrays lo and
    hi, exactly the window `evolve` ends on from `WalkerState.localized(x0,
    coin)`; its other rows hold exact zeros.  That window starts at [x0 - 1,
    x0 + 1] and grows by _GROW sites whenever a shift meets amplitude on its
    edge: after a step, the right edge hi grew iff H now sits at hi + 1 or V
    sits at hi, the left edge lo iff V sits at lo - 1.  An edge grows only
    once the front, moving one site per step, has reached it, so no edge
    passes x0 +- (steps + _GROW - 1).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    reach = steps + _GROW
    x_min, n = x0 - reach, record_window(steps)
    th1, th2 = (place_angles(start, theta, x_min, n) for theta in (theta1, theta2))
    walkers = th2.shape[1]
    h, v = np.zeros((2, steps + 1, n, walkers))
    (h, v)[coin][0, reach] = 1.0
    cols = np.arange(walkers)
    lo = np.full(walkers, x0 - 1 - x_min)  # window edges as rows
    hi = np.full(walkers, x0 + 1 - x_min)
    for j, (ra, a, rb, b) in enumerate(real_steps(th1, th2, reach, coin, steps), 1):
        h[j, ra], v[j, rb] = a, b
        hi += _GROW * ((h[j, hi + 1, cols] != 0) | (v[j, hi, cols] != 0))
        lo -= _GROW * (v[j, lo - 1, cols] != 0)
    return x_min, h, v, lo, hi


def over_batches(fn, walkers, per_walker: int) -> np.ndarray:
    """fn of each of the `budget.batches` of the sequence `walkers`, which
    each hold `per_walker` elements (`budget.held`), one after another in
    this process, joined along the first axis: one result row per walker."""
    return np.concatenate([fn(batch) for batch in batches(walkers, per_walker)])
