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
phase that covers both |x, H> and |x, V> launches.  One kernel steps
every batch: the walk whose coin 1 is the identity, which is bipartite,
so the kernel holds H and V as even-row and odd-row half planes in one
reused buffer and updates the live sublattice of each step's light cone
(`budget.cone`).  A batch whose coin 1 is the identity, as in every
disorder ensemble and interface walk, runs on its own window; any other
runs on the doubled lattice of the fibre loop, where a split step is two
such steps (`double_step_equivalent`).  The cone's sites times steps stay
the unit of work that studies budget.  `record` keeps every step of a
batch whole, with each walker's window edges, so studies reduce whole
batches.
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
    is the identity coin 1 on every site.  Every walker starts with unit
    amplitude at (site, coin).  The state is H = a, V = i b, and each step
    gives the amplitudes of `split_step` bit for bit, up to the sign of
    exact zeros and, for a V launch, the global phase i.  Amplitude shifted
    past the window edges is dropped.  The inputs are never modified.  The
    yielded a and b hold H on the window rows of the slice ra and V on
    those of rb, in shape (rows, B): views that the next step overwrites.
    Together ra and rb cover the step's `cone` from the launch site, cut to
    the rows that can still reach row `read` if the caller reads only it.

    One kernel steps every batch: the walk with coin 1 the identity, which
    is bipartite (coin 2 maps the pair (H at row i, V at row i + 1) onto (H
    at i + 1, V at i)), so it holds H and V as even-row and odd-row half
    planes and updates only the live one of each pair.  A batch whose coin
    1 is the identity runs on its n rows, and ra and rb step by 2.  Any
    other runs on the doubled lattice of 2n rows, where a split step is two
    kernel steps, as it is two roundtrips of the fibre loop
    (`double_step_equivalent`): coin 2 of row r and H sit on row 2r, coin 1
    and V on row 2r + 1.  Every second step is yielded with its rows halved,
    so ra and rb are contiguous; at a read cut H on the cone's first row,
    which cannot reach V on the read row in time, is left out.
    """
    n, walkers = th2.shape
    if th1 is None or not np.any(th1):
        per, even, odd = 1, th2[0::2], th2[1::2]
    else:
        per, even, odd = 2, th2, th1
        n, site, steps = 2 * n, 2 * site + coin, 2 * steps
        read = None if read is None else 2 * read + 1
    # kernel row R = window row + 1, a zero guard row with identity coins on
    # each side; the rows R of parity p sit at p * half + R // 2 of a plane
    half = (n + 3) // 2
    buf = np.empty((9, half, walkers))  # one allocation, so no plane is trimmed and refaulted
    buf[2:8] = 0.0
    s = buf[2:4].reshape(2 * half, walkers)
    s[half:half + len(even)], s[1:1 + len(odd)] = even, odd  # R = 1, 3, .. and 2, 4, ..
    np.cos(s, out=buf[0:2].reshape(2 * half, walkers))  # 1 on the guard rows
    np.sin(s, out=s)
    buf[4 + 2 * coin + (site + 1) % 2, (site + 1) // 2] = 1.0
    return _half_steps(buf, (site + coin) % 2, per, *cone(site, site, n, steps, read)[:2])


def _half_steps(buf, q, per, first, last):
    """The kernel loop of `real_steps`, apart so that the set-up's views die first:
    the steps of the cone rows [lo, hi] of `first` and `last`, yielding every `per`-th."""
    half, walkers = buf.shape[1:]
    c, s, h, v = (buf[p:p + 2].reshape(2 * half, walkers) for p in (0, 2, 4, 6))
    for k, lo, hi in zip(range(1, len(first) + 1), first, last):
        # rotate, for every R = 2m + q in [lo + 1, hi + 2], the pair (H at R - 1, V at R)
        # by the coin of R into (H at R, V at R - 1): H of parity 1 - q, V of parity q
        m0, m1 = (lo + 2 - q) // 2, (hi + 2 - q) // 2
        at, before = q * half, (1 - q) * half + q - 1  # R at row at + m, R - 1 at before + m
        i, o = slice(at + m0, at + m1 + 1), slice(before + m0, before + m1 + 1)
        _rotate(c[i], s[i], h[o], v[i], h[i], v[o], buf[8, m0:m1 + 1])
        if k % per == 0:
            mh, mv = (hi + 1 - q) // 2, (lo + 3 - q) // 2  # the last H, first V in the cone
            # H on the window rows 2m + q - 1, V on 2m + q - 2, halved on the doubled lattice
            yield (slice((2 * m0 + q - 1) // per, (2 * mh + q - 1) // per + 1, 2 // per),
                   h[at + m0:at + mh + 1],
                   slice((2 * mv + q - 2) // per, (2 * m1 + q - 2) // per + 1, 2 // per),
                   v[before + mv:before + m1 + 1])
        q = 1 - q


def _rotate(c, s, x, y, x_out, y_out, tmp):
    """x_out = c x + s y, then y_out = c y - s x, through the buffer tmp.  The
    views passed in die with the call, not at the next step."""
    np.add(np.multiply(c, x, out=x_out), np.multiply(s, y, out=tmp), out=x_out)
    np.subtract(np.multiply(c, y, out=y_out), np.multiply(s, x, out=tmp), out=y_out)


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
