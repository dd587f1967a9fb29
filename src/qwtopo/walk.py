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
only its light cone (`cone`), a contiguous block of rows, in reused
buffers.  `record` keeps every step on the window `evolve` would end on.
A study splits its walkers into `batches` that each hold at most
BATCH_BUDGET float64 elements, counted per walker by `held`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

H = 0
V = 1

_TWO_PI = 2.0 * np.pi
_GROW = 16  # slots added when a shift reaches an occupied window edge

#: float64 elements (1.5 MiB) that one engine batch, the unit of work a worker pool
#: maps over, may hold; a batch takes as many walkers as fit, one at least.
BATCH_BUDGET = 3 * 2**16


def coin_matrix(theta: float) -> np.ndarray:
    """Return the coin rotation exp(-i sigma_x theta) in the (H, V) basis.

    The angle is reduced mod 2*pi.  The matrix is
    [[cos(theta), -i sin(theta)], [-i sin(theta), cos(theta)]].
    """
    th = float(theta) % _TWO_PI
    c = np.cos(th)
    s = np.sin(th)
    return np.array([[c, -1j * s], [-1j * s, c]])


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
    """Apply the position-dependent coin rotation at every window site."""
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


def held(sites: int, steps: int, history: bool = False) -> int:
    """float64 elements one walker holds while the engine steps it `steps` times
    on a window of `sites`: the seven buffers and four cos/sin planes of
    `real_steps`, the two angle planes, the rho row of its `steps` read-outs
    and the H and V launch planes or, with `history`, the (steps + 1)-row H
    and V history of `record` that starts with them."""
    return 11 * (sites + 2) + 2 * sites + steps + 2 * sites * (steps + 1 if history else 1)


def _batch_count(walkers: int, per_walker: int) -> int:
    return -(-walkers // max(1, BATCH_BUDGET // per_walker))


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
    """(first, last, total): the rows `real_steps` updates at steps j = 1 .. steps
    from rows [lo, hi], their light cone cut to the window and, for a caller reading
    only row `read`, to read +- (steps - j); total counts them all, per walker."""
    j = np.arange(1, steps + 1)
    first, last = np.maximum(lo - j, 0), np.minimum(hi + j, sites - 1)
    if read is not None:
        first, last = np.maximum(first, read - steps + j), np.minimum(last, read + steps - j)
    return first, last, int(np.sum(last - first + 1))


def real_steps(th1: np.ndarray, th2: np.ndarray, a: np.ndarray, b: np.ndarray,
               steps: int, read: int | None = None):
    """Yield (lo, a, b) after each of `steps` split steps of a walker batch.

    All arrays have shape (n, B): row i is position x_min + i of a window
    shared by the batch, column k walker k, with per-site coin angles th1
    and th2.  The state is H = a, V = i b, and each step gives the
    amplitudes of `split_step` bit for bit, up to the sign of exact zeros.
    Amplitude shifted past the window edges is dropped, so the window must
    contain whatever the caller reads.  Coin 1 is skipped when it is the
    identity on the whole batch.  The inputs are never modified.  A step
    updates only the rows of its `cone`, from the initial state's nonzero
    rows, cut to those that can still reach row `read` if the caller reads
    only that row.  The yielded a and b are those rows, from row lo on:
    views of buffers that the next step overwrites.
    """
    live = np.flatnonzero(a.any(1) | b.any(1))
    first, last, _ = cone(live.min(initial=len(a)), live.max(initial=-1), len(a), steps, read)
    # a zero guard row on each side, with identity coins, stands for outside
    buf = np.zeros((7, len(a) + 2, a.shape[1]))
    buf[0, 1:-1], buf[1, 1:-1], buf[2, 1:-1], buf[3, 1:-1] = th1, th2, a, b
    (c1, c2), (s1, s2) = np.cos(buf[:2]), np.sin(buf[:2])
    a, b, a2, b2, tmp = buf[2:]
    coin1 = bool(np.any(th1))
    for lo, hi in zip(first.tolist(), last.tolist()):
        p, q = lo + 1, hi + 2  # the rows [lo, hi] of the buffers
        if coin1:  # on the rows coin 2 reads
            r = slice(p - 1, q + 1)
            _mix(c1[r], a[r], s1[r], b[r], a2[r], tmp[r])
            _mix(c1[r], b[r], s1[r], a[r], b2[r], tmp[r], np.subtract)
            a, a2, b, b2 = a2, a, b2, b
        # coin 2 between the shifts: H comes from row i - 1, V goes to i - 1
        o, right = slice(p, q), slice(p + 1, q + 1)
        _mix(c2[o], a[p - 1:q - 1], s2[o], b[o], a2[o], tmp[o])
        _mix(c2[right], b[right], s2[right], a[o], b2[o], tmp[o], np.subtract)
        a, a2, b, b2 = a2, a, b2, b
        yield lo, a[o], b[o]


def _mix(c, x, s, y, out, tmp, op=np.add):
    """out = op(c x, s y), through the buffer tmp."""
    np.multiply(c, x, out=out)
    op(out, np.multiply(s, y, out=tmp), out=out)


def record_window(steps: int) -> int:
    """Sites of the window x0 +- (steps + _GROW) that `record` steps."""
    return 2 * (steps + _GROW) + 1


def record_site_steps(steps: int) -> int:
    """Sites one walker's `record` updates: its cone, 2j + 1 at step j."""
    return cone(steps + _GROW, steps + _GROW, record_window(steps), steps)[2]


def place_angles(start: int, thetas: np.ndarray, x_min: int, sites: int) -> np.ndarray:
    """The (sites, B) window [x_min, x_min + sites) of the (B, m) angles
    `thetas` of positions [start, start + m), zero outside."""
    out = np.zeros((sites, thetas.shape[0]))
    lo = max(start, x_min)
    hi = min(start + thetas.shape[1], x_min + sites)
    if hi > lo:
        out[lo - x_min:hi - x_min] = thetas[:, lo - start:hi - start].T
    return out


def record(start: int, theta1: np.ndarray, theta2: np.ndarray, x0: int, coin: int,
           steps: int) -> list:
    """Every step of walkers launched at (x0, coin), one per row of theta1.

    theta1 and theta2 hold the (B, m) coin angles, reduced mod 2*pi, of
    the positions [start, start + m); coins elsewhere are the identity.  Returns one
    (x_min, a, b) per row, with a and b of shape (steps + 1, width): row
    j holds H = a and V = i b (up to a global phase) after j steps, on
    exactly the window `evolve` ends on from `WalkerState.localized(x0,
    coin)`.  That window starts at [x0 - 1, x0 + 1] and grows by _GROW
    sites whenever a shift meets amplitude on its edge: after a step, the
    right edge hi grew iff H now sits at hi + 1 or V sits at hi, the left
    edge lo iff V sits at lo - 1.  An edge grows only once the front,
    moving one site per step, has reached it, so no edge passes
    x0 +- (steps + _GROW - 1).  a and b are views of one (steps + 1, sites,
    B) history on x0 +- (steps + _GROW) that `real_steps` fills on its cone.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    reach = steps + _GROW
    x_min, n = x0 - reach, record_window(steps)
    th1, th2 = (place_angles(start, theta, x_min, n) for theta in (theta1, theta2))
    walkers = th1.shape[1]
    h, v = np.zeros((2, steps + 1, n, walkers))
    (h, v)[coin][0, reach] = 1.0
    cols = np.arange(walkers)
    lo = np.full(walkers, x0 - 1 - x_min)  # window edges as rows
    hi = np.full(walkers, x0 + 1 - x_min)
    for j, (i, a, b) in enumerate(real_steps(th1, th2, h[0], v[0], steps), 1):
        h[j, i:i + len(a)], v[j, i:i + len(b)] = a, b
        hi += _GROW * ((h[j, hi + 1, cols] != 0) | (v[j, hi, cols] != 0))
        lo -= _GROW * (v[j, lo - 1, cols] != 0)
    return [(x_min + i, h[:, i:e + 1, k], v[:, i:e + 1, k])
            for k, (i, e) in enumerate(zip(lo.tolist(), hi.tolist()))]
