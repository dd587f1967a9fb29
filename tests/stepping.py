"""The single-state stepper: one complex state, one split step at a time.

The tests' bit-for-bit reference for the package's one engine: `walk.record`
steps whole batches, and `walk.evolve` is a view of one `record` walker;
here each state is stepped alone, as the paper's step is written.  One full
step applies, in order: the first coin, the polarization-selective right
shift of H, the second coin, and the polarization-selective left shift of
V.  Amplitudes are stored on a finite window that always contains the
light cone of the evolved state, so the truncation is exact: a shift that
would push amplitude past the window edge grows the window by _GROW sites
first.  `double_step_equivalent` realizes one step as two roundtrips of
the fibre loop on a doubled lattice, as the engine steps a walk whose coin
1 is not the identity.

The classes extend the package's data classes with the constructors and
the point lookups that only the tests use.
"""

import numpy as np

from qwtopo import walk
from qwtopo.budget import _GROW
from qwtopo.walk import H, V


class CoinField(walk.CoinField):
    """`walk.CoinField`, with the lead and uniform fields and a point lookup."""

    @classmethod
    def identity(cls) -> "CoinField":
        """Field with an empty sample region: identity coin everywhere."""
        return cls(0, np.zeros(0))

    @classmethod
    def uniform(cls, theta: float, start: int, sites: int) -> "CoinField":
        return cls(start, np.full(sites, float(theta)))

    def theta_at(self, x: int) -> float:
        if self.start <= x < self.stop:
            return float(self.thetas[x - self.start])
        return 0.0


class SplitStepProtocol(walk.SplitStepProtocol):
    """`walk.SplitStepProtocol`, with the lead's identity fields."""

    @classmethod
    def lead_only(cls) -> "SplitStepProtocol":
        return cls(CoinField.identity(), CoinField.identity())


class WalkerState(walk.WalkerState):
    """`walk.WalkerState`, on any window, with point lookups.  Evolution
    functions return new states and never mutate their input."""

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


def apply_coin_field(state: WalkerState, field: walk.CoinField) -> WalkerState:
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


def split_step(state: WalkerState, protocol: walk.SplitStepProtocol) -> WalkerState:
    """One step: coin 1, right shift of H, coin 2, left shift of V."""
    out = apply_coin_field(state, protocol.field1)
    out = apply_shift_plus(out)
    out = apply_coin_field(out, protocol.field2)
    out = apply_shift_minus(out)
    out.time = state.time + 1
    return out


def _interleave_field(field: walk.CoinField, parity: int) -> CoinField:
    """Map a coin field onto the doubled lattice used by the double step.

    Coin-1 angles sit on even doubled positions (parity 0), coin-2 angles
    on odd ones (parity 1); the other parity carries the identity coin.
    """
    if field.thetas.size == 0:
        return CoinField.identity()
    th = np.zeros(2 * field.thetas.size - 1)
    th[::2] = field.thetas
    return CoinField(2 * field.start - parity, th)


def double_step_equivalent(state: WalkerState,
                           protocol: walk.SplitStepProtocol) -> WalkerState:
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


def evolve(state: WalkerState, protocol: walk.SplitStepProtocol,
           steps: int) -> list[WalkerState]:
    """Evolve and return the trajectory [state, after 1 step, ..., after t]."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = [state.copy()]
    cur = state
    for _ in range(steps):
        cur = split_step(cur, protocol)
        out.append(cur)
    return out
