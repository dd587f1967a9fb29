"""Brute-force dense-matrix oracle used to freeze golden values.

Everything here is built from explicit operator matrices over an
indexed (site, coin) basis and plain matrix-vector products.  That is
a deliberately different construction from the vectorized package
code, so agreement between the two is meaningful evidence.

It also holds four exact references that need no sampling: the closed-form
phase labels of the clean walk (`closed_form_phase`, `gap_line_distance`),
the clean walk's reflection series solved order by order from its
algebraic equation, with no lattice (`clean_series`), the exact
small-window disorder statistics, enumerated over every binary pattern a
short reflection run can see (`pattern_half_r0`, `exact_disorder_stats`),
and the float-free reflection series of clean walks whose coins have
rational cosine and sine, stepped in integers (`exact_series`), with the
derived bound `EXACT_K` on how far the engine's floats stray from it.

Run as a script to print the golden values that the test suite pins:

    python3 tests/oracles.py
"""

import itertools
import math
from fractions import Fraction

import numpy as np

H, V = 0, 1


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


class DenseLattice:
    """(site, coin) basis over the closed window [x_min, x_max]."""

    def __init__(self, x_min: int, x_max: int):
        self.x_min, self.x_max = x_min, x_max
        self.size = 2 * (x_max - x_min + 1)

    def index(self, x: int, coin: int) -> int:
        return 2 * (x - self.x_min) + coin

    def basis_state(self, x: int, coin: int) -> np.ndarray:
        psi = np.zeros(self.size, dtype=complex)
        psi[self.index(x, coin)] = 1.0
        return psi

    def coin_operator(self, angle_at) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        for x in range(self.x_min, self.x_max + 1):
            block = rotation(angle_at(x))
            for a in (H, V):
                for b in (H, V):
                    m[self.index(x, a), self.index(x, b)] = block[a, b]
        return m

    def shift_h_right(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        for x in range(self.x_min, self.x_max + 1):
            m[self.index(x, V), self.index(x, V)] = 1.0
            if x < self.x_max:
                m[self.index(x + 1, H), self.index(x, H)] = 1.0
        return m

    def shift_v_left(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        for x in range(self.x_min, self.x_max + 1):
            m[self.index(x, H), self.index(x, H)] = 1.0
            if x > self.x_min:
                m[self.index(x - 1, V), self.index(x, V)] = 1.0
        return m

    def shift_both(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        for x in range(self.x_min, self.x_max + 1):
            if x < self.x_max:
                m[self.index(x + 1, H), self.index(x, H)] = 1.0
            if x > self.x_min:
                m[self.index(x - 1, V), self.index(x, V)] = 1.0
        return m

    def step_operator(self, angle1_at, angle2_at) -> np.ndarray:
        return (self.shift_v_left() @ self.coin_operator(angle2_at)
                @ self.shift_h_right() @ self.coin_operator(angle1_at))


def sample_angles(thetas):
    """Identity lead for x < 0, per-site sample angles on [0, len)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))

    def angle_at(x):
        if 0 <= x < thetas.size:
            return float(thetas[x])
        return 0.0

    return angle_at


def dense_reflection(theta1, theta2, t):
    """r_1..r_t from probe (-1, H) read at (-2, V), by dense evolution."""
    theta1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    theta2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    sites = theta2.size
    lat = DenseLattice(-(t + 4), max(t + 2, sites + 2))
    u = lat.step_operator(sample_angles(theta1), sample_angles(theta2))
    psi = lat.basis_state(-1, H)
    out = np.empty(t, dtype=complex)
    for j in range(t):
        psi = u @ psi
        out[j] = psi[lat.index(-2, V)]
    return out


def dense_invariants(r):
    """Auto-gauged (Q0, Qpi) from a raw reflection series."""
    r = np.asarray(r)
    j = np.arange(1, r.size + 1)
    r0 = complex(np.sum(r))
    rpi = complex(np.sum((-1.0) ** j * r))
    v0 = -1j * r0
    mag = abs(v0)
    if mag < 1e-6:
        raise ValueError("gauge degenerate")
    u = v0 / mag
    sign = 1.0 if (u.real > 0 or (u.real == 0 and u.imag >= 0)) else -1.0
    g = sign * np.conj(u) * -1j
    return sign * mag / 2.0, (g * rpi).real / 2.0


def dense_trajectory(angle1_at, angle2_at, x0, coin0, t, reach):
    """All states of a t-step evolution from |x0, coin0>.

    reach bounds the light cone; the window is [x0-reach-2, x0+reach+2].
    Returns (lattice, [psi_0, .., psi_t]).
    """
    lat = DenseLattice(x0 - reach - 2, x0 + reach + 2)
    u = lat.step_operator(angle1_at, angle2_at)
    psi = lat.basis_state(x0, coin0)
    states = [psi.copy()]
    for _ in range(t):
        psi = u @ psi
        states.append(psi.copy())
    return lat, states


def interface_angles(theta_left, right_thetas):
    """Second coin field of a bulk-bulk interface; first field is identity."""
    right_thetas = np.atleast_1d(np.asarray(right_thetas, dtype=float))

    def angle_at(x):
        if x < 0:
            return float(theta_left)
        if x < right_thetas.size:
            return float(right_thetas[x])
        return 0.0

    return angle_at


def dense_interface_p_loc(theta_left, right_thetas, t=13):
    """P_loc (mass on [-3, 3]) after t steps from launch (-1, V)."""
    lat, states = dense_trajectory(lambda x: 0.0,
                                   interface_angles(theta_left, right_thetas),
                                   -1, V, t, reach=t)
    probs = np.abs(states[-1]) ** 2
    total = 0.0
    for x in range(-3, 4):
        total += probs[lat.index(x, H)] + probs[lat.index(x, V)]
    return float(total)


def closed_form_phase(theta1, theta2):
    """Phase labels of clean walks with coin angles (theta1, theta2), as arrays:
    the signs of (Q0, Qpi) from sign Q0 = -sign(sin theta1 + sin theta2) and
    sign Qpi = sign(sin theta1 - sin theta2), written as "+-" and the like."""
    s1, s2 = np.sin(theta1), np.sin(theta2)
    q0 = np.where(s1 + s2 < 0, "+", "-")
    qpi = np.where(s1 - s2 > 0, "+", "-")
    return np.char.add(q0, qpi)


def gap_line_distance(theta1, theta2):
    """Euclidean distance of (theta1, theta2) from the nearest line where the
    gap closes: cos E = cos theta1 cos theta2 cos k - sin theta1 sin theta2
    reaches +-1, at E = 0 or pi, only on theta1 +- theta2 = 0 or pi (mod 2 pi)."""
    def off(x):  # distance of x from the nearest multiple of pi
        return np.abs((np.asarray(x) + np.pi / 2) % np.pi - np.pi / 2)

    return np.minimum(off(theta1 + theta2), off(theta1 - theta2)) / np.sqrt(2)


def clean_series(theta1, theta2, t):
    """rho_1 .. rho_t, with r_j = i rho_j, of the clean walks with coin angles
    (theta1, theta2), one row per element of the equal-shape angle arrays.

    With s1 = sin theta1 and s2 = sin theta2, R(z) = sum_j rho_j z^j solves
    (s1 + s2 z) R^2 - z (1 - z^2) R - z^3 (s2 + s1 z) = 0.  Its series
    solution is R = z^2 S with
    S = [-(s2 + s1 z) + z (s1 + s2 z) S^2] / (1 - z^2),
    which fixes S_k from S_0 .. S_{k-1}, so rho_j = S_{j-2}.
    """
    s1 = np.sin(np.ravel(np.asarray(theta1, dtype=float)))
    s2 = np.sin(np.ravel(np.asarray(theta2, dtype=float)))
    S = np.zeros((s1.size, max(t - 1, 0)))

    def square(m):  # the z^m coefficient of S^2
        return np.sum(S[:, :m + 1] * S[:, m::-1], axis=1) if m >= 0 else 0.0

    for k in range(S.shape[1]):  # the z^k terms; S_k is the one unknown of them
        source = -s2 if k == 0 else -s1 if k == 1 else 0.0
        S[:, k] = (S[:, k - 2] if k >= 2 else 0.0) + source \
            + s1 * square(k - 1) + s2 * square(k - 2)
    rho = np.zeros((s1.size, t))
    rho[:, 1:] = S
    return rho


def exact_series(c1, c2, t):
    """rho_1 .. rho_t, with r_j = i rho_j, of the clean walk whose coins have
    the rational (cos, sin) pairs c1 and c2, such as (3/5, 4/5) or
    (5/13, 12/13), as exact Fractions: no float and no numpy in the
    arithmetic.

    The state is H = a and V = i b with a and b real, so a coin maps (a, b)
    to (c a + s b, c b - s a).  With c = p / q and s = r / q in lowest terms,
    each amplitude after j steps is an integer over
    (q1 q2)^j: the lead's identity coins multiply by q, the sample's coins
    rotate by (p, r).  The window [-2, t + 1] is exact: H left of -1 stays
    zero, V left of -2 never returns, and nothing past t + 1 can return to
    the read-out (-2, V) by step t.
    """
    def ints(pair):
        c, s = map(Fraction, pair)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is no rotation")
        q = c.denominator  # c^2 + s^2 = 1 in lowest terms: s has the same denominator
        return int(c * q), int(s * q), q

    sites = t + 4  # positions -2 .. t + 1; position x sits at index x + 2
    a, b = [0] * sites, [0] * sites
    a[1] = 1  # the probe |-1, H>
    coins, scale, rho = (ints(c1), ints(c2)), 1, []

    def rotate(p, r, q):
        for i in range(sites):
            if i < 2:  # the lead's identity coins
                a[i], b[i] = q * a[i], q * b[i]
            else:
                a[i], b[i] = p * a[i] + r * b[i], p * b[i] - r * a[i]

    for _ in range(t):
        rotate(*coins[0])
        a[1:], a[0] = a[:-1], 0  # H one site right
        rotate(*coins[1])
        b[:-1], b[-1] = b[1:], 0  # V one site left
        scale *= coins[0][2] * coins[1][2]
        rho.append(Fraction(b[0], scale))
    return rho


#: The engine's error bound per step, in units of eps.  One rotation (x, y) ->
#: (c x + s y, c y - s x) in floating point, its coin (c, s) rounded to the
#: nearest floats, gives x' = (c (1 + a) x (1 + d1) + s (1 + b) y (1 + d2)) (1 + d3)
#: with each |a|, |b|, |d| <= u = eps / 2, so to first order x' errs by at most
#: 3 u (|c x| + |s y|), and y' likewise.  Over the pair the error's 2-norm is
#: at most 3 u sqrt((|c x| + |s y|)^2 + (|c y| + |s x|)^2)
#: = 3 u sqrt(1 + 4 |c s x y| / (x^2 + y^2)) |(x, y)| <= 3 sqrt(2) u |(x, y)|, and
#: summed over the sites 3 sqrt(2) u times the state's norm, 1.  A split step
#: rotates twice, 3 sqrt(2) eps, and the walk is unitary, so an error made at
#: one step is carried, not grown: rho_j errs by at most K j eps.  The terms of
#: order u^2 are below 1e-30 per step and are covered by the factor 1 + 1e-9.
EXACT_K = 3 * math.sqrt(2) * (1 + 1e-9)


def pattern_half_r0(theta_a, theta_b, t=11, sites=6):
    """(k, half r(0)) of every binary pattern on the sample sites [0, sites):
    k sites at theta_b, the others at theta_a, the first coin the identity,
    half r(0) = Re(-i sum_j r_j) / 2 over t steps.  A t-step reflection
    reads only the sites [0, t // 2], so sites = t // 2 + 1 covers all a
    t-step ensemble can see: 6 sites, 64 patterns at t = 11."""
    out = []
    for bits in itertools.product((0, 1), repeat=sites):
        r = dense_reflection(np.zeros(sites), np.where(bits, theta_b, theta_a), t)
        out.append((sum(bits), (-1j * np.sum(r)).real / 2.0))
    return out


def exact_disorder_stats(patterns, p, sites=6):
    """Exact (mean, variance) of half r(0) and (mean, variance) of the
    indicator half r(0) > 0 at disorder strength p, each of the
    `pattern_half_r0` patterns weighted by its probability
    p**k (1 - p)**(sites - k).  The indicator's variance is P(> 0) P(<= 0),
    each summed over its own patterns, so it is exactly 0 where every
    pattern of nonzero weight has one sign."""
    weights = np.array([p ** k * (1 - p) ** (sites - k) for k, _ in patterns])
    values = np.array([v for _, v in patterns])
    mean = float(np.sum(weights * values))
    above, below = float(np.sum(weights[values > 0])), float(np.sum(weights[values <= 0]))
    return (mean, float(np.sum(weights * (values - mean) ** 2))), (above, above * below)


def _binary_pattern(seed, config, sites, p, theta_a, theta_b):
    uniforms = np.random.Generator(
        np.random.Philox(key=[seed & (2 ** 64 - 1), config])).random(sites)
    return np.where(uniforms < p, theta_b, theta_a)


def main():
    golden = {}

    # first reflected pulse of a one-coin sample: r_2 = -i sin(theta2)
    r = dense_reflection(np.zeros(6), np.full(6, np.pi / 4), 4)
    golden["one_coin_pi4_r"] = [complex(v) for v in r]

    # two-coin clean sample, both coins active
    r = dense_reflection(np.full(10, 0.35 * np.pi), np.full(10, 0.74 * np.pi), 8)
    golden["clean_035_074_r_imag"] = [float(v.imag) for v in r]

    # invariants of the study's three reference samples (first coin identity)
    for name, th2, t in (("inv_168", 1.68, 50), ("inv_063", 0.63, 50),
                         ("inv_052_t100", 0.52, 100)):
        series = dense_reflection(np.zeros(t + 2), np.full(t + 2, th2 * np.pi), t)
        golden[name] = dense_invariants(series)

    # both-coin bulk of the phase diagram's (+,+) region
    series = dense_reflection(np.full(32, 1.68 * np.pi), np.full(32, 1.68 * np.pi), 30)
    golden["inv_168_168_t30"] = dense_invariants(series)

    # turquoise-line anchors at t=5 (theta2 = 2 * theta1)
    for name, th1 in (("scan_073", 0.73), ("scan_090", 0.90), ("scan_112", 1.12)):
        series = dense_reflection(np.full(7, th1 * np.pi),
                                  np.full(7, (2 * th1 % 2) * np.pi), 5)
        golden[name] = dense_invariants(series)

    # disorder case study 1 at p = 0.5: ensemble mean/std of (r(0)/2).real
    seed, t = 20260814, 11
    values = []
    for config in range(50):
        pattern = _binary_pattern(seed, config, t + 2, 0.5,
                                  1.68 * np.pi, 1.36 * np.pi)
        series = dense_reflection(np.zeros(t + 2), pattern, t)
        values.append((-1j * np.sum(series)).real / 2.0)
    golden["disorder_case1_p05_mean"] = float(np.mean(values))
    golden["disorder_case1_p05_std"] = float(np.std(values))
    golden["disorder_case1_p05_first3"] = [float(v) for v in values[:3]]

    # interface localization: golden P_loc at p in {0, 0.5, 1}
    th_l, th_a, th_b = 0.52 * np.pi, 1.68 * np.pi, 1.36 * np.pi
    golden["edge_ploc_p0"] = dense_interface_p_loc(th_l, np.full(15, th_a))
    golden["edge_ploc_p1"] = dense_interface_p_loc(th_l, np.full(15, th_b))
    values = []
    for config in range(50):
        pattern = _binary_pattern(seed, config, 15, 0.5, th_a, th_b)
        values.append(dense_interface_p_loc(th_l, pattern))
    golden["edge_ploc_p05_mean"] = float(np.mean(values))
    golden["edge_ploc_p05_first3"] = [float(v) for v in values[:3]]
    golden["edge_ploc_reference"] = dense_interface_p_loc(1.68 * np.pi,
                                                          np.full(15, 1.36 * np.pi))

    for key, value in golden.items():
        print(f"{key} = {value!r}")


if __name__ == "__main__":
    main()
