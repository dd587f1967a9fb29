"""Brute-force dense-matrix oracle used to freeze golden values.

Everything here is built from explicit operator matrices over an
indexed (site, coin) basis and plain matrix-vector products.  That is
a deliberately different construction from the vectorized package
code, so agreement between the two is meaningful evidence.

Run as a script to print the golden values that the test suite pins:

    python3 tests/oracles.py
"""

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
