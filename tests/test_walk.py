"""Unit and property tests for the walk engine and its single-state reference."""

import itertools
import json
import os

import numpy as np
import pytest

import qwtopo.budget
import qwtopo.scattering
import qwtopo.walk
from qwtopo.budget import batch_walkers, batches, record_site_steps, reflection_site_steps
from qwtopo.scattering import sample_rows
from qwtopo.walk import H, V, coins, record, record_cut, reduced

from oracles import DenseLattice, rotation, dense_trajectory
from references import (MIXED_START, evolve_windows, grown_record_cut, kernel_history,
                        mixed_angles, mixed_windows, on_own_window, seed_kernel, union_window,
                        written_rows)
from stepping import (CoinField, SplitStepProtocol, WalkerState, apply_coin_field,
                      apply_shift_minus, apply_shift_plus, apply_shift_symmetric,
                      double_step_equivalent, evolve, split_step)

RT2 = np.sqrt(0.5)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def coin_matrix(theta: float) -> np.ndarray:
    """The coin `apply_coin_field` applies at a site of angle theta, in the
    (H, V) basis: column c is the image of |0, c>."""
    field = CoinField(0, [theta])
    return np.array([apply_coin_field(WalkerState.localized(0, coin), field).amps[1]
                     for coin in (H, V)]).T


def test_coin_matrix_identity_at_zero():
    assert np.allclose(coin_matrix(0.0), np.eye(2), atol=0)


def test_coin_matrix_half_pi_swaps_with_minus_i():
    m = coin_matrix(np.pi / 2)
    assert np.allclose(m, [[0, -1j], [-1j, 0]], atol=1e-15)
    assert np.allclose(m @ [1, 0], [0, -1j], atol=1e-15)


def test_coin_matrix_pi_is_minus_identity():
    assert np.allclose(coin_matrix(np.pi), -np.eye(2), atol=1e-15)


def test_coin_matrix_reduces_angle_mod_two_pi():
    assert np.allclose(coin_matrix(0.3 + 6 * np.pi), coin_matrix(0.3), atol=1e-12)


def test_coin_matrix_unitary_for_random_angles():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-10, 10, size=1000):
        m = coin_matrix(theta)
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-15)


def test_coin_matrix_matches_dense_oracle_rotation():
    for theta in (0.1, 1.0, 2.5, 5.9):
        assert np.allclose(coin_matrix(theta), rotation(theta), atol=1e-15)


def test_shift_plus_moves_h_right():
    out = apply_shift_plus(WalkerState.localized(0, H))
    assert out.amplitude(1, H) == 1.0
    assert out.norm_sq() == pytest.approx(1.0, abs=0)


def test_shift_minus_leaves_h_alone():
    out = apply_shift_minus(WalkerState.localized(0, H))
    assert out.amplitude(0, H) == 1.0


def test_shift_minus_moves_v_left():
    out = apply_shift_minus(WalkerState.localized(0, V))
    assert out.amplitude(-1, V) == 1.0


def test_symmetric_shift_splits_superposition():
    psi = WalkerState.localized(0, H)
    psi.amps[0 - psi.x_min, V] = 1.0
    psi.amps /= np.sqrt(2)
    out = apply_shift_symmetric(psi)
    assert out.amplitude(1, H) == pytest.approx(RT2)
    assert out.amplitude(-1, V) == pytest.approx(RT2)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_shifts_grow_window_instead_of_truncating():
    state = WalkerState.localized(0, H, x_min=0, x_max=0)
    out = apply_shift_plus(state)
    assert out.amplitude(1, H) == 1.0
    out = apply_shift_minus(WalkerState.localized(0, V, x_min=0, x_max=0))
    assert out.amplitude(-1, V) == 1.0


def test_identity_field_leaves_state_unchanged():
    rng = np.random.default_rng(2)
    state = WalkerState(-3, rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2)))
    out = apply_coin_field(state, CoinField.identity())
    assert np.array_equal(out.amps, state.amps)


def test_coin_field_half_pi_converts_h_to_v():
    field = CoinField(0, np.array([np.pi / 2]))
    out = apply_coin_field(WalkerState.localized(0, H), field)
    assert out.amplitude(0, V) == pytest.approx(-1j, abs=1e-15)
    assert out.amplitude(0, H) == pytest.approx(0.0, abs=1e-15)


def test_coin_field_quarter_pi_splits_h():
    field = CoinField(0, np.array([np.pi / 4]))
    out = apply_coin_field(WalkerState.localized(0, H), field)
    assert out.amplitude(0, H) == pytest.approx(RT2, abs=1e-15)
    assert out.amplitude(0, V) == pytest.approx(-1j * RT2, abs=1e-15)


def test_coin_field_angles_reduce_mod_two_pi():
    field = CoinField(0, np.array([2 * np.pi + 0.4]))
    assert field.theta_at(0) == pytest.approx(0.4)
    assert field.theta_at(5) == 0.0


def test_an_angle_just_below_a_multiple_of_two_pi_reduces_to_zero():
    """-1e-20 % (2 pi) is exactly 2 pi; reduced, it is 0.0, with the identity
    coin (1.0, 0.0) exactly, wherever the package stores or steps an angle."""
    assert np.float64(-1e-20) % (2 * np.pi) == 2 * np.pi
    assert repr(reduced(-1e-20).item()) == "0.0"
    c, s = coins(np.array([-1e-20]))
    assert (c.tolist(), s.tolist()) == ([1.0], [0.0])
    assert CoinField(0, [-1e-20]).thetas.tolist() == [0.0]
    system = qwtopo.scattering.ScatteringSystem(np.array([-1e-20]), np.array([-1e-20]))
    assert system.theta1.tolist() == system.theta2.tolist() == [0.0]
    pairs = qwtopo.scattering.line_pairs(qwtopo.scattering.LINE_GREEN, [-5e-21])
    assert pairs[0, 0].item() == 0.0


def test_reducing_twice_is_reducing_once():
    """Over random angles and angles within a few ulps of 2 pi k, a reduced
    angle lies in [0, 2 pi) and reduces to itself, and equals `%` wherever
    `%` gives less than 2 pi, so no stored or stepped angle moves."""
    rng = np.random.default_rng(4)
    k = rng.integers(-5, 6, 500)
    near = np.concatenate([2 * np.pi * k + rng.integers(-8, 9, 500) * np.spacing(2 * np.pi * k),
                           rng.uniform(-1e-15, 1e-15, 500), -np.logspace(-300, -15, 100)])
    assert np.any(near % (2 * np.pi) == 2 * np.pi)
    for theta in (rng.uniform(-50, 50, 2000), near):
        once = reduced(theta)
        assert np.all((0 <= once) & (once < 2 * np.pi))
        assert once.tobytes() == reduced(once).tobytes()
        plain = theta % (2 * np.pi)
        below = plain < 2 * np.pi
        assert once[below].tobytes() == plain[below].tobytes() and np.all(once[~below] == 0)


def test_split_step_free_propagation():
    proto = SplitStepProtocol.lead_only()
    out = split_step(WalkerState.localized(0, H), proto)
    assert out.amplitude(1, H) == 1.0
    assert out.time == 1
    out = split_step(WalkerState.localized(0, V), proto)
    assert out.amplitude(-1, V) == 1.0


def test_split_step_single_quarter_pi_coin():
    # first coin identity, second coin pi/4 everywhere the walker reaches
    proto = SplitStepProtocol(CoinField.identity(),
                              CoinField.uniform(np.pi / 4, -5, 11))
    out = split_step(WalkerState.localized(0, H), proto)
    assert out.amplitude(1, H) == pytest.approx(RT2, abs=1e-15)
    assert out.amplitude(0, V) == pytest.approx(-1j * RT2, abs=1e-15)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_split_step_matches_dense_matrix_product():
    rng = np.random.default_rng(3)
    th1 = rng.uniform(0, 2 * np.pi, size=13)
    th2 = rng.uniform(0, 2 * np.pi, size=13)
    proto = SplitStepProtocol(CoinField(-6, th1), CoinField(-6, th2))
    t = 4
    states = evolve(WalkerState.localized(0, H, x_min=-6, x_max=6), proto, t)
    lat, dense = dense_trajectory(lambda x: th1[x + 6] if -6 <= x <= 6 else 0.0,
                                  lambda x: th2[x + 6] if -6 <= x <= 6 else 0.0,
                                  0, H, t, reach=t)
    for state, psi in zip(states, dense):
        for x in range(state.x_min, state.x_max + 1):
            assert state.amplitude(x, H) == pytest.approx(psi[lat.index(x, H)], abs=1e-13)
            assert state.amplitude(x, V) == pytest.approx(psi[lat.index(x, V)], abs=1e-13)


def test_double_step_matches_split_step_on_quarter_pi_example():
    proto = SplitStepProtocol(CoinField.identity(),
                              CoinField.uniform(np.pi / 4, -5, 11))
    a = split_step(WalkerState.localized(0, H), proto)
    b = double_step_equivalent(WalkerState.localized(0, H), proto)
    for x in range(-2, 3):
        for c in (H, V):
            assert a.amplitude(x, c) == pytest.approx(b.amplitude(x, c), abs=1e-15)


def test_double_step_free_propagation_of_v():
    proto = SplitStepProtocol.lead_only()
    out = double_step_equivalent(WalkerState.localized(0, V), proto)
    assert out.amplitude(-1, V) == 1.0


def test_double_step_equals_split_step_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sites = 11
        start = int(rng.integers(-5, 0))
        th1 = rng.uniform(0, 2 * np.pi, size=sites)
        th2 = rng.uniform(0, 2 * np.pi, size=sites)
        proto = SplitStepProtocol(CoinField(start, th1), CoinField(start, th2))
        amps = rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        t = int(rng.integers(1, 7))
        a = WalkerState(start, amps.copy())
        b = WalkerState(start, amps.copy())
        for _ in range(t):
            a = split_step(a, proto)
            b = double_step_equivalent(b, proto)
        assert a.x_min <= b.x_min and b.x_max <= a.x_max
        for x in range(b.x_min, b.x_max + 1):
            for c in (H, V):
                assert abs(a.amplitude(x, c) - b.amplitude(x, c)) <= 1e-12


def test_evolve_zero_steps_returns_initial_state():
    state = WalkerState.localized(0, H)
    traj = evolve(state, SplitStepProtocol.lead_only(), 0)
    assert len(traj) == 1
    assert np.array_equal(traj[0].amps, state.amps)


def test_evolve_free_walker_travels_ballistically():
    traj = evolve(WalkerState.localized(0, H), SplitStepProtocol.lead_only(), 5)
    assert traj[-1].amplitude(5, H) == 1.0


def test_evolve_preserves_norm_every_step():
    rng = np.random.default_rng(5)
    proto = SplitStepProtocol(CoinField(-7, rng.uniform(0, 2 * np.pi, 15)),
                              CoinField(-7, rng.uniform(0, 2 * np.pi, 15)))
    traj = evolve(WalkerState.localized(0, H), proto, 13)
    assert len(traj) == 14
    for state in traj:
        assert abs(state.norm_sq() - 1.0) < 1e-12


def test_light_cone_is_exact():
    rng = np.random.default_rng(6)
    proto = SplitStepProtocol(CoinField(-30, rng.uniform(0, 2 * np.pi, 61)),
                              CoinField(-30, rng.uniform(0, 2 * np.pi, 61)))
    t = 9
    start = WalkerState.localized(0, H, x_min=-t - 8, x_max=t + 8)
    for j, state in enumerate(evolve(start, proto, t)):
        for x in range(state.x_min, state.x_max + 1):
            if not -j - 1 <= x <= j + 1:
                assert state.amplitude(x, H) == 0.0
                assert state.amplitude(x, V) == 0.0


def test_window_size_does_not_change_amplitudes():
    rng = np.random.default_rng(7)
    th1 = rng.uniform(0, 2 * np.pi, 21)
    th2 = rng.uniform(0, 2 * np.pi, 21)
    proto = SplitStepProtocol(CoinField(-10, th1), CoinField(-10, th2))
    t = 6
    small = evolve(WalkerState.localized(0, H, x_min=-t - 2, x_max=t + 2), proto, t)[-1]
    large = evolve(WalkerState.localized(0, H, x_min=-t - 30, x_max=t + 30), proto, t)[-1]
    for x in range(small.x_min, small.x_max + 1):
        for c in (H, V):
            assert abs(small.amplitude(x, c) - large.amplitude(x, c)) <= 1e-14


def test_coin_field_window_angles_slices_correctly():
    field = CoinField(2, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(field.window_angles(0, 7), [0, 0, 1.0, 2.0, 3.0, 0, 0])
    assert np.array_equal(field.window_angles(3, 2), [2.0, 3.0])
    assert np.array_equal(field.window_angles(-5, 3), [0, 0, 0])


def test_localized_rejects_window_without_origin():
    with pytest.raises(ValueError):
        WalkerState.localized(5, H, x_min=0, x_max=2)


def test_evolve_rejects_negative_steps():
    with pytest.raises(ValueError):
        evolve(WalkerState.localized(), SplitStepProtocol.lead_only(), -1)


# --- the batched engine against the single-state reference -----------------------

#: Angles that make coins exact (identity, full swap, minus identity) plus a
#: generic one, so amplitudes hit exact zeros at window edges.
SPECIAL_ANGLES = (0.0, np.pi / 2, np.pi)


def random_field(rng, start, sites):
    pick = rng.integers(0, len(SPECIAL_ANGLES) + 1, sites)
    th = rng.uniform(0, 2 * np.pi, sites)
    for i, angle in enumerate(SPECIAL_ANGLES):
        th[pick == i] = angle
    return CoinField(start, th)


def test_record_matches_evolve_bit_for_bit():
    """Each walker's history equals, on the window `evolve` ends on, its H
    and V amplitudes after every step, and is exact zeros on every other
    row, from both launch coins, with coin 1 the identity on every row (the
    window's own lattice), on some rows or on none; the last of its
    `windows` is the union of those windows.  From x0 the window grows at t = 2, 18 and 34,
    so t up to 40 covers three growths."""
    rng = np.random.default_rng(9)
    for case in range(24):
        t = 40 if case % 4 == 0 else int(rng.integers(0, 41))
        x0 = int(rng.integers(-3, 4))
        coin = case % 2
        start = x0 - int(rng.integers(0, t + 3))
        sites = int(rng.integers(1, 2 * t + 6))
        protocols = [SplitStepProtocol(
            CoinField.identity() if case % 3 == 0 or k % 2
            else random_field(rng, start, sites),
            random_field(rng, start, sites)) for k in range(3)]
        th1 = np.array([p.field1.window_angles(start, sites) for p in protocols])
        th2 = np.array([p.field2.window_angles(start, sites) for p in protocols])
        run = record(start, coins(th1), coins(th2), x0, coin, t)
        windows = evolve_windows(start, th1, th2, x0, coin, t)
        assert on_own_window(run, windows)
        assert qwtopo.walk.windows(*run[1:])[-1] == union_window(run, windows)


def test_the_package_evolve_equals_the_reference_state_by_state():
    """`walk.evolve`, one `record` walker, gives the reference's trajectory:
    at every step the same x_min, sites and time, and amplitudes equal up to
    the sign of exact zeros, over random protocols with t from 0 to 29, coin
    1 the identity or not, coins exactly 0, pi/2 or pi or random, fields
    starting from -6 to 2, and H and V launches from x0 = -4 to 2."""
    rng = np.random.default_rng(29)
    for case in range(300):
        t = int(rng.integers(0, 30))
        x0, coin = int(rng.integers(-4, 3)), case % 2
        start, sites = int(rng.integers(-6, 3)), int(rng.integers(1, 2 * t + 7))
        field1 = (CoinField.identity() if case % 3 == 0 else random_field(rng, start, sites))
        protocol = SplitStepProtocol(field1, random_field(rng, start, sites))
        got = qwtopo.walk.evolve(qwtopo.walk.WalkerState.localized(x0, coin), protocol, t)
        want = evolve(WalkerState.localized(x0, coin), protocol, t)
        assert len(got) == len(want) == t + 1
        for a, b in zip(got, want):
            assert (a.x_min, a.sites, a.time) == (b.x_min, b.sites, b.time)
            assert np.array_equal(a.amps, b.amps), (case, a.time)


def test_the_package_evolve_refuses_any_state_but_a_localized_launch():
    """A wider window, two nonzero amplitudes, a non-unit amplitude or an
    amplitude off the middle site raise ValueError, as negative steps do."""
    protocol = SplitStepProtocol.lead_only()
    two = WalkerState.localized(0, H)
    two.amps[1, V] = 1.0
    half = WalkerState.localized(0, V)
    half.amps *= 0.5
    off = WalkerState(-1, np.roll(WalkerState.localized(0, H).amps, 1, axis=0))
    for state in (WalkerState.localized(0, H, x_min=-3, x_max=3),
                  WalkerState.localized(0, H, x_min=0, x_max=0), two, half, off):
        with pytest.raises(ValueError):
            qwtopo.walk.evolve(state, protocol, 3)
    with pytest.raises(ValueError):
        qwtopo.walk.evolve(qwtopo.walk.WalkerState.localized(0, H), protocol, -1)


@pytest.mark.parametrize("t", (0, 1, 3, 12, 20, 40))
def test_windows_are_the_union_of_the_reference_windows_at_every_step(t):
    """`walk.windows` of `mixed_windows`' batch, whose walkers stop growing
    at one edge or the other, gives at every step the union of the windows
    the reference stepper holds its walkers on; from t = 3 on, their last
    windows differ in width and first row."""
    x_min, h, v = mixed_windows(t)
    trajectories = [evolve(WalkerState.localized(-1, H), SplitStepProtocol(
        CoinField.identity(), CoinField(MIXED_START, angles)), t) for angles in mixed_angles()]
    want = [(min(s.x_min for s in states) - x_min, max(s.x_max for s in states) - x_min)
            for states in zip(*trajectories)]
    assert qwtopo.walk.windows(h, v) == want
    ends = {(traj[-1].x_min, traj[-1].sites) for traj in trajectories}
    assert t < 3 or len({x for x, _ in ends}) > 1 and len({n for _, n in ends}) > 1


def test_no_coin1_angles_step_as_the_identity_coin1():
    """theta1 None is the identity coin 1: `sample_rows` and `record` give
    the bits that all-zero angles give."""
    theta2 = np.random.default_rng(12).uniform(0, 2 * np.pi, (9, 15))
    zeros = np.zeros_like(theta2)
    assert np.array_equal(sample_rows(None, coins(theta2), 13),
                          sample_rows(coins(zeros), coins(theta2), 13))
    for coin in (H, V):
        x_min, h, v = record(-4, None, coins(theta2), -1, coin, 13)
        lo, hi = qwtopo.walk.windows(h, v)[-1]
        want = record(-4, coins(zeros), coins(theta2), -1, coin, 13)
        assert x_min == want[0]
        for got, expected in zip((h, v, lo, hi),
                                 (*want[1:], *qwtopo.walk.windows(*want[1:])[-1])):
            assert np.array_equal(got, expected)


def test_reflection_row_does_not_depend_on_its_batch():
    rng = np.random.default_rng(10)
    t = 30
    fields = [(random_field(rng, 0, sites).thetas, random_field(rng, 0, sites).thetas)
              for sites in rng.integers(1, t + 3, 9)]
    theta = np.zeros((2, len(fields), max(th1.size for th1, _ in fields)))
    for k, (th1, th2) in enumerate(fields):
        theta[:, k, :th1.size] = th1, th2
    batched = sample_rows(coins(theta[0]), coins(theta[1]), t)
    for (th1, th2), row in zip(fields, batched, strict=True):
        assert np.array_equal(sample_rows(coins(th1[None]), coins(th2[None]), t)[0], row)


@pytest.mark.parametrize("identity", (True, False))
@pytest.mark.parametrize("walkers", (8, 9, 61, 64, 65, 199))
def test_buffer_rows_start_on_cache_lines(walkers, identity):
    """The kernel's buffer starts on a 64-byte cache line, with coin 1 the
    identity and on the doubled lattice.  From 64 walkers on its rows, and
    so its planes, are whole cache lines long, and its at most 7 pad
    columns hold identity coins; a narrower batch has no pad."""
    rng = np.random.default_rng(walkers)
    coin2 = coins(rng.uniform(0, 2 * np.pi, (walkers, 12)))
    coin1 = None if identity else coins(rng.uniform(0, 2 * np.pi, (walkers, 12)))
    rows = 20 if identity else 40
    buf, _ = qwtopo.walk._buffer(coin1, coin2, 3, rows, 3, 15, qwtopo.walk.Workspace(), None)
    assert buf.__array_interface__["data"][0] % 64 == 0 and buf.strides[2] == 8
    assert buf.shape[:2] == (9, (rows + 3) // 2)
    if walkers < 64:
        assert buf.shape[2] == walkers
    else:
        assert buf.strides[1] % 64 == 0 and 0 <= buf.shape[2] - walkers < 8
        assert (buf[0:2, :, walkers:] == 1).all() and (buf[2:8, :, walkers:] == 0).all()


@pytest.mark.parametrize("walkers", (1, 2, 7, 9, 61, 65))
def test_a_walker_steps_the_same_alone_and_in_any_batch(walkers):
    """Each walker's `sample_rows` row and `record` history hold, bit for bit,
    those of the same walker stepped alone, whether its batch is padded or
    not, with coin 1 the identity and on the doubled lattice.  The batch's
    last window is the union of the walkers' windows alone."""
    rng = np.random.default_rng(walkers)
    t, m = 21, 14
    theta = np.array([[random_field(rng, 0, m).thetas for _ in range(walkers)]
                      for _ in range(2)])
    for theta1 in (None, coins(theta[0])):
        theta2 = coins(theta[1])
        rows = sample_rows(theta1, theta2, t)
        x_min, h, v = record(-3, theta1, theta2, -1, V, t)
        lo, hi = qwtopo.walk.windows(h, v)[-1]
        edges = []
        for k in range(walkers):
            one1, one2 = (None if pair is None else (pair[0][k:k + 1], pair[1][k:k + 1])
                          for pair in (theta1, theta2))
            assert sample_rows(one1, one2, t)[0].tobytes() == rows[k].tobytes()
            alone = record(-3, one1, one2, -1, V, t)
            assert alone[0] == x_min
            for got, want in zip(alone[1:3], (h, v)):
                assert got[..., 0].tobytes() == want[..., k].tobytes()
            edges.append(qwtopo.walk.windows(*alone[1:])[-1])
        assert (lo, hi) == (min(e[0] for e in edges), max(e[1] for e in edges))


# --- the light-cone engine against a full-window one -----------------------------

def full_window_steps(th1, th2, a, b, steps):
    """Reference engine: (walkers, sites) arrays, every site of the window
    stepped, fresh arrays every step."""
    c1, s1, c2, s2 = np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)
    coin1 = bool(np.any(th1))
    for _ in range(steps):
        if coin1:
            a, b = c1 * a + s1 * b, c1 * b - s1 * a
        h = np.zeros_like(a)
        h[:, 1:] = a[:, :-1]
        a, b = c2 * h + s2 * b, c2 * b - s2 * h
        v = np.zeros_like(b)
        v[:, :-1] = b[:, 1:]
        b = v
        yield a, b


def on_window(start, thetas, x_min, sites):
    """(walkers, sites) angles on [x_min, x_min + sites) of the (walkers, m)
    angles of positions [start, start + m), zero outside."""
    out = np.zeros((thetas.shape[0], sites))
    for i in range(sites):
        if 0 <= x_min + i - start < thetas.shape[1]:
            out[:, i] = thetas[:, x_min + i - start]
    return out


def random_angles(rng, walkers, sites, identity):
    if identity:
        return np.zeros((walkers, sites))
    return np.array([random_field(rng, 0, sites).thetas for _ in range(walkers)])


CONE_STEPS = (0, 1, 2, 3, 4, 5, 30, 201)
CONE_WALKERS = (1, 7, 64, 65)


def full_window_rows(theta1, theta2, t):
    """The reference engine's read-out V at x = -2 after each of t steps of
    the probe |-1, H> on samples whose (walkers, m) angles start at x = 0."""
    n = t // 2 + 3
    th1, th2 = on_window(0, theta1, -2, n), on_window(0, theta2, -2, n)
    a = np.zeros((theta2.shape[0], n))
    a[:, 1] = 1.0
    expected = np.zeros((theta2.shape[0], t))
    for j, (_, b) in enumerate(full_window_steps(th1, th2, a, np.zeros_like(a), t)):
        expected[:, j] = b[:, 0]
    return expected


@pytest.mark.parametrize("t", CONE_STEPS)
def test_sample_rows_equal_full_window_rows(t):
    """Bit for bit, with coin 1 the identity (the window's own lattice) or random, samples
    shorter and longer than the window.  Trimming can flip the sign of an
    exact zero in rho, which reaches no output: array_equal counts -0.0 and
    0.0 as equal."""
    rng = np.random.default_rng(t)
    for walkers in CONE_WALKERS:
        for identity in (True, False):
            m = int(rng.integers(1, t + 4))
            theta1 = random_angles(rng, walkers, m, identity)
            theta2 = random_angles(rng, walkers, m, False)
            assert np.array_equal(sample_rows(coins(theta1), coins(theta2), t),
                                  full_window_rows(theta1, theta2, t))


@pytest.mark.parametrize("t", (30, 31, 200, 201))
@pytest.mark.parametrize("walkers", (1, 64))
def test_sample_rows_of_coin_tables_equal_full_window_rows(walkers, t):
    """The studies take the cosine and sine of each distinct angle once and
    gather them: a scan broadcasts each (theta1, theta2) pair's coins over
    its sample, on the doubled lattice, and a disorder pattern gathers
    those of theta_a and theta_b through its mask, on the window's rows.
    Their rho rows equal, bit for bit, those of the reference engine, which
    takes the cosine and sine of whole (walkers, sites) angle planes."""
    rng = np.random.default_rng(walkers + t)
    m = t + 2
    pairs = rng.uniform(0, 2 * np.pi, (walkers, 2))
    c, s = coins(pairs)
    coin1, coin2 = ((np.broadcast_to(c[:, k, None], (walkers, m)),
                     np.broadcast_to(s[:, k, None], (walkers, m))) for k in (0, 1))
    assert np.array_equal(sample_rows(coin1, coin2, t), full_window_rows(
        np.repeat(pairs[:, :1], m, axis=1), np.repeat(pairs[:, 1:], m, axis=1), t))
    a, b = np.array([0.63, 1.26]) * np.pi
    masks = rng.random((walkers, qwtopo.budget.sample_width(t))) < 0.6
    (ca, cb), (sa, sb) = coins(np.array([a, b]))
    rho = sample_rows(None, (np.where(masks, cb, ca), np.where(masks, sb, sa)), t)
    assert np.array_equal(rho, full_window_rows(np.zeros(masks.shape),
                                                np.where(masks, b, a), t))
    assert rho.flags.c_contiguous and rho.shape == (walkers, t)


def shipped_angles() -> np.ndarray:
    """Every angle the shipped configs give in units of pi, times pi, reduced
    mod 2 pi, with the cell centres of the 64 x 64 phase diagram."""
    found = []

    def walk_config(node, key=""):
        if isinstance(node, dict):
            for k, v in node.items():
                walk_config(v, k)
        elif isinstance(node, list):
            for v in node:
                walk_config(v, key)
        elif key.endswith("_pi") and isinstance(node, (int, float)):
            found.append(float(node))
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            walk_config(json.load(fh))
    assert len(found) > 10
    centres = (np.arange(64) + 0.5) * 2 * np.pi / 64
    return np.concatenate([np.array(found) * np.pi % (2 * np.pi), centres])


def test_a_coin_is_the_same_alone_and_inside_a_plane():
    """The coin tables rest on this: np.cos and np.sin of an angle alone, as
    a scalar or a one-element array, give the bits of its element in an
    array of any shape, as whole (rows, B) planes held it, the sine taken in
    place, for random angles, the shipped ones and the special ones."""
    rng = np.random.default_rng(21)
    angles = np.concatenate([rng.uniform(0, 2 * np.pi, 3000), shipped_angles(),
                             np.arange(16) * np.pi / 8 % (2 * np.pi), [5e-324, 1e-300]])
    alone = np.array([[f(x) for x in angles] for f in (np.cos, np.sin)])
    assert np.array_equal(alone, [[f(np.array([x]))[0] for x in angles]
                                  for f in (np.cos, np.sin)])
    bits = lambda x: np.ascontiguousarray(x).view(np.int64)
    for shape in ((2,), (819, 2), (103, 200), (18, 819), (7, 1), (1, 3)):
        pick = rng.integers(0, angles.size, shape)
        plane = angles[pick]
        cos = np.empty(shape)
        np.cos(plane, out=cos)
        np.sin(plane, out=plane)
        assert np.array_equal(bits(cos), bits(alone[0][pick]))
        assert np.array_equal(bits(plane), bits(alone[1][pick]))


def test_sample_rows_write_positive_zeros_where_the_read_out_is_empty():
    """With coin 1 the identity the probe |-1, H> returns V to the read-out
    only at even steps: rho_1, rho_3, ... are +0.0 and the even steps carry
    the series."""
    theta2 = np.random.default_rng(3).uniform(0, 2 * np.pi, (7, 40))
    rho = sample_rows(coins(np.zeros_like(theta2)), coins(theta2), 37)
    assert not rho[:, ::2].any() and not np.signbit(rho[:, ::2]).any()
    assert np.all(rho[:, 1::2] != 0)


@pytest.mark.parametrize("t", CONE_STEPS)
def test_record_equals_full_window_history(t):
    """Every step of every walker on the whole window, bit for bit, from both
    launch coins, with coin 1 the identity or random; the full window is
    zero outside the window `evolve` ends on for each walker, and the last
    of record's `windows` is the union of those.  Signs of exact zeros may differ.
    The launch row is t + 16, so odd and even t launch at both row
    parities.  At t = 201 each batch size runs one of the four coin cases."""
    rng = np.random.default_rng(100 + t)
    reach = t + 16
    cases = [(identity, coin) for identity in (True, False) for coin in (H, V)]
    for b_index, walkers in enumerate(CONE_WALKERS):
        for identity, coin in cases if t <= 30 else cases[b_index:b_index + 1]:
            x0 = int(rng.integers(-3, 4))
            start = x0 - int(rng.integers(0, t + 3))
            m = int(rng.integers(1, 2 * t + 6))
            theta1 = random_angles(rng, walkers, m, identity)
            theta2 = random_angles(rng, walkers, m, False)
            run = record(start, coins(theta1), coins(theta2), x0, coin, t)
            windows = evolve_windows(start, theta1, theta2, x0, coin, t)
            assert qwtopo.walk.windows(*run[1:])[-1] == union_window(run, windows)
            n = 2 * reach + 1
            th1 = on_window(start, theta1, x0 - reach, n)
            th2 = on_window(start, theta2, x0 - reach, n)
            a = np.zeros((walkers, n))
            b = np.zeros((walkers, n))
            (a, b)[coin][:, reach] = 1.0
            x_min, h, v = run[:3]
            outside = np.ones((walkers, n), dtype=bool)  # off each walker's window
            for k, (first, wa, _) in enumerate(windows):
                outside[k, first - x_min:first - x_min + wa.shape[1]] = False
            steps = full_window_steps(th1, th2, a, b, t)
            for j, (a, b) in enumerate([(a, b), *steps]):
                assert np.array_equal(h[j].T, a) and np.array_equal(v[j].T, b)
                assert not a[outside].any() and not b[outside].any()


@pytest.mark.parametrize("identity", (True, False))
@pytest.mark.parametrize("coin", (H, V))
@pytest.mark.parametrize("site", (4, 5))
@pytest.mark.parametrize("read", (None, 0, 3))
def test_real_steps_equal_full_window_steps_from_either_row_parity(identity, coin, site,
                                                                    read):
    """Every H and V row a step writes into the history equals the
    full-window reference bit for bit, the read-out equals V on row `read`
    at every step, and every other row of the step's `cone` is zero there:
    launches at an even and an odd row, from both coins, with coin 1 the
    identity or random.  The window's right edge cuts the cone from step 4
    or 5 on, and with `read` the cone is cut to the rows that can still
    reach it.  With a random coin 1 the engine runs on the doubled lattice,
    whose read cut also leaves out H on the cone's first row: it cannot
    reach V on the read row in time.  The coins start on the window's first
    row, or two rows before it."""
    rng = np.random.default_rng(10 * site + coin)
    n, t, walkers = site + 5, 12, 6
    theta1 = random_angles(rng, walkers, n, identity)
    theta2 = random_angles(rng, walkers, n, False)
    a, b = np.zeros((2, walkers, n))
    (a, b)[coin][:, site] = 1.0
    first, last, _ = qwtopo.budget.cone(site, site, n, t, read)
    full = list(full_window_steps(theta1, theta2, a, b, t))
    # coins also of rows -2 and -1, outside the window, which no step reads
    padded = [np.concatenate([rng.uniform(0, 2 * np.pi, (walkers, 2)), th], axis=1)
              for th in (theta1, theta2)]
    for offset, th1, th2 in ((0, theta1, theta2), (-2, *padded)):
        h, v = np.full((2, t + 1, n, walkers), np.nan)
        with kernel_history(h, v):
            rho = qwtopo.walk.real_steps(coins(th1), coins(th2), offset, n, site, coin, t, read)
        assert np.isnan(h[0]).all() and np.isnan(v[0]).all()
        for j, (lo, hi, (a, b)) in enumerate(zip(first, last, full), 1):
            ra, rb = (np.flatnonzero(~np.isnan(x[j, :, 0])) for x in (h, v))
            assert np.array_equal(np.isnan(h[j]), np.isnan(h[j, :, :1]).repeat(walkers, 1))
            assert np.array_equal(np.isnan(v[j]), np.isnan(v[j, :, :1]).repeat(walkers, 1))
            assert np.array_equal(h[j, ra].T, a[:, ra]) and np.array_equal(v[j, rb].T, b[:, rb])
            assert len(set(ra) | set(rb)) == hi - lo + 1
            if read is not None:
                assert np.array_equal(rho[:, j - 1], b[:, read])
            for rows, amps in ((ra, a), (rb, b)):
                others = set(range(lo, hi + 1)) - set(rows.tolist())
                if not identity and read is not None and rows is ra:
                    others.discard(read - (t - j))
                assert not amps[:, sorted(others)].any()
            # identity: one amplitude per site, H and V on rows of opposite parity;
            # else the doubled lattice's rows, halved
            step = 2 if identity else 1
            assert all(np.all(np.diff(rows) == step) for rows in (ra, rb))
            assert not identity or not ra.size or not rb.size or (ra[0] - rb[0]) % 2 == 1


@pytest.mark.parametrize("walkers", (1, 7, 63, 64, 65, 200))
def test_real_steps_equal_the_seed_kernel_bit_for_bit(monkeypatch, walkers):
    """`real_steps` writes into its read-out and cut history the bytes, so
    also the sign of every zero, that it writes with the plain kernel loop
    `references.seed_kernel`: with coin 1 the identity and on the doubled
    lattice, launches on rows of both parities from both coins, read rows of
    both parities or none, and no history, one of the first steps on rows
    inside the window and one of every step reaching past both of its
    edges, which the cone reaches.  Special angles make exact zeros."""
    rng = np.random.default_rng(walkers)
    n, t, kernels = 15, 11, (qwtopo.walk._kernel, seed_kernel)
    cuts = (None, (4, 5, 6), (-3, n + 6, t))  # (first row, rows, last step kept)
    for identity in (True, False):
        theta1, theta2 = (random_angles(rng, walkers, n + 2, False) for _ in range(2))
        coin1, coin2 = None if identity else coins(theta1), coins(theta2)
        for site, coin, read, cut in itertools.product((6, 7), (H, V), (None, 2, 3), cuts):
            runs = []
            for kernel in kernels:
                monkeypatch.setattr(qwtopo.walk, "_kernel", kernel)
                history = None
                if cut is not None:
                    history = (cut[0], *np.full((2, cut[2] + 1, cut[1], walkers), np.nan))
                rho = qwtopo.walk.real_steps(coin1, coin2, -1, n, site, coin, t, read, history)
                runs.append([x.tobytes() for x in (rho, *(history or ())[1:]) if x is not None])
            assert runs[0] == runs[1], (identity, site, coin, read, cut)


@pytest.mark.parametrize("identity", (True, False))
@pytest.mark.parametrize("with_read", (False, True))
def test_a_cut_history_is_the_slice_of_the_whole_one(identity, with_read):
    """Over random t <= 40, kept steps k <= t and position ranges, among them
    ranges reaching past either edge of `record`'s window, empty ranges and
    ranges that start off its first row, `record_cut` keeps bit for bit the
    slice of `record`'s whole history, zeros off its window, with coin 1
    None and on the doubled lattice; with `read`, its read-out is the V row
    of the read position in the whole history, v[1:, read]."""
    rng = np.random.default_rng(40 + 2 * identity + with_read)
    for _ in range(12):
        t = int(rng.integers(0, 41))
        kept = int(rng.integers(0, t + 1))
        walkers, x0, coin = int(rng.integers(1, 6)), int(rng.integers(-3, 4)), int(rng.integers(2))
        start = x0 - int(rng.integers(0, t + 2))
        sites = int(rng.integers(1, 2 * t + 4))
        theta1 = None if identity else coins(rng.uniform(0, 2 * np.pi, (walkers, sites)))
        theta2 = coins(rng.uniform(0, 2 * np.pi, (walkers, sites)))
        x_min, h, v = record(start, theta1, theta2, x0, coin, t)
        n = h.shape[1]
        # the whole history with n zero rows on either side, so that row x is x_min + n
        padded = [np.pad(x, ((0, 0), (n, n), (0, 0))) for x in (h, v)]
        ranges = [(x_min + int(rng.integers(-n, n)), int(rng.integers(0, n + 1))),
                  (x_min - 3, n + 6), (x_min + n - 2, 5), (x0 + int(rng.integers(-2, 3)), 0),
                  (x0 - kept, 2 * kept + 1)]
        for first, rows in ranges:
            read = x_min + int(rng.integers(0, n)) if with_read else None
            rho, cut_h, cut_v = record_cut(start, theta1, theta2, x0, coin, t, first, rows, kept,
                                           read)
            lo = first - x_min + n
            for cut, whole in zip((cut_h, cut_v), padded):
                want = np.ascontiguousarray(whole[:kept + 1, lo:lo + rows])
                assert cut.shape == want.shape and cut.tobytes() == want.tobytes()
            if with_read:
                assert rho.tobytes() == np.ascontiguousarray(v[1:, read - x_min].T).tobytes()
            else:
                assert rho is None


def _cone_rows(t, x0, read):
    """The positions `record_cut` steps: the cone x0 - t .. x0 + t + 1 and the read row."""
    return (x0 - t, x0 + t + 1) if read is None else (min(x0 - t, read), max(x0 + t + 1, read))


@pytest.mark.parametrize("identity", (True, False))
@pytest.mark.parametrize("coin", (H, V))
def test_the_cone_gives_the_bits_of_the_grown_window(identity, coin):
    """`record_cut` steps its walkers on the positions of their light cone, x0
    - t .. x0 + t + 1, and the read row, not on the grown window x0 +- (t +
    _GROW) of `record`'s history.  Over random t <= 40, t = 0 and 1 among
    them, read rows inside and outside the cone, and cut ranges that are
    empty or reach past either edge of the grown window, its read-out and cut
    history, and `record`'s whole history, are bit for bit, exact zeros and
    their signs included, those of the same kernel on the grown window
    (`references.grown_record_cut`), with coin 1 None, and with random coin-1
    angles on rows among those the cone steps, on the doubled lattice."""
    rng = np.random.default_rng(50 + 2 * identity + coin)
    reads = set()
    for t in (0, 1, *rng.integers(2, 41, 10).tolist()):
        reach = t + qwtopo.budget._GROW
        x_min, n = -reach + int(rng.integers(-3, 4)), 2 * reach + 1
        x0 = x_min + reach
        kept = int(rng.integers(0, t + 1))
        for read in (None, *(x0 + rng.integers(-reach, reach + 1, 3)).tolist()):
            lo, hi = _cone_rows(t, x0, read)
            reads.add(None if read is None else lo == x0 - t and hi == x0 + t + 1)
            start = int(rng.integers(x_min - 3, hi + 1))
            sites = int(rng.integers(max(1, lo - start + 1), n + 6))  # reaching row lo or beyond
            walkers = int(rng.integers(1, 5))
            theta1 = None if identity else coins(rng.uniform(0, 2 * np.pi, (walkers, sites)))
            theta2 = coins(rng.uniform(0, 2 * np.pi, (walkers, sites)))
            ranges = [(x_min + int(rng.integers(-n, n)), int(rng.integers(0, n + 1))),
                      (x_min - 3, n + 6), (x_min + n - 2, 5), (x0 + int(rng.integers(-2, 3)), 0),
                      (x0 - kept, 2 * kept + 1)]
            for first, rows in ranges:
                args = (start, theta1, theta2, x0, coin, t, first, rows, kept, read)
                got, want = record_cut(*args), grown_record_cut(*args)
                assert (got[0] is None) == (read is None)
                for a, b in zip(got, want):
                    if a is not None:
                        assert a.shape == b.shape and a.tobytes() == b.tobytes()
            if read is None:
                got = record(start, theta1, theta2, x0, coin, t)
                want = grown_record_cut(start, theta1, theta2, x0, coin, t, x_min, n, t)[1:]
                assert got[0] == x_min
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1:], want))
    assert reads == {None, True, False}


def test_the_cone_may_run_one_lattice_where_the_grown_window_ran_two():
    """Where coin 1 is the identity on every row the cone steps but not on
    some row of the grown window, the cone runs the one lattice and the grown
    window ran the doubled one: their histories and read-outs agree in every
    value, exact zeros among them, and may differ only in a zero's sign."""
    rng = np.random.default_rng(59)
    for t, coin in ((3, H), (8, V), (13, H)):
        start, theta1 = -t - 16, np.zeros((2, 2 * t + 40))
        theta1[:, t + 5 - start] = 0.7  # at x = t + 5: past the cone of x0 = 0, in its grown window
        theta2 = coins(rng.uniform(0, 2 * np.pi, (2, 2 * t + 40)))
        args = (start, coins(theta1), theta2, 0, coin, t, -t - 16, 2 * t + 33, t, -2)
        for a, b in zip(record_cut(*args), grown_record_cut(*args)):
            assert np.array_equal(a, b) and np.array_equal(a == 0, b == 0)


def test_cone_of_an_unreachable_read_is_empty():
    """Row 5 of a 7-row window is out of reach from row 1 in 2 steps: both
    steps are empty, with last = first - 1, and the total is 0, on either
    engine path."""
    first, last, total = qwtopo.budget.cone(1, 1, 7, 2, 5)
    assert first == [4, 5] and last == [3, 4] and total == 0
    for theta1 in (np.zeros((3, 7)), np.full((3, 7), 0.4)):
        h, v = np.full((2, 3, 7, 3), np.nan)
        with kernel_history(h, v):
            rho = qwtopo.walk.real_steps(coins(theta1), coins(np.full((3, 7), 1.1)), 0, 7, 1, H,
                                         2, 5)
        assert np.isnan(h[1:]).all() and np.isnan(v[1:]).all()
        assert rho.shape == (3, 2) and not rho.any()


def reference_cone(lo, hi, sites, steps, read=None):
    """`budget.cone` step by step, from its definition."""
    first, last = [], []
    for j in range(1, steps + 1):
        a, b = max(lo - j, 0), min(hi + j, sites - 1)
        if read is not None:
            a, b = max(a, read - steps + j), min(b, read + steps - j)
        first.append(a)
        last.append(max(b, a - 1))
    return first, last, sum(b - a + 1 for a, b in zip(first, last))


def test_cone_equals_its_step_by_step_definition():
    """Reads anywhere from far left of the window to far right of it, from
    every launch block, up to steps past both window edges."""
    rng = np.random.default_rng(23)
    for _ in range(5000):
        sites = int(rng.integers(1, 40))
        lo = int(rng.integers(0, sites))
        hi = int(rng.integers(lo, sites))
        read = None if rng.random() < 0.2 else int(rng.integers(-50, sites + 50))
        steps = int(rng.integers(0, 90))
        assert qwtopo.budget.cone(lo, hi, sites, steps, read) == \
            reference_cone(lo, hi, sites, steps, read), (lo, hi, sites, steps, read)


def test_cone_widths_are_never_negative():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        sites = int(rng.integers(1, 30))
        lo = int(rng.integers(0, sites))
        hi = int(rng.integers(lo, sites))
        read = None if rng.random() < 0.2 else int(rng.integers(-5, sites + 5))
        first, last, total = qwtopo.budget.cone(lo, hi, sites, int(rng.integers(0, 40)), read)
        widths = [b - a + 1 for a, b in zip(first, last)]
        assert min(widths, default=0) >= 0 and total == sum(widths)


@pytest.mark.parametrize("x0", (-3, 0, 1, 4))
@pytest.mark.parametrize("coin", (H, V))
def test_identity_coin1_keeps_the_walk_on_one_sublattice(x0, coin):
    """With coin 1 the identity, coin 2 maps the pair (H at x, V at x + 1)
    onto (H at x + 1, V at x).  So from |x0, coin>, after step j H sits only
    on positions of the parity of x0 + j + coin and V only on the others:
    the amplitudes off that sublattice are exactly zero at every step, for
    random coin-2 fields with the special angles.  A generic coin 1 fills
    both sublattices."""
    rng = np.random.default_rng(40 + 2 * x0 + coin)
    t = 24
    for _ in range(4):
        start = x0 - int(rng.integers(0, t))
        field2 = random_field(rng, start, int(rng.integers(1, 2 * t)))
        bipartite = evolve(WalkerState.localized(x0, coin),
                           SplitStepProtocol(CoinField.identity(), field2), t)
        generic = evolve(WalkerState.localized(x0, coin), SplitStepProtocol(
            CoinField(x0 - t, rng.uniform(0.1, 1.4, 2 * t + 1)), field2), t)
        filled = []
        for j, (state, mixed) in enumerate(zip(bipartite, generic)):
            h_rows = (state.positions() - x0 - j - coin) % 2 == 0
            assert not state.amps[~h_rows, H].any() and not state.amps[h_rows, V].any()
            h_rows = (mixed.positions() - x0 - j - coin) % 2 == 0
            filled.append(mixed.amps[~h_rows, H].any() or mixed.amps[h_rows, V].any())
        assert not filled[0] and all(filled[1:])


def _counting(real_steps, counted):
    """real_steps, appending the window rows each step updates, those of its
    H or V rows, times the walkers."""
    def counted_steps(coin1, coin2, offset, sites, site, coin, steps, read=None,
                      history=None, workspace=None):
        for ra, rb in written_rows(coin1, coin2, offset, sites, site, coin, steps, read,
                                   history):
            counted.append(len(set(ra.tolist()) | set(rb.tolist())) * coin2[0].shape[0])
        return real_steps(coin1, coin2, offset, sites, site, coin, steps, read, history,
                          workspace=workspace)
    return counted_steps


@pytest.mark.parametrize("walkers", (1, 64))
def test_reflection_runs_step_only_their_light_cone(monkeypatch, walkers):
    """At t = 201 step j updates min(j + 2, 202 - j) of the 103 window
    sites: 10 401 site-steps per walker, where the whole window is 20 703.
    Record steps its forward cone, 2j + 1 sites at step j."""
    counted = []
    monkeypatch.setattr(qwtopo.scattering, "real_steps",
                        _counting(qwtopo.scattering.real_steps, counted))
    rng = np.random.default_rng(11)
    sample_rows(coins(np.zeros((walkers, 203))),
                coins(rng.uniform(0, 2 * np.pi, (walkers, 203))), 201)
    assert len(counted) == 201
    assert sum(counted) == walkers * 10401 == walkers * reflection_site_steps(201)

    counted.clear()
    monkeypatch.setattr(qwtopo.walk, "real_steps", _counting(qwtopo.walk.real_steps, counted))
    theta = coins(rng.uniform(0, 2 * np.pi, (walkers, 13)))
    record(0, theta, theta, -1, H, 11)
    assert sum(counted) == walkers * 11 * 13 == walkers * record_site_steps(11)


@pytest.mark.parametrize("budget", (1, 100, 3 * 2**16))
@pytest.mark.parametrize("held", (1, 7, 100, 101, 3000))
def test_batches_cover_the_walkers_in_order_within_the_budget(monkeypatch, budget, held):
    monkeypatch.setattr(qwtopo.budget, "BATCH_BUDGET", budget)
    for walkers in (0, 1, 2, 13, 64, 65, 200, 1001):
        parts = batches(np.arange(walkers), held)
        assert all(part.size for part in parts)
        assert np.array_equal(np.concatenate([np.arange(0), *parts]), np.arange(walkers))
        sizes = [part.size for part in parts]
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert max(sizes, default=0) == batch_walkers(walkers, held)
        assert all(size * held <= budget or size == 1 for size in sizes)
        if len(parts) > 1:  # one batch fewer would overflow the budget
            assert -(-walkers // (len(parts) - 1)) * held > budget
