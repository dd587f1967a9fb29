"""Unit and property tests for the state-vector walk engine."""

import numpy as np
import pytest

import qwtopo.scattering
import qwtopo.walk
from qwtopo.scattering import (ScatteringSystem, reflection_rows, reflection_site_steps,
                               sample_rows)
from qwtopo.walk import (H, V, CoinField, SplitStepProtocol, WalkerState,
                         apply_coin_field, apply_shift_minus, apply_shift_plus,
                         apply_shift_symmetric, batch_walkers, batches, coin_matrix,
                         double_step_equivalent, evolve, record, record_site_steps,
                         split_step)

from oracles import DenseLattice, rotation, dense_trajectory

RT2 = np.sqrt(0.5)


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
    """Same window (x_min and width) and the same per-step H and V
    intensities as evolve, from both launch coins, with coin 1 the
    identity on every row (skipped), on some rows or on none.  From x0 the
    window grows at t = 2, 18 and 34, so t up to 40 covers three growths."""
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
        runs = record(start, th1, th2, x0, coin, t)
        for proto, (x_min, a, b) in zip(protocols, runs):
            traj = evolve(WalkerState.localized(x0, coin), proto, t)
            final = traj[-1]
            assert x_min == final.x_min
            assert a.shape == b.shape == (t + 1, final.sites)
            for j, state in enumerate(traj):
                h2 = np.zeros(final.sites)
                v2 = np.zeros(final.sites)
                off = state.x_min - x_min
                h2[off:off + state.sites] = np.abs(state.amps[:, H]) ** 2
                v2[off:off + state.sites] = np.abs(state.amps[:, V]) ** 2
                assert np.array_equal(a[j] ** 2, h2)
                assert np.array_equal(b[j] ** 2, v2)


def test_reflection_row_does_not_depend_on_its_batch():
    rng = np.random.default_rng(10)
    t = 30
    systems = [ScatteringSystem(
        random_field(rng, 0, sites).thetas, random_field(rng, 0, sites).thetas)
        for sites in rng.integers(1, t + 3, 9)]
    batched = reflection_rows(systems, t)
    for system, row in zip(systems, batched):
        assert np.array_equal(reflection_rows([system], t)[0], row)


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


@pytest.mark.parametrize("t", CONE_STEPS)
def test_sample_rows_equal_full_window_rows(t):
    """Bit for bit, with coin 1 the identity (skipped) or random, samples
    shorter and longer than the window.  Trimming can flip the sign of an
    exact zero in rho, which reaches no output: array_equal counts -0.0 and
    0.0 as equal."""
    rng = np.random.default_rng(t)
    n = t // 2 + 3
    for walkers in CONE_WALKERS:
        for identity in (True, False):
            m = int(rng.integers(1, t + 4))
            theta1 = random_angles(rng, walkers, m, identity)
            theta2 = random_angles(rng, walkers, m, False)
            th1, th2 = on_window(0, theta1, -2, n), on_window(0, theta2, -2, n)
            a = np.zeros((walkers, n))
            a[:, 1] = 1.0
            expected = np.zeros((walkers, t))
            steps = full_window_steps(th1, th2, a, np.zeros_like(a), t)
            for j, (_, b) in enumerate(steps):
                expected[:, j] = b[:, 0]
            assert np.array_equal(sample_rows(theta1, theta2, t), expected)


@pytest.mark.parametrize("t", CONE_STEPS)
def test_record_equals_full_window_history(t):
    """Every step of every walker on its window, bit for bit, from both
    launch coins, with coin 1 the identity or random; the full window is
    zero outside each walker's window.  Signs of exact zeros may differ.
    At t = 201 each batch size runs one of the four coin cases."""
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
            runs = record(start, theta1, theta2, x0, coin, t)
            n = 2 * reach + 1
            th1 = on_window(start, theta1, x0 - reach, n)
            th2 = on_window(start, theta2, x0 - reach, n)
            a = np.zeros((walkers, n))
            b = np.zeros((walkers, n))
            (a, b)[coin][:, reach] = 1.0
            windows = {}  # walkers by window: (first column, width)
            for k, (x_min, h, _) in enumerate(runs):
                windows.setdefault((x_min - x0 + reach, h.shape[1]), []).append(k)
            steps = full_window_steps(th1, th2, a, b, t)
            for j, (a, b) in enumerate([(a, b), *steps]):
                for (i, w), ks in windows.items():
                    for full, part in ((a, 1), (b, 2)):
                        assert np.array_equal([runs[k][part][j] for k in ks],
                                              full[ks, i:i + w])
                        assert not full[ks, :i].any() and not full[ks, i + w:].any()


def _counting(real_steps, counted):
    def counted_steps(th1, th2, a, b, steps, read=None):
        for lo, h, v in real_steps(th1, th2, a, b, steps, read):
            counted.append(h.size)  # the sites this step updated, times walkers
            yield lo, h, v
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
    sample_rows(np.zeros((walkers, 203)), rng.uniform(0, 2 * np.pi, (walkers, 203)), 201)
    assert len(counted) == 201
    assert sum(counted) == walkers * 10401 == walkers * reflection_site_steps(201)

    counted.clear()
    monkeypatch.setattr(qwtopo.walk, "real_steps", _counting(qwtopo.walk.real_steps, counted))
    theta = rng.uniform(0, 2 * np.pi, (walkers, 13))
    record(0, theta, theta, -1, H, 11)
    assert sum(counted) == walkers * 11 * 13 == walkers * record_site_steps(11)


@pytest.mark.parametrize("budget", (1, 100, 3 * 2**16))
@pytest.mark.parametrize("held", (1, 7, 100, 101, 3000))
def test_batches_cover_the_walkers_in_order_within_the_budget(monkeypatch, budget, held):
    monkeypatch.setattr(qwtopo.walk, "BATCH_BUDGET", budget)
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
