"""Measurement-chain emulation: interference read-out, sign
reconstruction, hardware imperfections, and the Monte-Carlo error-bar
fit.  Amplitude-level references come from the scattering module, whose
own tests pin it against the dense oracle."""

import re
from dataclasses import replace

import numpy as np
import pytest

from qwtopo import (
    AmbiguousSign,
    ApparatusModel,
    ChainBroken,
    ErrorRanges,
    ReflectionSeries,
    ScatteringSystem,
    emulate_measurement,
    interfere,
    invariants,
    measured_invariants,
    monte_carlo_errorbars,
    reconstruct_series,
    reflection_amplitudes,
    relative_sign,
)
from qwtopo.apparatus import (
    INTENSITY_FLOOR,
    MAGNITUDE_EPS,
    OPPOSITE,
    SAME,
    SignMeasurement,
    _LOSS,
    _below_floor,
    _distances,
    _mc_batch,
    _measure,
    _model_coins,
    _params,
    _readout,
    _same,
    perturbed_angles,
)
from qwtopo.budget import ALPHA_GUARD, within_guard
from qwtopo.scattering import invariant_rows
from qwtopo.walk import H, Workspace, coins, windows as record_windows

from defaults import MC, RANGES
from references import (MIXED_START, distances, evolve_windows, mixed_angles, mixed_windows,
                        union_window)

PI = np.pi


# ---------------------------------------------------------------- interfere

def test_equal_pulses_cancel_in_one_port():
    i_h, i_v = interfere(0.5, 0.5, PI / 4)
    assert i_h == 0.0
    assert i_v == pytest.approx(0.25, abs=1e-15)


def test_vanishing_first_pulse_gives_equal_split_scaled_by_cos():
    i_h, i_v = interfere(0.0, 0.6, PI / 4)
    assert i_h == pytest.approx(i_v, abs=1e-15)
    assert i_h + i_v == pytest.approx(0.18, abs=1e-15)


def test_opposite_pulses_at_pi_8():
    i_h, i_v = interfere(0.5, -0.5, PI / 8)
    assert i_h - i_v == pytest.approx(0.17677669529663687, abs=1e-15)
    assert i_h + i_v == pytest.approx(0.25, abs=1e-15)


def test_interference_conserves_energy():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r1, r2 = rng.uniform(-1, 1, size=2)
        alpha = rng.uniform(-2 * PI, 2 * PI)
        i_h, i_v = interfere(r1, r2, alpha)
        s, c = np.sin(alpha), np.cos(alpha)
        assert i_h >= -1e-15 and i_v >= -1e-15
        assert i_h + i_v == pytest.approx(r1 * r1 * s * s + r2 * r2 * c * c,
                                          abs=1e-12)
    # at the working point the split is even in the pulse energies
    i_h, i_v = interfere(0.3, -0.8, PI / 4)
    assert i_h + i_v == pytest.approx(0.5 * (0.09 + 0.64), abs=1e-12)


def _formula_readout(r1, r2, alpha):
    """(i_h, i_v, below, same) of one pulse pair in Python floats, each
    multiply, add and subtract rounded on its own in the order the read-out
    states: `interfere`, then `_below_floor` and `_same` of its intensities."""
    s, c = float(np.sin(alpha)), float(np.cos(alpha))
    base = r1 * r1 * s * s + r2 * r2 * c * c
    cross = 2.0 * r1 * r2 * s * c
    i_h, i_v = 0.5 * (base - cross), 0.5 * (base + cross)
    return (i_h, i_v, *_formula_sign_test(i_h, i_v, alpha))


def _formula_sign_test(i_h, i_v, alpha):
    """(below, same) of a pair's intensities in Python floats."""
    delta = i_h - i_v
    below = delta == 0.0 or abs(delta) < INTENSITY_FLOOR * (i_h + i_v)
    return below, delta * (float(np.sin(alpha)) * float(np.cos(alpha))) < 0


def test_the_readout_arithmetic_is_its_formula_in_python_floats_bit_for_bit():
    """`interfere`, `_below_floor` and `_same` equal their formulas evaluated
    in Python floats, bit for bit, on arrays and on scalars: numpy rounds each
    float64 multiply, add and subtract on its own at every SIMD level, as
    Python does, so this holds on any host, where a recorded hash of the
    read-out would pin one.  Pulses include zeros, -0.0 and subnormals, the
    intensity pairs a pair at the floor and its neighbours and contrasts that
    underflow, and alpha lies in all four quadrants and below zero."""
    rng = np.random.default_rng(35)
    pulses = [0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310, *rng.uniform(-1, 1, 24).tolist()]
    pairs = [(a, b) for a in pulses for b in pulses]
    alphas = [PI / 4, -PI / 4, *(k * PI / 2 + rng.uniform(0.05, PI / 2 - 0.05)
                                 for k in (0, 1, 2, 3, -1, -3))]
    # a pair whose |Delta I| is INTENSITY_FLOOR times its total exactly, the
    # pair with one ulp of i_h less and more, pairs without contrast, and
    # contrasts whose product with sin alpha cos alpha underflows
    tie = (0.4698159184369795, 0.46972196464867094)
    floor = [tie, *((float(np.nextafter(tie[0], side)), tie[1]) for side in (0.0, 1.0))]
    floor += [(0.50005, 0.49995), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.3, 0.3),
              (2e-320, 1e-320), (0.0, 5e-324), (5e-324, 0.0)]

    def bits(values):
        return np.array(values, dtype=float).tobytes()

    r1, r2 = (np.array(column) for column in zip(*pairs))
    i_h, i_v = (np.array(column) for column in zip(*floor))
    for alpha in alphas:
        want = [_formula_readout(a, b, alpha) for a, b in pairs]
        got = interfere(r1, r2, alpha)
        assert bits(got[0]) == bits([w[0] for w in want])
        assert bits(got[1]) == bits([w[1] for w in want])
        assert _below_floor(*got).tolist() == [w[2] for w in want]
        assert _same(*got, alpha).tolist() == [w[3] for w in want]
        want = [_formula_sign_test(h, v, alpha) for h, v in floor]
        assert _below_floor(i_h, i_v).tolist() == [w[0] for w in want]
        assert _same(i_h, i_v, alpha).tolist() == [w[1] for w in want]
        for a, b in pairs[::7]:
            h, v = interfere(a, b, alpha)
            w = _formula_readout(a, b, alpha)
            assert bits([h, v]) == bits(w[:2])
            assert (bool(_below_floor(h, v)), bool(_same(h, v, alpha))) == w[2:]
        for (h, v), w in zip(floor, want):
            assert (bool(_below_floor(h, v)), bool(_same(h, v, alpha))) == w
    # the tie is not below the floor, and one ulp less of i_h is
    assert abs(tie[0] - tie[1]) == INTENSITY_FLOOR * (tie[0] + tie[1])
    assert not _below_floor(*tie) and _below_floor(*floor[1]) and not _below_floor(*floor[2])


# ------------------------------------------------------------- relative sign

def test_sign_readout_same_and_opposite():
    assert relative_sign(*interfere(0.3, 0.4, PI / 4), PI / 4) == SAME
    assert relative_sign(*interfere(0.3, -0.4, PI / 4), PI / 4) == OPPOSITE


def test_sign_readout_rejects_contrast_free_mixing_angles():
    for alpha in (0.0, PI / 2, PI, -PI / 2, 3 * PI / 2):
        with pytest.raises(AmbiguousSign):
            relative_sign(0.1, 0.0, alpha)
    # the guard band is two degrees wide on either side
    with pytest.raises(AmbiguousSign):
        relative_sign(0.1, 0.0, np.radians(1.5))
    assert relative_sign(0.1, 0.0, np.radians(2.5)) == OPPOSITE
    assert within_guard(np.radians(1.5)) and not within_guard(np.radians(2.5))


def test_sign_readout_rejects_weak_contrast():
    """The floor is INTENSITY_FLOOR times the pair's total intensity."""
    assert INTENSITY_FLOOR == 1e-4
    with pytest.raises(AmbiguousSign):
        relative_sign(0.5, 0.5, PI / 4)
    with pytest.raises(AmbiguousSign):
        relative_sign(0.500025, 0.499975, PI / 4)  # |Delta I| = 5e-5 of 1
    assert relative_sign(0.5001, 0.4999, PI / 4) == OPPOSITE  # 2e-4 of 1
    # the same |Delta I| reads on a pair ten times dimmer
    assert relative_sign(0.050025, 0.049975, PI / 4) == OPPOSITE


def test_sign_readout_is_sound_away_from_the_guard():
    rng = np.random.default_rng(23)
    for _ in range(400):
        r1 = rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)
        r2 = rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)
        k = rng.integers(-2, 3)
        alpha = k * PI / 2 + rng.choice([-1, 1]) * rng.uniform(0.05, PI / 2 - 0.05)
        i_h, i_v = interfere(r1, r2, alpha)
        want = SAME if r1 * r2 > 0 else OPPOSITE
        assert relative_sign(i_h, i_v, alpha) == want


# ------------------------------------------------------------ reconstruction

def test_reconstruction_follows_the_pairwise_chain():
    mags = np.array([0.5, 0.2, 0.1, 0.3])
    signs = [(1, 2, SAME), (2, 3, OPPOSITE), (3, 4, OPPOSITE)]
    rho = reconstruct_series(mags, signs, reference_sign=-1)
    assert np.allclose(rho, [-0.5, -0.2, 0.1, -0.3])


def test_reconstruction_keeps_structural_zeros_exact():
    mags = np.array([0.0, 0.5, 0.0, 0.2, 0.0, 0.1])
    signs = [(2, 4, OPPOSITE), (4, 6, SAME)]
    rho = reconstruct_series(mags, signs, reference_sign=1)
    assert rho[0] == 0.0 and rho[2] == 0.0 and rho[4] == 0.0
    assert np.allclose(rho[[1, 3, 5]], [0.5, -0.2, -0.1])


def test_broken_chain_reports_every_unreachable_step():
    mags = np.full(7, 0.1)
    signs = [(1, 2, SAME), (2, 3, OPPOSITE), (3, 4, SAME),
             (4, 5, None), (5, 6, SAME), (6, 7, SAME)]
    with pytest.raises(ChainBroken) as err:
        reconstruct_series(mags, signs, reference_sign=1)
    assert err.value.undetermined == [5, 6, 7]


def test_unreadable_measurement_objects_break_the_chain_too():
    mags = np.full(3, 0.1)
    flat = SignMeasurement(2, 3, PI / 4, 0.5, 0.5)  # zero contrast
    good = SignMeasurement(1, 2, PI / 4, *interfere(0.1, 0.1, PI / 4))
    with pytest.raises(ChainBroken) as err:
        reconstruct_series(mags, [good, flat], reference_sign=1)
    assert err.value.undetermined == [3]


def test_reference_sign_must_be_a_unit():
    with pytest.raises(ValueError, match="reference sign"):
        reconstruct_series(np.array([0.5]), [], reference_sign=0)


# ------------------------------------------------------ emulate_measurement

def one_coin_sample(theta2_pi: float, t: int) -> ScatteringSystem:
    return ScatteringSystem.for_steps(0.0, theta2_pi * PI, t)


def test_perfect_hardware_reports_ideal_magnitudes():
    system = ScatteringSystem.for_steps(0.35 * PI, 0.74 * PI, 7)
    data = emulate_measurement(system, 7)
    ideal = np.abs(np.imag(reflection_amplitudes(system, 7).r))
    assert np.allclose(data.magnitudes, ideal, atol=1e-12)
    # without loss every recorded step keeps unit total intensity
    assert np.allclose(data.distributions.sum(axis=1), 1.0, atol=1e-12)
    assert data.distributions.shape == (8, data.distributions.shape[1])


def test_perfect_hardware_roundtrips_the_signed_series():
    system = one_coin_sample(1.68, 11)
    data = emulate_measurement(system, 11)
    rho = data.series
    ideal = np.imag(reflection_amplitudes(system, 11).r)
    assert np.allclose(rho, ideal, atol=1e-12)
    assert all(rho[j] == 0.0 for j in range(0, 11, 2))  # odd steps stay dark
    pair = measured_invariants(data)
    want = invariants(reflection_amplitudes(system, 11))
    assert pair.q0 == pytest.approx(want.q0, abs=1e-12)
    assert pair.qpi == pytest.approx(want.qpi, abs=1e-12)


def test_emulation_rejects_contrast_free_mixing_angle():
    with pytest.raises(AmbiguousSign):
        emulate_measurement(one_coin_sample(0.52, 7), 7, alpha=PI / 2)


def test_emulation_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        emulate_measurement(one_coin_sample(0.52, 5), 5, mode="analog")


def test_shot_noise_is_seeded_and_small_at_large_budget():
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    kw = dict(mode="shots", shots=10_000_000)
    d1 = emulate_measurement(system, 11, seed=5, **kw)
    d2 = emulate_measurement(system, 11, seed=5, **kw)
    d3 = emulate_measurement(system, 11, seed=6, **kw)
    exact = emulate_measurement(system, 11)
    assert np.array_equal(d1.magnitudes, d2.magnitudes)
    assert not np.array_equal(d1.magnitudes, d3.magnitudes)
    assert np.max(np.abs(d1.magnitudes - exact.magnitudes)) < 2e-3
    noisy, clean = d1.series, exact.series
    big = np.abs(clean) > 1e-6
    assert np.array_equal(np.sign(noisy[big]), np.sign(clean[big]))


# ------------------------------------------------------------- imperfections

def test_hardware_model_validates_efficiencies():
    with pytest.raises(ValueError, match="efficiency_h"):
        ApparatusModel(efficiency_h=0.0)
    with pytest.raises(ValueError, match="efficiency_v"):
        ApparatusModel(efficiency_v=1.2)


def test_coin_stage_offsets_leave_identity_coins_exact():
    system = one_coin_sample(0.52, 7)
    models = [ApparatusModel(eom_error=0.01, sbc_error=-0.004), ApparatusModel()]
    theta1 = perturbed_angles(system.theta1, _params(models))
    theta2 = perturbed_angles(system.theta2, _params(models))
    assert theta1.shape == theta2.shape == (2, system.theta1.size)
    assert not np.any(theta1)  # all zeros stay zeros
    assert np.allclose(theta2[0], system.theta2 + 0.006, atol=1e-15)
    assert np.array_equal(theta2[1], system.theta2)


def test_model_coins_per_distinct_angle_are_the_coins_of_each_site():
    """`_model_coins` takes each model's coins once per distinct site angle of
    a field and gathers them to its sites: bit for bit the coins of every
    site's perturbed angle, on a clean sample, whose fields hold one angle
    each, and on a non-uniform one with zero angles, which stay the exact
    identity coin, and angles just below 2 pi that the offsets carry past it."""
    rng = np.random.default_rng(35)
    wide = ErrorRanges(loss_asymmetry=0.1, eom_error=np.radians(10.0),
                       sbc_error=np.radians(10.0), efficiency_span=0.5)
    params = wide.draw(rng, 9)
    mixed = ScatteringSystem(rng.choice([0.0, 0.3 * PI, 2 * PI - 0.01], 17),
                             rng.choice([0.0, 1.1 * PI, 0.7 * PI, 2 * PI - 1e-3], 17))
    assert not mixed.theta1.all() and not mixed.theta2.all()
    for system in (ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11), mixed):
        for got, thetas in zip(_model_coins(system, params), (system.theta1, system.theta2)):
            want = coins(perturbed_angles(thetas, params))
            for a, b in zip(got, want):
                assert a.shape == b.shape == (9, thetas.size) and a.tobytes() == b.tobytes()
            assert np.all(got[0][:, thetas == 0.0] == 1.0) and not got[1][:, thetas == 0.0].any()


def test_three_percent_loss_biases_invariants_by_well_under_a_tenth():
    system = one_coin_sample(0.52, 11)
    want = invariants(reflection_amplitudes(system, 11))
    for loss in (-0.03, 0.03):
        data = emulate_measurement(system, 11, ApparatusModel(loss_asymmetry=loss))
        pair = measured_invariants(data)
        assert abs(pair.q0 - want.q0) < 0.1
        assert abs(pair.qpi - want.qpi) < 0.1
        assert abs(pair.q0 - want.q0) > 1e-4  # the bias is real, just small


def test_invariant_bias_grows_monotonically_with_loss():
    system = one_coin_sample(0.52, 11)
    want = invariants(reflection_amplitudes(system, 11))
    biases = []
    for loss in (0.0, 0.01, 0.02, 0.03):
        pair = measured_invariants(
            emulate_measurement(system, 11, ApparatusModel(loss_asymmetry=loss)))
        biases.append(abs(pair.q0 - want.q0) + abs(pair.qpi - want.qpi))
    assert biases[0] == pytest.approx(0.0, abs=1e-12)
    assert all(b > a for a, b in zip(biases, biases[1:]))


def flip_midpoints(model: ApparatusModel, t: int = 20) -> list:
    """Sign-change midpoints of Q0*Qpi along theta2 = 2*theta1."""
    out, prev_s, prev_a = [], None, None
    for th1 in np.arange(0.60, 0.7401, 0.005) * PI:
        clean = ScatteringSystem.for_steps(th1, 2 * th1, t)
        system = ScatteringSystem(perturbed_angles(clean.theta1, _params([model]))[0],
                                  perturbed_angles(clean.theta2, _params([model]))[0])
        pair = invariants(reflection_amplitudes(system, t))
        s = np.sign(pair.q0 * pair.qpi)
        if prev_s is not None and s != prev_s:
            out.append(0.5 * (prev_a + th1))
        prev_s, prev_a = s, th1
    return out


def test_one_degree_coin_offset_barely_moves_the_transition():
    ideal = flip_midpoints(ApparatusModel())
    bent = flip_midpoints(ApparatusModel(eom_error=np.radians(1.0)))
    assert len(ideal) == 1 and len(bent) == 1
    assert abs(bent[0] - ideal[0]) < 0.05 * PI


# ------------------------------------------------------- batched read-out

def scalar_readout(rho, model, alpha, mode="exact", shots=0, seed=0):
    """The read-out one pulse pair at a time: magnitudes, then each pair of
    consecutive present pulses interfered (in shots mode Poisson draws in
    that order: every magnitude, then i_h and i_v pair by pair)."""
    rng = np.random.default_rng(seed)
    t = rho.size
    gain = (1.0 + model.loss_asymmetry) ** np.arange(1, t + 1)
    intensities = model.efficiency_v * gain * rho ** 2
    if mode == "shots":
        intensities = rng.poisson(intensities * shots) / shots
    magnitudes = np.sqrt(intensities / model.efficiency_v)
    present = [j for j in range(1, t + 1) if magnitudes[j - 1] > MAGNITUDE_EPS]
    signs = []
    for a, b in zip(present, present[1:]):
        i_h, i_v = interfere(rho[a - 1] * np.sqrt(gain[a - 1]),
                             rho[b - 1] * np.sqrt(gain[b - 1]), alpha)
        i_h *= model.efficiency_h
        i_v *= model.efficiency_v
        if mode == "shots":
            i_h = rng.poisson(i_h * shots) / shots
            i_v = rng.poisson(i_v * shots) / shots
        signs.append(SignMeasurement(a, b, alpha, float(i_h), float(i_v)))
    reference = 1 if not present or rho[present[0] - 1] >= 0 else -1
    return magnitudes, signs, reference


def scalar_pair(magnitudes, signs, reference) -> tuple:
    """(q0, qpi) through reconstruct_series and invariants, NaN where the
    chain breaks or the gauge is degenerate."""
    try:
        pair = invariants(ReflectionSeries(1j * reconstruct_series(magnitudes, signs, reference)))
    except ChainBroken:
        return np.nan, np.nan
    return pair.q0, pair.qpi


def measure_pair(rho, model, alpha) -> tuple:
    """(q0, qpi) through _measure and measured_invariants."""
    pair = measured_invariants(_measure(rho, model, -2, None, alpha, "exact", 1_000_000, 0))
    return pair.q0, pair.qpi


def model_windows(system, params, t) -> list:
    """`evolve_windows` of the probe |-1, H> on the system as the hardware of
    each row of the model array params realizes it: `_runs` walker by walker."""
    return evolve_windows(0, perturbed_angles(system.theta1, params),
                          perturbed_angles(system.theta2, params), -1, H, t)


def readout_rho(windows) -> np.ndarray:
    """The (B, t) read-out series, V at x = -2, of `evolve_windows`."""
    return np.array([b[1:, -2 - x_min] for x_min, _, b in windows])


def as_reprs(*columns) -> list:
    return [tuple(repr(float(x)) for x in row) for row in zip(*columns)]


def test_batched_readout_matches_the_scalar_chain_bit_for_bit():
    rng = np.random.default_rng(31)
    wide = ErrorRanges(loss_asymmetry=0.1, eom_error=np.radians(10.0),
                       sbc_error=np.radians(10.0), efficiency_span=0.5)
    for case in range(6):
        t = int(rng.integers(7, 25))
        system = ScatteringSystem.for_steps(*rng.uniform(0, 2 * PI, 2), t)
        params = wide.draw(rng, 40)
        models = [ApparatusModel(*row) for row in params.tolist()]
        alpha = PI / 4 if case % 2 else rng.uniform(0.05, PI / 2 - 0.05)
        rho = readout_rho(model_windows(system, params, t))
        q0, qpi = invariant_rows(_readout(rho, params, alpha)[1])
        want = [scalar_pair(*scalar_readout(row, m, alpha)) for row, m in zip(rho, models)]
        assert as_reprs(q0, qpi) == as_reprs(*zip(*want))
        chain = [measure_pair(row, m, alpha) for row, m in zip(rho, models)]
        assert as_reprs(*zip(*chain)) == as_reprs(*zip(*want))


def test_batched_readout_marks_each_unreadable_row():
    rho = np.array([
        [0.5, 0.0, -0.3, 0.0, 0.2, 0.1],    # readable
        [0.5, 1e-6, 0.3, 0.0, 0.2, 0.1],    # first pair: |Delta I| under the floor
        [0.5, -0.4, 0.3, 1e-7, 0.2, 0.1],   # chain broken after three pulses
        [0.25, -0.25, 0.5, -0.5, 0.0, 0.0],  # |r(0)| = 0 < 1e-6
    ])
    models = [ApparatusModel(loss_asymmetry=0.02, efficiency_h=0.97)] + [ApparatusModel()] * 3
    _, series, _ = _readout(rho, _params(models), PI / 4)
    assert np.isnan(series).any(axis=1).tolist() == [False, True, True, False]
    assert np.isnan(series[1:3]).all()
    q0, qpi = invariant_rows(series)
    assert np.isfinite(q0[0]) and np.isfinite(qpi[0])
    assert np.isnan(q0[1:]).all() and np.isnan(qpi[1:]).all()
    want = [scalar_pair(*scalar_readout(row, m, PI / 4)) for row, m in zip(rho, models)]
    assert as_reprs(q0, qpi) == as_reprs(*zip(*want))
    chain = [measure_pair(row, m, PI / 4) for row, m in zip(rho, models)]
    assert as_reprs(*zip(*chain)) == as_reprs(*zip(*want))
    # the B = 1 chain gives the same NaN row and NaN pair, with no exception
    data = _measure(rho[2], models[2], -2, None, PI / 4, "exact", 1_000_000, 0)
    assert np.isnan(data.series).all()
    pair = measured_invariants(data)
    assert np.isnan(pair.q0) and np.isnan(pair.qpi)


def test_shots_readout_keeps_the_draw_order_bit_for_bit():
    rng = np.random.default_rng(32)
    unreadable = 0
    for case in range(12):
        t = int(rng.integers(5, 20))
        system = ScatteringSystem.for_steps(*rng.uniform(0, 2 * PI, 2), t)
        model = ApparatusModel(*replace(RANGES, loss_asymmetry=0.05).draw(rng, 1)[0].tolist())
        shots = int(rng.choice([50, 1000, 100_000]))
        rho = readout_rho(model_windows(system, _params([model]), t))[0]
        mags, signs, reference = scalar_readout(rho, model, PI / 4, "shots", shots, case)
        kw = dict(mode="shots", shots=shots, seed=case)
        try:
            for m in signs:
                relative_sign(m.i_h, m.i_v, m.alpha)
        except AmbiguousSign:  # few photons: a pair may count equal or zero
            unreadable += 1
            data = emulate_measurement(system, t, model, **kw)
            assert np.array_equal(data.magnitudes, mags)
            assert np.isnan(data.series).all()
            pair = measured_invariants(data)
            assert np.isnan(pair.q0) and np.isnan(pair.qpi)
            continue
        data = emulate_measurement(system, t, model, **kw)
        assert np.array_equal(data.magnitudes, mags)
        assert data.reference_sign == reference
        assert as_reprs(data.series) == as_reprs(reconstruct_series(mags, signs, reference))
        pair = measured_invariants(data)
        assert as_reprs([pair.q0], [pair.qpi]) == as_reprs(*zip(scalar_pair(mags, signs,
                                                                            reference)))
    assert 0 < unreadable < 12


# ------------------------------------------- batch reductions, walker by walker

def test_mc_distances_equal_the_per_walker_form_bit_for_bit():
    """`_distances` reads every walker on a cut of the whole history, the
    observed sites or those of them in the probe's cone -1 +- horizon, as
    `_mc_batch` cuts it, and overwrites the cut; the per-walker form reads
    each walker's `evolve` window on those sites, zero off it.  On batches
    whose walkers end on windows of different widths and first rows,
    against observed windows at each of those windows, at record's window,
    offset from it, narrower and wider, they agree as reprs and leave the
    history as it was."""
    rng = np.random.default_rng(33)
    for t in (3, 12, 20):
        run = mixed_windows(t)
        x_min, h, v = run
        lo, hi = record_windows(h, v)[-1]
        windows = evolve_windows(MIXED_START, None, mixed_angles(), -1, H, t)
        assert (lo, hi) == union_window(run, windows)
        spans = {(first - x_min, a.shape[1]) for first, a, _ in windows}
        assert len({w for _, w in spans}) > 1 and len({i for i, _ in spans}) > 1
        before = h.copy(), v.copy()
        loss = rng.uniform(-0.05, 0.05, (len(windows), 1))
        width = hi - lo + 1
        for first, w in sorted(spans) + [(lo, width), (lo - 2, width), (lo + 2, width - 5),
                                         (lo - 1, width + 2), (0, h.shape[1])]:
            assert 0 <= first and first + w <= h.shape[1]
            observed = rng.uniform(0, 1, (t + 1, w))
            for horizon in (1, t // 2, t):
                want = distances(observed, x_min + first, windows, loss, horizon)
                cone = max(first, -1 - horizon - x_min)
                for lo_cut, hi_cut in ((first, first + w),
                                       (cone, max(min(first + w, horizon - x_min), cone))):
                    cut = (x[:horizon + 1, lo_cut:hi_cut].copy() for x in (h, v))
                    got = _distances(observed, lo_cut - first, *cut, loss, Workspace())
                    assert as_reprs(got) == as_reprs(want)
        assert np.array_equal(h, before[0]) and np.array_equal(v, before[1])


def test_readout_slice_equals_each_walkers_own_window():
    """rho is one slice of the V history at x = -2, and it equals V at -2 of
    every walker's `evolve` window, whatever its width and first row, bit
    for bit up to the sign of exact zeros."""
    for t in (0, 3, 20):
        run = mixed_windows(t)
        x_min, _, v = run
        windows = evolve_windows(MIXED_START, None, mixed_angles(), -1, H, t)
        assert np.array_equal(v[1:, -2 - x_min], readout_rho(windows).T)


def test_mc_batch_equals_the_per_walker_forms_in_any_split():
    """Distance, Q0 and Qpi of each model, as reprs, from the whole batch and
    from every walker's `evolve` window, and the same whichever way the
    models are split into batches."""
    rng = np.random.default_rng(34)
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    data = emulate_measurement(system, 11, ApparatusModel(loss_asymmetry=0.02))
    wide = ErrorRanges(loss_asymmetry=0.1, eom_error=np.radians(10.0),
                       sbc_error=np.radians(10.0), efficiency_span=0.5)
    params = wide.draw(rng, 60)
    got = _mc_batch(system, data, 7, params, Workspace())
    windows = model_windows(system, params, 11)
    q0, qpi = invariant_rows(_readout(readout_rho(windows), params, PI / 4)[1])
    want = distances(data.distributions, data.x_min, windows, params[:, _LOSS, None], 7)
    assert as_reprs(*got.T) == as_reprs(want, q0, qpi)
    for cuts in ([1], [17, 18], [59], list(range(1, 60))):
        parts = [_mc_batch(system, data, 7, block, Workspace())
                 for block in np.split(params, cuts)]
        assert as_reprs(*np.concatenate(parts).T) == as_reprs(*got.T)


# ------------------------------------------------------------- Monte Carlo

def test_error_range_draws_respect_their_bounds():
    ranges = RANGES
    rng = np.random.default_rng(0)
    for m in (ApparatusModel(*row) for row in ranges.draw(rng, 200).tolist()):
        assert 1.0 - ranges.efficiency_span <= m.efficiency_h <= 1.0
        assert 1.0 - ranges.efficiency_span <= m.efficiency_v <= 1.0
        assert abs(m.loss_asymmetry) <= ranges.loss_asymmetry
        assert abs(m.eom_error) <= ranges.eom_error
        assert abs(m.sbc_error) <= ranges.sbc_error
    # five uniforms per model, in field order, as scalar draws take them
    one_by_one = np.random.default_rng(1)
    want = [ApparatusModel(
        efficiency_h=1.0 - one_by_one.uniform(0.0, ranges.efficiency_span),
        efficiency_v=1.0 - one_by_one.uniform(0.0, ranges.efficiency_span),
        loss_asymmetry=one_by_one.uniform(-ranges.loss_asymmetry, ranges.loss_asymmetry),
        eom_error=one_by_one.uniform(-ranges.eom_error, ranges.eom_error),
        sbc_error=one_by_one.uniform(-ranges.sbc_error, ranges.sbc_error),
    ) for _ in range(50)]
    got = ranges.draw(np.random.default_rng(1), 50)
    assert got.shape == (50, 5)
    assert [ApparatusModel(*row) for row in got.tolist()] == want


def test_monte_carlo_recovers_an_injected_loss():
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    truth = ApparatusModel(loss_asymmetry=0.02)
    data = emulate_measurement(system, 11, truth)
    res = monte_carlo_errorbars(data, system, RANGES, n_sets=300, horizon=MC["horizon"], seed=3)
    assert abs(res.best.loss_asymmetry - truth.loss_asymmetry) < 0.015
    assert res.distance < 1e-4
    assert 0.0 < res.q0_error < 0.2 and 0.0 < res.qpi_error < 0.2
    assert res.n_sets == 300 and res.horizon == 7


def test_monte_carlo_on_clean_data_finds_a_near_identity_model():
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    data = emulate_measurement(system, 11)
    res = monte_carlo_errorbars(data, system, RANGES, n_sets=120, horizon=MC["horizon"], seed=1)
    assert abs(res.best.loss_asymmetry) < 0.01
    assert res.distance < 1e-5


def test_monte_carlo_refuses_observed_positions_off_the_record_window():
    """At t = 11 the models record the positions [-28, 27); observed
    intensities on positions past either end are refused, naming both
    spans, and a window on exactly those positions is fitted."""
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    data = emulate_measurement(system, 11)
    for x_min, width in ((-29, 20), (data.x_min, 60), (20, 8)):
        off = replace(data, x_min=x_min, distributions=np.ones((12, width)))
        spans = f"[{x_min}, {x_min + width}) are not inside the models' record window [-28, 27)"
        with pytest.raises(ValueError, match=re.escape(spans)):
            monte_carlo_errorbars(off, system, RANGES, n_sets=4, horizon=7, seed=0)
    whole = replace(data, x_min=-28, distributions=np.ones((12, 55)))
    assert monte_carlo_errorbars(whole, system, RANGES, n_sets=4, horizon=7, seed=0).n_sets == 4


def test_monte_carlo_needs_enough_recorded_steps():
    system = one_coin_sample(0.52, 5)
    data = emulate_measurement(system, 5)
    with pytest.raises(ValueError, match="recorded steps"):
        monte_carlo_errorbars(data, system, RANGES, n_sets=MC["n_sets"], horizon=7, seed=0)
