"""Tests for reflection series and the invariant pair.

Golden numbers were produced by the dense-matrix oracle in oracles.py
(run `python3 tests/oracles.py`) and frozen here.
"""

import math

import numpy as np
import pytest

import qwtopo.walk
from qwtopo.scattering import (LINE_FREE, LINE_GREEN, LINE_TURQUOISE,
                               DegenerateGauge, InvariantPair, ReflectionSeries,
                               ScatteringSystem, invariants, phase_diagram,
                               phase_labels, reflection_amplitudes,
                               reflection_matrix_element, reflection_rows,
                               reflection_window, scan_line, _scan_rows)
from qwtopo.walk import batches, held

from oracles import dense_invariants, dense_reflection

# frozen oracle outputs
ONE_COIN_PI4_R = [0j, -0.7071067811865475j, 0j, -0.3535533905932738j]
CLEAN_035_074_R_IMAG = [0.0, -0.7289686274214114, -0.4175298808152863,
                        0.2007863573034751, -0.0792806682463068,
                        0.06806876734893996, -0.11076120748537525,
                        0.13824436248906646]
INV_168 = (0.4992675506109971, 0.4992675506109971)
INV_063 = (-0.49941303014718924, -0.49941303014718924)
INV_052_T100 = (-0.4999331591613096, -0.4999331591613096)
INV_168_168_T30 = (0.4995055710428553, 0.2760111225314904)
SCAN_073 = (0.4934940884581558, 0.49666735032782267)
SCAN_090 = (0.3799863709973135, 0.5190361669055076)
SCAN_112 = (-0.44477569854467763, -0.504944743686617)


def clean_identity_first(theta2: float, t: int) -> ReflectionSeries:
    system = ScatteringSystem.for_steps(0.0, theta2, t)
    return reflection_amplitudes(system, t)


# --- system construction -------------------------------------------------------

def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        ScatteringSystem(np.zeros(0), np.zeros(0))


def test_mismatched_fields_rejected():
    with pytest.raises(ValueError):
        ScatteringSystem(np.zeros(3), np.zeros(4))


def test_for_steps_covers_light_cone():
    system = ScatteringSystem.for_steps(0.1, 0.2, 11)
    assert system.sites == 13


def test_angles_reduced_mod_two_pi():
    system = ScatteringSystem.clean(2.52 * np.pi, -0.3 * np.pi, 4)
    assert system.theta1[0] == pytest.approx(0.52 * np.pi)
    assert system.theta2[0] == pytest.approx(1.7 * np.pi)


# --- reflection series ---------------------------------------------------------

def test_lead_only_system_never_reflects():
    series = reflection_amplitudes(ScatteringSystem.clean(0.0, 0.0, 8), 12)
    assert np.all(series.r == 0)


def test_first_return_of_one_coin_sample():
    series = clean_identity_first(np.pi / 4, 4)
    assert np.allclose(series.r, ONE_COIN_PI4_R, atol=1e-15)
    assert series.r[0] == 0
    assert abs(series.r[1] - (-1j * np.sin(np.pi / 4))) < 1e-15


def test_two_coin_series_matches_frozen_oracle():
    system = ScatteringSystem.clean(0.35 * np.pi, 0.74 * np.pi, 10)
    series = reflection_amplitudes(system, 8)
    assert np.allclose(series.r.imag, CLEAN_035_074_R_IMAG, atol=1e-13)
    assert series.max_abs_real() == 0.0


def test_series_matches_dense_oracle_on_random_systems():
    """Also: every series is i * rho, so the oracle's per-series gauge
    reads the same invariants as the fixed -i rotation, to the last bit."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        t = int(rng.integers(3, 13))
        sites = int(rng.integers(1, t + 3))
        th1 = rng.uniform(0, 2 * np.pi, sites)
        th2 = rng.uniform(0, 2 * np.pi, sites)
        series = reflection_amplitudes(ScatteringSystem(th1, th2), t)
        want = dense_reflection(th1, th2, t)
        assert np.allclose(series.r, want, atol=1e-13)
        pair = invariants(series)
        assert (pair.q0, pair.qpi) == dense_invariants(series.r)


def package_reflection(theta1, theta2, t):
    return reflection_amplitudes(ScatteringSystem(theta1, theta2), t).r


@pytest.mark.parametrize("reflect", [package_reflection, dense_reflection],
                         ids=["package", "oracle"])
@pytest.mark.parametrize("coin, sign", [(0, 1.0), (1, -1.0)],
                         ids=["theta1", "theta2"])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_coin_shift_by_pi_alternates_series(reflect, coin, sign, seed):
    """theta1 + pi gives r_j -> (-1)^j r_j, so (Q0, Qpi) -> (Qpi, Q0);
    theta2 + pi gives r_j -> -(-1)^j r_j, so (Q0, Qpi) -> (-Qpi, -Q0)."""
    t = 30
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, (2, t + 2))
    r = reflect(*angles, t)
    angles[coin] += np.pi
    parity = (-1.0) ** np.arange(1, t + 1)
    assert np.max(np.abs(r)) > 0.1
    assert np.allclose(reflect(*angles, t), sign * parity * r, rtol=0, atol=1e-12)


def test_odd_steps_vanish_when_first_coin_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(5):
        series = reflection_amplitudes(
            ScatteringSystem(np.zeros(9), rng.uniform(0, 2 * np.pi, 9)), 12)
        assert np.all(series.r[::2] == 0)  # r_1, r_3, ... are exactly zero
        r0 = reflection_matrix_element(series, 0.0)
        rpi = reflection_matrix_element(series, np.pi)
        assert r0 == rpi


def test_skip_identity_fast_path_is_exact():
    """Alone, an identity coin 1 is skipped; next to a row with theta1 != 0
    the batch applies it to both rows.  The bits must not change."""
    system = ScatteringSystem(np.zeros(10), np.linspace(0.2, 5.9, 10))
    other = ScatteringSystem(np.full(10, 0.7), np.linspace(0.2, 5.9, 10))
    alone = reflection_rows([system], 14)[0]
    batched = reflection_rows([system, other], 14)
    assert np.max(np.abs(alone)) > 0.1
    assert np.array_equal(alone, batched[0])
    assert not np.array_equal(batched[0], batched[1])


def test_recording_longer_does_not_change_amplitudes():
    system = ScatteringSystem.clean(0.35 * np.pi, 0.74 * np.pi, 8)
    long = reflection_amplitudes(system, 16)
    short = reflection_amplitudes(system, 7)
    assert np.array_equal(long.head(7).r, short.r)
    with pytest.raises(ValueError):
        long.head(17)


def test_reflected_weight_bounded_by_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sites = int(rng.integers(1, 12))
        system = ScatteringSystem(rng.uniform(0, 2 * np.pi, sites),
                                  rng.uniform(0, 2 * np.pi, sites))
        series = reflection_amplitudes(system, 40)
        assert series.reflected_weight() <= 1 + 1e-10
        assert series.max_abs_real() < 1e-10


def test_strong_reflector_converges_by_t100():
    series = clean_identity_first(0.52 * np.pi, 100)
    assert series.reflected_weight() > 0.99


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        reflection_amplitudes(ScatteringSystem.clean(0.1, 0.2, 3), -1)


# --- Fourier element -----------------------------------------------------------

def test_matrix_element_of_zero_series_vanishes():
    series = ReflectionSeries(np.zeros(6, dtype=complex))
    for eps in (0.0, 0.4, np.pi):
        assert reflection_matrix_element(series, eps) == 0


def test_matrix_element_sum_and_alternating_sum():
    r = np.array([0.1j, -0.2j, 0.3j])
    series = ReflectionSeries(r)
    assert reflection_matrix_element(series, 0.0) == pytest.approx(0.2j)
    # j = 1, 2, 3 -> signs -, +, -
    assert reflection_matrix_element(series, np.pi) == pytest.approx(-0.6j)
    generic = reflection_matrix_element(series, 0.7)
    want = sum(np.exp(1j * 0.7 * j) * rj for j, rj in zip((1, 2, 3), r))
    assert generic == pytest.approx(want)


def test_single_even_pulse_has_equal_elements():
    series = ReflectionSeries(np.array([0, -0.5j]))
    assert reflection_matrix_element(series, 0.0) == -0.5j
    assert reflection_matrix_element(series, np.pi) == -0.5j


# --- invariants ----------------------------------------------------------------

def test_deep_phase_sample_quantizes_positive():
    pair = invariants(clean_identity_first(1.68 * np.pi, 50))
    assert pair.q0 == pytest.approx(INV_168[0], abs=1e-12)
    assert pair.qpi == pytest.approx(INV_168[1], abs=1e-12)
    assert abs(pair.q0 - 0.5) < 0.02 and abs(pair.qpi - 0.5) < 0.02


def test_other_phase_sample_quantizes_negative():
    pair = invariants(clean_identity_first(0.63 * np.pi, 50))
    assert pair.q0 == pytest.approx(INV_063[0], abs=1e-12)
    assert abs(pair.q0 + 0.5) < 0.02 and abs(pair.qpi + 0.5) < 0.02


def test_reference_sample_converges_to_minus_half():
    pair = invariants(clean_identity_first(0.52 * np.pi, 100))
    assert pair.q0 == pytest.approx(INV_052_T100[0], abs=1e-12)
    assert abs(pair.q0 - (-0.5)) < 0.02


def test_two_coin_bulk_matches_oracle():
    system = ScatteringSystem.clean(1.68 * np.pi, 1.68 * np.pi, 32)
    pair = invariants(reflection_amplitudes(system, 30))
    assert pair.q0 == pytest.approx(INV_168_168_T30[0], abs=1e-12)
    assert pair.qpi == pytest.approx(INV_168_168_T30[1], abs=1e-12)


def test_auto_gauge_requires_nonzero_r0():
    with pytest.raises(DegenerateGauge):
        invariants(ReflectionSeries(np.zeros(5, dtype=complex)))


def test_invariant_signs_helper():
    assert InvariantPair(0.5, -0.5, 0.0).signs() == (1, -1)


def test_residual_reported_on_pair():
    series = clean_identity_first(0.52 * np.pi, 100)
    pair = invariants(series)
    assert pair.residual == pytest.approx(series.residual)
    assert pair.residual < 0.01


# --- scans and the phase diagram -----------------------------------------------

def test_scan_frozen_anchors_on_factor_two_line():
    result = scan_line(LINE_TURQUOISE, 5,
                       grid=np.array([0.73, 0.90, 1.12]) * np.pi)
    got = [(p.pair.q0, p.pair.qpi) for p in result.points]
    for (gq0, gqpi), (wq0, wqpi) in zip(got, (SCAN_073, SCAN_090, SCAN_112)):
        assert gq0 == pytest.approx(wq0, abs=1e-12)
        assert gqpi == pytest.approx(wqpi, abs=1e-12)
    # frozen values agree with the dense oracle by construction; re-derive one
    assert dense_invariants(dense_reflection(np.full(7, 0.73 * np.pi),
                                             np.full(7, 1.46 * np.pi), 5)) == \
        pytest.approx(SCAN_073, abs=1e-13)


def test_scan_green_line_pairs_angles_correctly():
    result = scan_line(LINE_GREEN, 4, grid=np.array([0.3 * np.pi]))
    point = result.points[0]
    assert point.theta1 == pytest.approx(0.6 * np.pi)
    assert point.theta2 == pytest.approx(0.3 * np.pi)


def test_scan_free_pairs_and_degenerate_flag():
    pairs = [(0.0, 0.0), (0.0, 1.68 * np.pi)]
    result = scan_line(LINE_FREE, 10, pairs=pairs)
    assert result.points[0].degenerate  # lead-only point: no reflection at all
    assert not result.points[1].degenerate


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_line(LINE_FREE, 5)
    with pytest.raises(ValueError):
        scan_line(LINE_TURQUOISE, 5)
    with pytest.raises(ValueError):
        scan_line("diagonal", 5, grid=np.array([0.3]))


def test_transitions_sharpen_with_time():
    grid = np.arange(0.60, 0.7401, 0.005) * np.pi
    coarse = scan_line(LINE_TURQUOISE, 5, grid=grid)
    fine = scan_line(LINE_TURQUOISE, 20, grid=grid)
    closing = 2 * np.pi / 3
    assert len(coarse.transitions) == 1
    assert len(fine.transitions) == 1
    assert abs(coarse.transitions[0] - closing) < 0.05 * np.pi
    assert abs(fine.transitions[0] - closing) < 0.015 * np.pi
    w_coarse = coarse.transition_width(closing)
    w_fine = fine.transition_width(closing)
    assert w_fine > 0
    assert w_coarse / w_fine >= 3.0


def test_transition_width_far_from_any_flip_is_zero():
    grid = np.arange(1.60, 1.6401, 0.005) * np.pi  # deep inside one phase
    result = scan_line(LINE_GREEN, 20, grid=grid)
    assert result.transition_width(1.62 * np.pi) == 0.0


def reference_label(q0, qpi, tolerance):
    """The phase label of one cell, read pair by pair."""
    if math.isnan(q0) or math.isnan(qpi) or min(abs(q0), abs(qpi)) < 0.5 - tolerance:
        return "boundary"
    return ("+" if q0 > 0 else "-") + ("+" if qpi > 0 else "-")


def test_phase_labels():
    nan = float("nan")
    q0 = np.array([nan, 0.5, -0.5, 0.5, -0.5])
    qpi = np.array([nan, 0.5, 0.49, 0.3, nan])
    assert phase_labels(q0, qpi, 0.05).tolist() == \
        ["boundary", "++", "-+", "boundary", "boundary"]
    assert phase_labels(q0.reshape(5, 1), qpi.reshape(5, 1), 0.05).shape == (5, 1)


def reference_cell(theta1, theta2, t):
    """(Q0, Qpi, residual) of one clean cell through the scalar chain, or
    None where its gauge is degenerate."""
    system = ScatteringSystem.for_steps(theta1, theta2, t)
    try:
        pair = invariants(reflection_amplitudes(system, t))
    except DegenerateGauge:
        return None
    return pair.q0, pair.qpi, pair.residual


def cell_repr(q0, qpi, residual):
    values = (float(q0), float(qpi), float(residual))
    if any(math.isnan(v) for v in values):
        assert all(math.isnan(v) for v in values)
        return repr(None)
    return repr(values)


def test_array_pass_matches_the_scalar_invariants_bit_for_bit(monkeypatch):
    """Scans and phase diagrams read every cell in one array pass per
    batch; each cell must equal the scalar `invariants` chain to the last
    bit, NaN exactly where that chain raises DegenerateGauge."""
    t = 13
    monkeypatch.setattr(qwtopo.walk, "BATCH_BUDGET", 64 * held(reflection_window(t), t))
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-2 * np.pi, 4 * np.pi, (150, 2))
    assert len(batches(pairs, held(reflection_window(t), t))) == 3
    pairs[:6] = [(0.0, 0.0), (2 * np.pi, -2 * np.pi), (0.0, np.pi), (np.pi, np.pi),
                 (0.0, 1.68 * np.pi), (0.3 * np.pi, 0.3 * np.pi)]
    want = [repr(reference_cell(th1, th2, t)) for th1, th2 in pairs]
    assert want[:4] == [repr(None)] * 4 and want.count(repr(None)) == 4
    assert [cell_repr(*row) for row in _scan_rows(pairs, t, map)] == want
    scan = scan_line(LINE_FREE, t, pairs=pairs)
    assert [repr(None if p.pair is None else (p.pair.q0, p.pair.qpi, p.pair.residual))
            for p in scan.points] == want

    pd = phase_diagram(resolution=8, t=12, tolerance=0.05)
    c = pd.theta1
    assert np.array_equal(c, pd.theta2)
    # cells on theta1 = theta2 and on theta1 + theta2 = pi and 3 pi
    assert c[2] + c[1] == pytest.approx(np.pi) and c[5] + c[6] == pytest.approx(3 * np.pi)
    for i in range(8):
        for j in range(8):
            cell = (pd.q0[i, j], pd.qpi[i, j], pd.residual[i, j])
            assert cell_repr(*cell) == repr(reference_cell(c[i], c[j], 12))
            assert pd.labels[i, j] == reference_label(float(pd.q0[i, j]),
                                                      float(pd.qpi[i, j]), 0.05)

    # the labelling rule on every read cell plus exact zeros and thresholds
    q0 = np.concatenate([pd.q0.ravel(), [p.pair.q0 if p.pair else np.nan
                                         for p in scan.points],
                         [0.0, -0.0, 0.45, -0.45, 0.45, 0.5]])
    qpi = np.concatenate([pd.qpi.ravel(), [p.pair.qpi if p.pair else np.nan
                                           for p in scan.points],
                          [0.0, 0.0, -0.45, 0.45, 0.4499999999999999, -0.0]])
    for tolerance in (0.05, 0.3, 0.5):
        assert phase_labels(q0, qpi, tolerance).tolist() == \
            [reference_label(a, b, tolerance) for a, b in zip(q0.tolist(), qpi.tolist())]


def test_phase_diagram_structure():
    pd = phase_diagram(resolution=16, t=30, tolerance=0.05)
    # the cell just below the diagonal near theta = 1.68 pi is in the (+,+) phase
    assert pd.theta1[13] == pytest.approx(1.6875 * np.pi)
    assert pd.labels[13, 12] == "++"
    # the equal-angle diagonal closes the pi gap, so those cells stay boundary
    assert pd.labels[13, 13] == "boundary"
    labels = set(pd.labels.ravel().tolist())
    assert labels == {"--", "-+", "+-", "++", "boundary"}


def test_phase_diagram_resolution_floor():
    with pytest.raises(ValueError):
        phase_diagram(resolution=4, t=10)
