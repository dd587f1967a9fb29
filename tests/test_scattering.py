"""Tests for reflection series and the invariant pair.

Golden numbers were produced by the dense-matrix oracle in oracles.py
(run `python3 tests/oracles.py`) and frozen here.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import qwtopo.budget
from qwtopo.budget import batches, held, reflection_window
from qwtopo.cli import entrypoint
from qwtopo.dataio import read_csv
from qwtopo.walk import coins
from qwtopo.scattering import (LINE_GREEN, LINE_TURQUOISE, ReflectionSeries, ScatteringSystem,
                               fourier_sums, invariants, line_pairs, phase_diagram,
                               phase_labels, reflection_amplitudes, sample_rows, scan_line,
                               _scan_rows)

from oracles import (EXACT_K, clean_series, closed_form_phase, dense_invariants,
                     dense_reflection, exact_series, gap_line_distance)
from references import scalar_invariants
from scanlines import flip_width, sign_flips

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

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
    assert system.theta1.size == system.theta2.size == 13


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
    assert np.max(np.abs(series.r.real)) == 0.0


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
        r0 = fourier_sums(series.r, 0.0)
        rpi = fourier_sums(series.r, np.pi)
        assert r0 == rpi


def test_skip_identity_fast_path_is_exact():
    """Alone, a sample whose coin 1 is the identity runs on the window's
    rows; next to a row with theta1 != 0 the batch runs on the doubled
    lattice, which applies coin 1 to both rows.  The bits must not change."""
    theta1 = np.array([np.zeros(10), np.full(10, 0.7)])
    theta2 = np.array([np.linspace(0.2, 5.9, 10)] * 2)
    alone = sample_rows(coins(theta1[:1]), coins(theta2[:1]), 14)[0]
    batched = sample_rows(coins(theta1), coins(theta2), 14)
    assert np.max(np.abs(alone)) > 0.1
    assert np.array_equal(alone, batched[0])
    assert not np.array_equal(batched[0], batched[1])


def test_recording_longer_does_not_change_amplitudes():
    system = ScatteringSystem.clean(0.35 * np.pi, 0.74 * np.pi, 8)
    long = reflection_amplitudes(system, 16)
    short = reflection_amplitudes(system, 7)
    assert np.array_equal(long.r[:7], short.r)


def test_reflected_weight_bounded_by_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sites = int(rng.integers(1, 12))
        system = ScatteringSystem(rng.uniform(0, 2 * np.pi, sites),
                                  rng.uniform(0, 2 * np.pi, sites))
        series = reflection_amplitudes(system, 40)
        assert series.reflected_weight() <= 1 + 1e-10
        assert np.max(np.abs(series.r.real)) < 1e-10


def test_strong_reflector_converges_by_t100():
    series = clean_identity_first(0.52 * np.pi, 100)
    assert series.reflected_weight() > 0.99


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        reflection_amplitudes(ScatteringSystem.clean(0.1, 0.2, 3), -1)


# --- Fourier element -----------------------------------------------------------

def test_matrix_element_of_zero_series_vanishes():
    series = ReflectionSeries(np.zeros(6, dtype=complex))
    for eps in (0.0, np.pi):
        assert fourier_sums(series.r, eps) == 0
    assert fourier_sums(np.zeros(0, dtype=complex), 0.0) == 0


def test_matrix_element_sum_and_alternating_sum():
    r = np.array([0.1j, -0.2j, 0.3j])
    assert fourier_sums(r, 0.0) == pytest.approx(0.2j)
    # j = 1, 2, 3 -> signs -, +, -
    assert fourier_sums(r, np.pi) == pytest.approx(-0.6j)


def test_matrix_elements_exist_only_at_zero_and_pi():
    with pytest.raises(ValueError, match="0 and pi"):
        fourier_sums(np.array([0.1j, -0.2j, 0.3j]), 0.7)


def test_single_even_pulse_has_equal_elements():
    r = np.array([0, -0.5j])
    assert fourier_sums(r, 0.0) == -0.5j
    assert fourier_sums(r, np.pi) == -0.5j


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
    pair = invariants(ReflectionSeries(np.zeros(5, dtype=complex)))
    assert np.isnan(pair.q0) and np.isnan(pair.qpi)
    assert pair.residual == 1.0


def engine_series(rng, t: int, walkers: int = 12) -> list:
    """i rho of engine rows at t steps: random per-site coins, clean samples,
    binary samples with coin 1 the identity, and multiples of pi/4."""
    m = t + 2
    clean = np.repeat(rng.uniform(0, 2 * np.pi, (2, walkers, 1)), m, axis=2)
    binary = np.stack([np.zeros((walkers, m)), rng.choice([0.63 * np.pi, 1.26 * np.pi],
                                                          (walkers, m))])
    eighths = rng.integers(0, 8, (2, walkers, m)) * np.pi / 4
    out = []
    for theta1, theta2 in (rng.uniform(0, 2 * np.pi, (2, walkers, m)), clean, binary,
                           eighths):
        rho = sample_rows(coins(theta1 % (2 * np.pi)), coins(theta2 % (2 * np.pi)), t)
        out += [1j * row for row in rho]
    return out


def test_invariants_read_as_the_scalar_reference_bit_for_bit():
    """`invariants` reads one series through `invariant_rows`.  It gives the
    reprs of the complex scalar reader, NaN where |r(0)| < 1e-6, on engine
    series, on rounded series that cancel exactly, on signed zeros, on the
    threshold and on NaN, with the series' residual."""
    rng = np.random.default_rng(22)
    series = [r for t in (1, 2, 3, 7, 12, 25, 40) for r in engine_series(rng, t)]
    series += list(1j * np.round(rng.normal(size=(300, 6)), 1))
    series += [1j * np.array(rho) for rho in (
        [], [0.0], [-0.0], [-0.0, -0.0], [0.1, -0.1], [-0.1, 0.1, -0.0], [1e-6], [-1e-6],
        [0.999e-6], [0.0, 2e-6, -0.0], [np.nan, 0.1])]
    reads = []
    for r in series:
        pair, want = invariants(ReflectionSeries(r)), scalar_invariants(r)
        reads.append(repr((pair.q0, pair.qpi)))
        assert reads[-1] == repr(want)
        assert repr(pair.residual) == repr(ReflectionSeries(r).residual)
    assert 30 < reads.count(repr((math.nan, math.nan))) < len(series) - 300


def test_residual_reported_on_pair():
    series = clean_identity_first(0.52 * np.pi, 100)
    pair = invariants(series)
    assert pair.residual == pytest.approx(series.residual)
    assert pair.residual < 0.01


# --- scans and the phase diagram -----------------------------------------------

def test_scan_frozen_anchors_on_factor_two_line():
    result = scan_line(line_pairs(LINE_TURQUOISE, np.array([0.73, 0.90, 1.12]) * np.pi), 5)
    got = zip(result.q0.tolist(), result.qpi.tolist())
    for (gq0, gqpi), (wq0, wqpi) in zip(got, (SCAN_073, SCAN_090, SCAN_112), strict=True):
        assert gq0 == pytest.approx(wq0, abs=1e-12)
        assert gqpi == pytest.approx(wqpi, abs=1e-12)
    # frozen values agree with the dense oracle by construction; re-derive one
    assert dense_invariants(dense_reflection(np.full(7, 0.73 * np.pi),
                                             np.full(7, 1.46 * np.pi), 5)) == \
        pytest.approx(SCAN_073, abs=1e-13)


def test_scan_green_line_pairs_angles_correctly():
    result = scan_line(line_pairs(LINE_GREEN, np.array([0.3 * np.pi])), 4)
    assert result.theta1.tolist() == pytest.approx([0.6 * np.pi])
    assert result.theta2.tolist() == pytest.approx([0.3 * np.pi])


def test_scan_free_pairs_and_degenerate_flag():
    pairs = [(0.0, 0.0), (0.0, 1.68 * np.pi)]
    result = scan_line(pairs, 10)
    # lead-only point: no reflection at all
    assert np.isnan([result.q0[0], result.qpi[0], result.residual[0]]).all()
    assert not np.isnan([result.q0[1], result.qpi[1], result.residual[1]]).any()


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        line_pairs("diagonal", np.array([0.3]))


def test_transitions_sharpen_with_time():
    grid = np.arange(0.60, 0.7401, 0.005) * np.pi
    coarse = scan_line(line_pairs(LINE_TURQUOISE, grid), 5)
    fine = scan_line(line_pairs(LINE_TURQUOISE, grid), 20)
    closing = 2 * np.pi / 3
    coarse_flips = sign_flips(grid, coarse.q0, coarse.qpi)
    fine_flips = sign_flips(grid, fine.q0, fine.qpi)
    assert len(coarse_flips) == 1
    assert len(fine_flips) == 1
    assert abs(coarse_flips[0] - closing) < 0.05 * np.pi
    assert abs(fine_flips[0] - closing) < 0.015 * np.pi
    w_coarse = flip_width(grid, coarse.q0, coarse.qpi, closing)
    w_fine = flip_width(grid, fine.q0, fine.qpi, closing)
    assert w_fine > 0
    assert w_coarse / w_fine >= 3.0


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
    series = reflection_amplitudes(ScatteringSystem.for_steps(theta1, theta2, t), t)
    q0, qpi = scalar_invariants(series.r)
    if math.isnan(q0):
        assert math.isnan(qpi)
        return None
    return q0, qpi, series.residual


def cell_repr(q0, qpi, residual):
    values = (float(q0), float(qpi), float(residual))
    if any(math.isnan(v) for v in values):
        assert all(math.isnan(v) for v in values)
        return repr(None)
    return repr(values)


def test_array_pass_matches_the_scalar_invariants_bit_for_bit(monkeypatch):
    """Scans and phase diagrams read every cell in one array pass per
    batch; each cell must equal the scalar `invariants` chain to the last
    bit, NaN exactly where that chain gives NaN (|r(0)| < 1e-6)."""
    t = 13
    monkeypatch.setattr(qwtopo.budget, "BATCH_BUDGET", 64 * held(reflection_window(t), t))
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-2 * np.pi, 4 * np.pi, (150, 2))
    assert len(batches(pairs, held(reflection_window(t), t))) == 3
    pairs[:6] = [(0.0, 0.0), (2 * np.pi, -2 * np.pi), (0.0, np.pi), (np.pi, np.pi),
                 (0.0, 1.68 * np.pi), (0.3 * np.pi, 0.3 * np.pi)]
    want = [repr(reference_cell(th1, th2, t)) for th1, th2 in pairs]
    assert want[:4] == [repr(None)] * 4 and want.count(repr(None)) == 4
    assert [cell_repr(*row) for row in _scan_rows(pairs, t)] == want
    scan = scan_line(pairs, t)
    assert [cell_repr(*cell) for cell in zip(scan.q0, scan.qpi, scan.residual)] == want

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
    q0 = np.concatenate([pd.q0.ravel(), scan.q0, [0.0, -0.0, 0.45, -0.45, 0.45, 0.5]])
    qpi = np.concatenate([pd.qpi.ravel(), scan.qpi,
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


def test_labelled_cells_off_the_closing_lines_carry_the_closed_form_phase():
    """Every cell of the 32 x 32 and 64 x 64, t = 30 diagrams at least one
    cell width, measured perpendicular, from the closing lines
    theta1 +- theta2 = 0 or pi (mod 2 pi) carries the label of the
    closed-form oracle `closed_form_phase` or reads `boundary`.  At 64 x 64,
    112 such cells are still `boundary` at t = 30: they have not converged."""
    for resolution, unconverged, labelled in ((32, 0, 672), (64, 112, 3248)):
        pd = phase_diagram(resolution=resolution, t=30, tolerance=0.05)
        th1, th2 = np.meshgrid(pd.theta1, pd.theta2, indexing="ij")
        far = gap_line_distance(th1, th2) >= 2 * np.pi / resolution
        checked = far & (pd.labels != "boundary")
        assert np.count_nonzero(far & ~checked) == unconverged
        assert np.count_nonzero(checked) == labelled
        assert (pd.labels[checked] == closed_form_phase(th1, th2)[checked]).all()


def test_phase_diagram_resolution_floor():
    with pytest.raises(ValueError):
        phase_diagram(resolution=4, t=10, tolerance=0.05)


# --- the lattice-free clean series oracle --------------------------------------

def oracle_cells(theta1, theta2, t):
    """Q0, Qpi and residual 1 - sum_j rho_j^2 arrays of clean cells, read as
    real sums of `oracles.clean_series`, NaN where |r(0)| < 1e-6."""
    rho = clean_series(theta1, theta2, t)
    r0, rpi = rho.sum(axis=1), ((-1.0) ** np.arange(1, t + 1) * rho).sum(axis=1)
    degenerate = np.abs(r0) < 1e-6
    return [np.where(degenerate, np.nan, v)
            for v in (r0 / 2, rpi / 2, 1.0 - (rho ** 2).sum(axis=1))]


@pytest.mark.parametrize("t", [1, 2, 3, 8, 31, 120, 300])
def test_clean_series_oracle_matches_the_engine_on_random_pairs(t):
    """The oracle solves the clean walk's algebraic equation order by order,
    with no lattice; the engine's rows agree with it on random pairs, pairs
    with coin 1 the identity and pairs on the gap-closing lines."""
    pairs = np.random.default_rng(t).uniform(0, 2 * np.pi, (60, 2))
    pairs[:6] = [(0.0, 0.52 * np.pi), (0.0, 1.68 * np.pi), (0.3, 0.3), (0.3, np.pi - 0.3),
                 (np.pi / 2, np.pi / 2), (0.0, 0.0)]
    whole = [coins(np.repeat(theta[:, None], t + 2, axis=1)) for theta in pairs.T]
    got = sample_rows(*whole, t)
    want = clean_series(pairs[:, 0], pairs[:, 1], t)
    assert got.shape == want.shape == (60, t)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.all(want[:2, ::2] == 0.0)  # coin 1 the identity: odd steps dark


@pytest.mark.parametrize("name", ["scan_line_t5.json", "phase_diagram.json"])
def test_shipped_scan_tables_match_the_clean_series_oracle_cell_by_cell(tmp_path, name):
    """Every row a shipped scan or phase-diagram run writes holds the Q0, Qpi
    and residual that the oracle gives its angles, NaN in the same cells, and
    the 32 x 32 diagram's labels are those of the oracle's values."""
    config = os.path.join(CONFIG_DIR, name)
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", config, "--out", str(out)]) == 0
    (table,) = out.glob("*.csv")
    theta1_pi, theta2_pi, *got, t = np.array(read_csv(str(table))[1], dtype=float).T
    want = oracle_cells(theta1_pi * np.pi, theta2_pi * np.pi, int(t[0]))
    for column, expected in zip(got, want):
        assert np.array_equal(np.isnan(column), np.isnan(expected))
        assert np.nanmax(np.abs(column - expected)) < 1e-12
    if name == "phase_diagram.json":
        with open(config, encoding="utf-8") as fh:
            blk = json.load(fh)["phase_diagram"]
        assert blk["resolution"] == 32 and theta1_pi.size == 32 * 32
        labels = phase_diagram(blk["resolution"], blk["t"], blk["tolerance"]).labels
        assert np.array_equal(labels.ravel(), phase_labels(*want[:2], blk["tolerance"]))


def test_the_64_by_64_diagram_matches_the_clean_series_oracle_cell_by_cell():
    pd = phase_diagram(resolution=64, t=30, tolerance=0.05)
    want = oracle_cells(*np.meshgrid(pd.theta1, pd.theta2, indexing="ij"), 30)
    for got, expected in zip((pd.q0, pd.qpi, pd.residual), want):
        assert np.array_equal(np.isnan(got.ravel()), np.isnan(expected))
        assert np.nanmax(np.abs(got.ravel() - expected)) < 1e-12
    assert np.array_equal(pd.labels.ravel(), phase_labels(*want[:2], 0.05))


# --- the float-free oracle: Pythagorean coins in integers ---------------------

#: Rational coins (cos, sin): (3/5, 4/5), (5/13, 12/13) and their kin.
PYTHAGOREAN = [(Fraction(p, q), Fraction(r, q))
               for p, r, q in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                               (20, 21, 29))]

def pythagorean_walks(seed, count, longest=101):
    """count (c1, c2, t) walks of random Pythagorean coins with random signs,
    the first two at t = longest and the rest at random t <= longest; every
    second c1 is the identity, which the engine steps on its undoubled lattice."""
    rng = np.random.default_rng(seed)
    walks = []
    for k in range(count):
        c1, c2 = (PYTHAGOREAN[i] for i in rng.integers(len(PYTHAGOREAN), size=2))
        c1, c2 = ((c * sign_c, s * sign_s) for (c, s), (sign_c, sign_s)
                  in zip((c1, c2), rng.choice((-1, 1), size=(2, 2))))
        walks.append(((Fraction(1), Fraction(0)) if k % 2 else c1, c2,
                      longest if k < 2 else int(rng.integers(1, longest + 1))))
    return walks


def rounded_coin_series(c1, c2, t):
    """`sample_rows` of the clean walk with the coins c1 and c2 rounded to floats."""
    whole = [tuple(np.full((1, t + 2), float(v)) for v in pair) for pair in (c1, c2)]
    return sample_rows(None if c1 == (1, 0) else whole[0], whole[1], t)[0]


def test_the_exact_series_is_the_dense_oracle_on_pythagorean_coins():
    """The integer stepper and the dense-matrix oracle walk one walk."""
    for c1, c2, t in [(PYTHAGOREAN[0], PYTHAGOREAN[2], 16), ((1, 0), PYTHAGOREAN[3], 15)]:
        angles = [np.full(t + 2, math.atan2(s, c)) for c, s in (c1, c2)]
        want = dense_reflection(*angles, t).imag
        assert np.max(np.abs(np.array(exact_series(c1, c2, t), dtype=float) - want)) < 1e-14


def test_the_engine_errs_by_at_most_k_j_eps_on_pythagorean_coins():
    """`sample_rows` against the exact rationals: |rho_j - exact_j| <= K j eps,
    K derived from one rotation's rounding (EXACT_K), for random Pythagorean
    coins at t <= 101.  The engine's residual 1 - sum_j rho_j^2 is the exact
    one within what those errors and its own sum can move it."""
    eps = np.finfo(float).eps
    for c1, c2, t in pythagorean_walks(6, 12):
        exact = exact_series(c1, c2, t)
        got = rounded_coin_series(c1, c2, t)
        err = [float(abs(Fraction(float(x)) - e)) for x, e in zip(got, exact)]
        bound = [EXACT_K * j * eps for j in range(1, t + 1)]
        assert all(e <= b for e, b in zip(err, bound)), (c1, c2, t)
        weight = sum(e * e for e in exact)
        assert 0 <= weight <= 1
        residual = 1.0 - np.sum(got ** 2)
        moved = sum(b * (2 * abs(float(e)) + b) for b, e in zip(bound, exact)) + (t + 2) * eps / 2
        assert abs(Fraction(float(residual)) - (1 - weight)) <= moved, (c1, c2, t)


def test_the_coin_sign_maps_hold_exactly_on_pythagorean_coins():
    """theta1 -> theta1 + pi and theta1 -> -theta1, which map coin 1's (c, s)
    to (-c, -s) and (c, -s), map rho_j to (-1)^j rho_j, and the same maps of
    theta2 map it to -(-1)^j rho_j: exactly, in the rationals of
    `exact_series`, for 40 walks of random signed Pythagorean coins at t <= 40.
    A phase diagram's symmetries rest on these maps."""
    def maps(pair):
        c, s = pair
        return (-c, -s), (c, -s)

    for c1, c2, t in pythagorean_walks(35, 40, longest=40):
        rho = exact_series(c1, c2, t)
        alternating = [(-1) ** j * x for j, x in enumerate(rho, start=1)]
        for mapped in maps(c1):
            assert exact_series(mapped, c2, t) == alternating, (c1, c2, t)
        for mapped in maps(c2):
            assert exact_series(c1, mapped, t) == [-x for x in alternating], (c1, c2, t)
