"""Tests for interface systems and edge-state localization."""

import numpy as np
import pytest

from qwtopo.edges import (LAUNCH_COIN, LAUNCH_SITE, LOC_WINDOW, InterfaceSystem,
                          intensity_map_export, localization_vs_disorder,
                          reference_record, run_interface)
from qwtopo.walk import V

from oracles import dense_interface_p_loc, _binary_pattern

SEED = 20260814
TH_L, TH_A, TH_B = 0.52 * np.pi, 1.68 * np.pi, 1.36 * np.pi

# frozen oracle outputs (python3 tests/oracles.py)
PLOC_P0 = 0.927301730153246
PLOC_P1 = 0.9780437038191317
PLOC_P05_MEAN = 0.9584406837935393
PLOC_P05_FIRST3 = [0.937843097026395, 0.9605426150668745, 0.9729287562826263]
PLOC_REFERENCE = 0.26613482314967135


def interface(p: float, n_configs: int = 50) -> InterfaceSystem:
    return InterfaceSystem.for_steps(TH_L, TH_A, TH_B, p, 13, SEED, n_configs)


def test_launch_convention_is_pinned():
    assert LAUNCH_SITE == -1
    assert LAUNCH_COIN == V
    assert LOC_WINDOW == 3


def test_field_covers_both_bulks():
    system = interface(0.0)
    field = system.field2_angles(system.uniforms([0]), extent=4)[0]  # x = -4 .. 14
    assert field[0] == pytest.approx(TH_L)
    assert field[3] == pytest.approx(TH_L)
    assert field[4] == pytest.approx(TH_A)
    assert field[-1] == pytest.approx(TH_A)
    assert field.size == 4 + 15  # the sampled right bulk ends at x = 14


def test_zero_steps_keeps_walker_in_window():
    record = run_interface(interface(0.0), t=0)
    assert record.p_loc == pytest.approx(1.0, abs=0)


def test_distributions_normalized_every_step():
    record = run_interface(interface(0.5), t=13, config=3)
    sums = record.distributions.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_clean_interface_matches_frozen_golden_value():
    record = run_interface(interface(0.0), t=13)
    assert record.p_loc == pytest.approx(PLOC_P0, abs=1e-12)
    final = record.distributions[-1]
    peak = record.positions()[int(np.argmax(final))]
    assert -3 <= peak <= 3


def test_full_swap_interface_matches_frozen_golden_value():
    record = run_interface(interface(1.0), t=13)
    assert record.p_loc == pytest.approx(PLOC_P1, abs=1e-12)


def test_disordered_interface_matches_dense_oracle():
    system = interface(0.5)
    for config in range(3):
        got = run_interface(system, t=13, config=config).p_loc
        pattern = _binary_pattern(SEED, config, 15, 0.5, TH_A, TH_B)
        assert got == pytest.approx(dense_interface_p_loc(TH_L, pattern), abs=1e-12)
        assert got == pytest.approx(PLOC_P05_FIRST3[config], abs=1e-12)


def test_reference_interface_spreads_into_double_lobe():
    record = reference_record(TH_A, TH_B, t=13)
    assert record.p_loc == pytest.approx(PLOC_REFERENCE, abs=1e-12)
    final = record.distributions[-1]
    positions = record.positions()
    peak = positions[int(np.argmax(final))]
    assert abs(peak) > 3
    # ballistic fronts escape on both sides; the V launch favors the left one
    left = final[positions < -LOC_WINDOW].sum()
    right = final[positions > LOC_WINDOW].sum()
    assert left + right > 0.7
    assert left > 0.5 and right > 0.03


def test_disorder_does_not_change_the_localized_shape_much():
    base = run_interface(interface(0.0), t=13).distributions[-1]
    noisy = run_interface(interface(0.5), t=13, config=0).distributions[-1]
    assert np.sum(np.abs(base / base.sum() - noisy / noisy.sum())) < 0.3


def test_localization_curve_endpoints_are_single_runs():
    points = localization_vs_disorder(TH_L, TH_A, TH_B, SEED, t=13,
                                      p_grid=(0.0, 0.5, 1.0), n_configs=50)
    assert [pt.n_configs for pt in points] == [1, 50, 1]
    assert points[0].std == 0.0 and points[2].std == 0.0
    assert points[0].mean == pytest.approx(PLOC_P0, abs=1e-12)
    assert points[1].mean == pytest.approx(PLOC_P05_MEAN, abs=1e-12)
    assert points[2].mean == pytest.approx(PLOC_P1, abs=1e-12)


def test_every_configuration_localizes():
    points = localization_vs_disorder(TH_L, TH_A, TH_B, SEED, t=13,
                                      p_grid=(0.3, 0.7), n_configs=50)
    for pt in points:
        assert np.all(pt.values > 0.8)
        assert pt.std < 0.05 * pt.mean


def test_interface_beats_reference_for_all_p():
    reference = reference_record(TH_A, TH_B, t=13).p_loc
    points = localization_vs_disorder(TH_L, TH_A, TH_B, SEED, t=13, n_configs=20)
    means = [pt.mean for pt in points]
    assert all(m >= 2.5 * reference for m in means)
    assert (max(means) - min(means)) / max(means) < 0.25


def test_runs_are_reproducible():
    a = run_interface(interface(0.5), t=13, config=4)
    b = run_interface(interface(0.5), t=13, config=4)
    assert np.array_equal(a.distributions, b.distributions)


def test_intensity_map_export_shapes():
    record = run_interface(interface(0.0), t=6)
    positions, matrix = intensity_map_export(record)
    assert matrix.shape == (7, positions.size)
    assert positions[0] == record.x_min
    assert np.all(matrix >= 0)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        run_interface(interface(0.0), t=-1)
