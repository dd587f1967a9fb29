"""Tests for interface walks and edge-state localization."""

import numpy as np
import pytest

from qwtopo.disorder import coin_table, config_uniforms, pattern_coins
import qwtopo.edges
from qwtopo.edges import (LAUNCH_COIN, LAUNCH_SITE, LOC_WINDOW, LocalizationRecord, _launch,
                          _ploc_batch, localization_vs_disorder, run_interface)
from qwtopo.walk import H, V, Workspace, coins

from defaults import P_GRID
from oracles import dense_interface_p_loc, _binary_pattern
from references import MIXED_START, evolve_windows, mixed_angles, mixed_windows, p_loc_at

SEED = 20260814
TH_L, TH_A, TH_B = 0.52 * np.pi, 1.68 * np.pi, 1.36 * np.pi

# frozen oracle outputs (python3 tests/oracles.py)
PLOC_P0 = 0.927301730153246
PLOC_P1 = 0.9780437038191317
PLOC_P05_MEAN = 0.9584406837935393
PLOC_P05_FIRST3 = [0.937843097026395, 0.9605426150668745, 0.9729287562826263]
PLOC_REFERENCE = 0.26613482314967135


def run(p: float, t: int = 13, config: int = 0):
    return run_interface(TH_L, TH_A, TH_B, SEED, t, p, config)


def reference(t: int = 13):
    """The study's no-edge-state reference: a clean interface between the
    left bulk TH_A and the right bulk TH_B, drawn from the same phase."""
    return run_interface(TH_A, TH_B, TH_B, 0, t, 0.0, 0)


def test_launch_convention_is_pinned():
    assert LAUNCH_SITE == -1
    assert LAUNCH_COIN == V
    assert LOC_WINDOW == 3


def test_field_covers_both_bulks(monkeypatch):
    """`walk.record` receives the coins of theta_left on x = -(t + 2) .. -1,
    then those of the right bulk's pattern on x = 0 .. t + 1, bit for bit."""
    seen = []
    record = qwtopo.edges.record

    def spying(start, coin1, coin2, *args, **kwargs):
        seen.append((start, coin1, coin2))
        return record(start, coin1, coin2, *args, **kwargs)

    monkeypatch.setattr(qwtopo.edges, "record", spying)
    run_interface(TH_L, TH_A, TH_B, SEED, t=2, p=0.5, config=1)
    (start, coin1, coin2), = seen
    pattern = _binary_pattern(SEED, 1, 4, 0.5, TH_A, TH_B)
    assert 0 < np.sum(pattern == TH_B) < 4
    field = np.concatenate([np.full(4, TH_L), pattern]) % (2 * np.pi)  # x = -4 .. 3
    assert start == -4 and coin1 is None
    assert all(np.array_equal(got, want[None]) for got, want in zip(coin2, coins(field)))


@pytest.mark.parametrize("config, p", [(1, 0.5), (7, 0.3), (49, 0.8)])
def test_run_interface_walks_the_right_bulk_of_its_configuration(config, p):
    """Configuration k != 0 at any p walks the right bulk
    np.where(u[:t + 2] < p, theta_b, theta_a), u the uniforms of
    Philox(key=[seed, k]), the draw `bench/gate.py` documents: its
    distributions are, bit for bit, those of `edges._launch` stepped on that
    bulk, which is zero outside the record's window."""
    t = 13
    u = np.random.Generator(np.random.Philox(key=[SEED, config])).random(40)
    bulk = np.where(u[:t + 2] < p, TH_B, TH_A)
    assert 0 < np.sum(bulk == TH_B) < t + 2
    x_min, h, v = _launch(TH_L, coins(bulk[None]), t)
    full = h[..., 0] ** 2 + v[..., 0] ** 2
    got = run_interface(TH_L, TH_A, TH_B, SEED, t, p, config)
    lo = got.x_min - x_min
    hi = lo + got.distributions.shape[1]
    assert np.array_equal(full[:, lo:hi], got.distributions)
    assert not full[:, :lo].any() and not full[:, hi:].any()


def test_zero_steps_keeps_walker_in_window():
    record = run(0.0, t=0)
    assert p_loc_at(record, 0) == pytest.approx(1.0, abs=0)


def test_distributions_normalized_every_step():
    record = run(0.5, t=13, config=3)
    sums = record.distributions.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_clean_interface_matches_frozen_golden_value():
    record = run(0.0, t=13)
    assert p_loc_at(record, 13) == pytest.approx(PLOC_P0, abs=1e-12)
    final = record.distributions[-1]
    peak = record.positions()[int(np.argmax(final))]
    assert -3 <= peak <= 3


def test_full_swap_interface_matches_frozen_golden_value():
    record = run(1.0, t=13)
    assert p_loc_at(record, 13) == pytest.approx(PLOC_P1, abs=1e-12)


def test_disordered_interface_matches_dense_oracle():
    for config in range(3):
        got = p_loc_at(run(0.5, t=13, config=config), 13)
        pattern = _binary_pattern(SEED, config, 15, 0.5, TH_A, TH_B)
        assert got == pytest.approx(dense_interface_p_loc(TH_L, pattern), abs=1e-12)
        assert got == pytest.approx(PLOC_P05_FIRST3[config], abs=1e-12)


def test_reference_interface_spreads_into_double_lobe():
    record = reference(t=13)
    assert p_loc_at(record, 13) == pytest.approx(PLOC_REFERENCE, abs=1e-12)
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
    base = run(0.0, t=13).distributions[-1]
    noisy = run(0.5, t=13, config=0).distributions[-1]
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
    ref_ploc = p_loc_at(reference(t=13), 13)
    points = localization_vs_disorder(TH_L, TH_A, TH_B, SEED, t=13, p_grid=P_GRID,
                                      n_configs=20)
    means = [pt.mean for pt in points]
    assert all(m >= 2.5 * ref_ploc for m in means)
    assert (max(means) - min(means)) / max(means) < 0.25


def test_runs_are_reproducible():
    a = run(0.5, t=13, config=4)
    b = run(0.5, t=13, config=4)
    assert np.array_equal(a.distributions, b.distributions)


def test_intensity_map_shapes():
    record = run(0.0, t=6)
    positions, matrix = record.positions(), record.distributions
    assert matrix.shape == (7, positions.size)
    assert positions[0] == record.x_min
    assert np.all(matrix >= 0)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        run(0.0, t=-1)


def reprs(values) -> list:
    return [repr(float(x)) for x in values]


def test_batch_p_loc_equals_the_per_walker_mask_in_any_split():
    """One sum over the rows x in [-3, 3] of the whole batch gives, as reprs,
    the P_loc that masking each configuration's own distributions gives,
    whichever way the configurations are split into batches."""
    right = pattern_coins(coin_table(TH_A, TH_B), config_uniforms(SEED, range(30), 15) < 0.5)
    got = _ploc_batch(right, TH_L, 13, Workspace())
    want = [p_loc_at(run_interface(TH_L, TH_A, TH_B, SEED, 13, 0.5, k), 13) for k in range(30)]
    assert reprs(got) == reprs(want)
    for cuts in ([1], [11, 12], [29], list(range(1, 30))):
        parts = [_ploc_batch(block, TH_L, 13, Workspace())
                 for block in zip(*(np.split(plane, cuts) for plane in right))]
        assert reprs(np.concatenate(parts)) == reprs(want)


def test_batch_p_loc_holds_on_windows_of_different_widths(monkeypatch):
    """Rows outside a walker's window hold exact zeros, so walkers whose
    `evolve` windows differ in width and first row, at t = 0 inside [-3, 3],
    still sum as each one's own mask does: the batch's history cut to the
    rows [-LOC_WINDOW, LOC_WINDOW], as `walk.record_cut` keeps it."""
    for t in (0, 1, 3, 12, 20):
        x_min, h, v = mixed_windows(t)
        rows = slice(-LOC_WINDOW - x_min, LOC_WINDOW + 1 - x_min)
        cut = None, h[:, rows], v[:, rows]
        monkeypatch.setattr(qwtopo.edges, "record_cut", lambda *args, **kwargs: cut)
        want = [p_loc_at(LocalizationRecord(a * a + b * b, x_min), t)
                for x_min, a, b in evolve_windows(MIXED_START, None, mixed_angles(), -1, H, t)]
        got = _ploc_batch(coins(np.zeros((len(want), 1))), TH_L, t, Workspace())
        assert reprs(got) == reprs(want)



def test_the_localization_study_steps_each_distinct_pattern_once(monkeypatch):
    """One record pass over all p: a spy on `walk.real_steps` sees every
    distinct right-bulk pattern of the study once, the one pattern of p = 0
    and of p = 1 among them, while each of those p keeps one row."""
    stepped = []
    real_steps = qwtopo.walk.real_steps

    def spying(coin1, coin2, *args, **kwargs):
        stepped.extend((c[t + 2:].tobytes(), s[t + 2:].tobytes()) for c, s in zip(*coin2))
        return real_steps(coin1, coin2, *args, **kwargs)

    t = 13  # the coins start at x = -(t + 2), the right bulk at x = 0
    monkeypatch.setattr(qwtopo.walk, "real_steps", spying)
    points = localization_vs_disorder(TH_L, TH_A, TH_B, SEED, t=t, p_grid=P_GRID,
                                      n_configs=50)
    assert [pt.n_configs for pt in points] == [1] + [50] * 9 + [1]
    uniforms = config_uniforms(SEED, range(50), 15)
    (ca, cb), (sa, sb) = coins(np.array([TH_A, TH_B]) % (2 * np.pi))
    patterns = {(np.where(row, cb, ca).tobytes(), np.where(row, sb, sa).tobytes())
                for pt in points for row in uniforms[:pt.n_configs] < pt.p}
    assert len(stepped) == len(set(stepped)) == len(patterns) < 452
    assert set(stepped) == patterns
