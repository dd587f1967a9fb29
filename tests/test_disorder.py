"""Tests for seeded disorder ensembles and the transition locator."""

import numpy as np
import pytest

from qwtopo.disorder import (DEFAULT_P_GRID, DisorderSpec, NoCrossing,
                             disorder_curve, ensemble_r0, half_r0,
                             sample_pattern, scattering_system, site_uniforms,
                             transition_locator)
from qwtopo.scattering import (ScatteringSystem, invariants,
                               reflection_amplitudes)

from oracles import dense_reflection

SEED = 20260814
CASE1 = dict(theta_a=1.68 * np.pi, theta_b=1.36 * np.pi)
CASE2 = dict(theta_a=0.63 * np.pi, theta_b=1.26 * np.pi)

# frozen oracle outputs (python3 tests/oracles.py)
CASE1_P05_MEAN = 0.5087848525842413
CASE1_P05_STD = 0.00867716722319555
CASE1_P05_FIRST3 = [0.5007814143824298, 0.5238287308562819, 0.5063193393014948]


def case1_spec(p: float, t: int = 11, n_configs: int = 50) -> DisorderSpec:
    return DisorderSpec.for_steps(CASE1["theta_a"], CASE1["theta_b"], p, t,
                                  SEED, n_configs)


def test_spec_validation():
    with pytest.raises(ValueError, match="p must lie"):
        DisorderSpec(0.1, 0.2, 1.3, 10, 0)
    with pytest.raises(ValueError, match="empty"):
        DisorderSpec(0.1, 0.2, 0.5, 0, 0)
    with pytest.raises(ValueError, match="configuration"):
        DisorderSpec(0.1, 0.2, 0.5, 10, 0, n_configs=0)


def test_for_steps_sizes_sample_to_light_cone():
    assert case1_spec(0.5, t=11).sites == 13


def test_default_grid_matches_study_density():
    assert DEFAULT_P_GRID == tuple(i / 10 for i in range(11))


def test_uniforms_are_reproducible_and_prefix_stable():
    a = site_uniforms(SEED, 3, 40)
    b = site_uniforms(SEED, 3, 40)
    assert np.array_equal(a, b)
    assert np.array_equal(site_uniforms(SEED, 3, 60)[:40], a)
    assert not np.array_equal(site_uniforms(SEED, 4, 40), a)
    assert not np.array_equal(site_uniforms(SEED + 1, 3, 40), a)


def test_pattern_endpoints_are_pure():
    spec = case1_spec(0.0)
    assert np.all(sample_pattern(spec, 7).thetas == CASE1["theta_a"] % (2 * np.pi))
    spec = spec.with_p(1.0)
    assert np.all(sample_pattern(spec, 7).thetas == CASE1["theta_b"] % (2 * np.pi))


def test_pattern_fraction_at_half_is_binomial():
    spec = DisorderSpec(0.0, 1.0, 0.5, 10_000, seed=SEED, n_configs=1)
    pattern = sample_pattern(spec, 0)
    fraction = np.mean(pattern.thetas == 1.0)
    assert abs(fraction - 0.5) < 0.015  # 3 sigma of Binomial(10000, 1/2)


def test_pattern_config_index_bounds():
    spec = case1_spec(0.5, n_configs=5)
    with pytest.raises(ValueError):
        sample_pattern(spec, 5)
    with pytest.raises(ValueError):
        sample_pattern(spec, -1)


def test_flips_grow_monotonically_with_p():
    base = DisorderSpec(0.0, 1.0, 0.2, 200, seed=SEED, n_configs=1)
    flipped_prev = None
    for p in (0.2, 0.5, 0.8):
        flipped = sample_pattern(base.with_p(p), 0).thetas == 1.0
        if flipped_prev is not None:
            assert np.all(flipped_prev <= flipped)
        flipped_prev = flipped


def test_scattering_system_first_coin_identity():
    system = scattering_system(case1_spec(0.5), 0)
    assert not np.any(system.theta1)
    series = reflection_amplitudes(system, 11)
    assert np.all(series.r[::2] == 0)


def test_half_r0_matches_dense_oracle_per_config():
    spec = case1_spec(0.5, t=11)
    for config in (0, 1, 2):
        system = scattering_system(spec, config)
        got = half_r0(system, 11)
        want = (-1j * np.sum(dense_reflection(np.zeros(13), system.theta2, 11))).real / 2
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(CASE1_P05_FIRST3[config], abs=1e-12)


def test_ensemble_frozen_statistics():
    result = ensemble_r0(case1_spec(0.5), 11)
    assert result.n_configs == 50
    assert result.mean == pytest.approx(CASE1_P05_MEAN, abs=1e-12)
    assert result.std == pytest.approx(CASE1_P05_STD, abs=1e-12)


def test_ensemble_is_deterministic_and_order_independent():
    spec = case1_spec(0.5)
    a = ensemble_r0(spec, 11)
    b = ensemble_r0(spec, 11)
    assert np.array_equal(a.values, b.values)

    def reversed_mapper(fn, tasks):
        tasks = list(tasks)
        results = [fn(task) for task in reversed(tasks)]
        return reversed(results)

    c = ensemble_r0(spec, 11, mapper=reversed_mapper)
    assert np.array_equal(a.values, c.values)


def test_clean_endpoints_match_invariant_pipeline():
    for p, theta in ((0.0, CASE1["theta_a"]), (1.0, CASE1["theta_b"])):
        result = ensemble_r0(case1_spec(p), 11)
        assert result.std == 0.0
        clean = ScatteringSystem.for_steps(0.0, theta, 11)
        pair = invariants(reflection_amplitudes(clean, 11))
        assert abs(result.mean - pair.q0) < 1e-12


def test_disorder_curve_spans_grid():
    curve = disorder_curve(case1_spec(0.3), 11, p_grid=(0.0, 0.5, 1.0))
    assert [c.p for c in curve] == [0.0, 0.5, 1.0]
    assert all(c.n_configs == 50 for c in curve)


def test_same_phase_ensemble_stays_near_half():
    curve = disorder_curve(case1_spec(0.0), 11)
    for result in curve:
        assert abs(result.mean - 0.5) < 0.08
        assert result.std < 0.05


def test_crossing_ensemble_interpolates_between_phases():
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.0, 11,
                                  SEED, 50)
    curve = disorder_curve(spec, 11)
    means = [c.mean for c in curve]
    assert means[0] < -0.4 and means[-1] > 0.4
    assert all(b - a > -0.03 for a, b in zip(means, means[1:]))


def test_transition_locator_finds_crossing():
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.0, 11,
                                  SEED, 50)
    p_crit = transition_locator(spec, t=101, n_configs=40, resolution=0.05)
    assert 0.45 <= p_crit <= 0.8


def test_transition_locator_rejects_same_phase_pair():
    spec = case1_spec(0.0, n_configs=20)
    with pytest.raises(NoCrossing):
        transition_locator(spec, t=101, n_configs=20, resolution=0.1)


def test_transition_locator_validates_arguments():
    spec = case1_spec(0.0)
    with pytest.raises(ValueError, match="t >= 101"):
        transition_locator(spec, t=51)
    with pytest.raises(ValueError, match="p_lo"):
        transition_locator(spec, t=101, p_lo=0.9, p_hi=0.2)


def test_ensemble_rejects_zero_steps():
    with pytest.raises(ValueError):
        ensemble_r0(case1_spec(0.5), 0)
