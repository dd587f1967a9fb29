"""Tests for seeded disorder ensembles and the transition locator."""

import numpy as np
import pytest

from qwtopo import disorder
from qwtopo.disorder import (DEFAULT_P_GRID, DisorderSpec, NoCrossing,
                             disorder_curve, ensemble_r0, sample_pattern,
                             site_uniforms, transition_locator)
from qwtopo.scattering import (ScatteringSystem, invariants,
                               reflection_amplitudes, reflection_matrix_element)

from oracles import _binary_pattern, dense_reflection

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


def test_half_r0_matches_dense_oracle_per_config():
    values = ensemble_r0(case1_spec(0.5, t=11), 11).values
    for config in (0, 1, 2):
        theta2 = _binary_pattern(SEED, config, 13, 0.5, CASE1["theta_a"], CASE1["theta_b"])
        want = (-1j * np.sum(dense_reflection(np.zeros(13), theta2, 11))).real / 2
        assert values[config] == pytest.approx(want, abs=1e-13)
        assert values[config] == pytest.approx(CASE1_P05_FIRST3[config], abs=1e-12)


def single_run_half_r0(spec: DisorderSpec, config: int, t: int) -> float:
    """Re(-i r(0)) / 2 of one configuration's system, stepped on its own."""
    system = ScatteringSystem(np.zeros(spec.sites), sample_pattern(spec, config).thetas)
    return (-1j * reflection_matrix_element(reflection_amplitudes(system, t), 0.0)).real / 2


def test_ensemble_frozen_statistics():
    result = ensemble_r0(case1_spec(0.5), 11)
    assert result.n_configs == 50
    assert result.mean == pytest.approx(CASE1_P05_MEAN, abs=1e-12)
    assert result.std == pytest.approx(CASE1_P05_STD, abs=1e-12)


def test_ensemble_values_equal_per_config_runs_bit_for_bit(monkeypatch):
    """An ensemble thresholds one drawn block of uniforms; each value must
    be the half r(0) of that configuration's own system, stepped on its
    own, at every probe of a bisection and along a disorder curve, whose
    probes share one block."""
    probes = []
    ensemble = disorder._ensemble_r0

    def recording(spec, t, *args):
        result = ensemble(spec, t, *args)
        probes.append((spec, result))
        return result

    monkeypatch.setattr(disorder, "_ensemble_r0", recording)
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.0, 11, SEED, 30)
    disorder.transition_locator(spec, t=101, n_configs=30, resolution=0.05)
    assert len({probe.p for probe, _ in probes}) >= 5
    disorder.disorder_curve(spec, 11, p_grid=(0.3, 0.7))
    ensemble_r0(spec.with_p(0.5), 11)
    assert len(probes) >= 8
    for probe, result in probes:
        want = [single_run_half_r0(probe, k, result.t) for k in range(probe.n_configs)]
        assert [repr(v) for v in result.values.tolist()] == [repr(v) for v in want]


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
