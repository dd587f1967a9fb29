"""Tests for seeded disorder ensembles and the transition locator."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from qwtopo import budget, disorder, scattering, walk
from qwtopo import config as cfgmod
from qwtopo.cli import entrypoint
from qwtopo.dataio import read_csv
from qwtopo.disorder import (DisorderSpec, NoCrossing, coin_table, config_uniforms,
                             disorder_curve, ensemble_r0, pattern_coins, sample_pattern,
                             transition_locator)
from qwtopo.scattering import (ScatteringSystem, fourier_sums, invariants,
                               reflection_amplitudes)
from qwtopo.walk import coins

from defaults import P_GRID, TRANSITION
from oracles import (EXACT_K, _binary_pattern, dense_reflection, exact_disorder_stats,
                     pattern_half_r0)

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
        DisorderSpec(0.1, 0.2, 1.3, 10, 0, 1)
    with pytest.raises(ValueError, match="empty"):
        DisorderSpec(0.1, 0.2, 0.5, 0, 0, 1)
    with pytest.raises(ValueError, match="configuration"):
        DisorderSpec(0.1, 0.2, 0.5, 10, 0, n_configs=0)


def test_for_steps_sizes_sample_to_light_cone():
    assert case1_spec(0.5, t=11).sites == 13


def test_default_grid_matches_study_density():
    assert P_GRID == tuple(i / 10 for i in range(11))


def site_uniforms(seed: int, config: int, sites: int) -> np.ndarray:
    """The uniform stream of one configuration."""
    return config_uniforms(seed, [config], sites)[0]


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
    spec = replace(spec, p=1.0)
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
        flipped = sample_pattern(replace(base, p=p), 0).thetas == 1.0
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
    return (-1j * complex(fourier_sums(reflection_amplitudes(system, t).r, 0.0))).real / 2


def test_ensemble_frozen_statistics():
    result = ensemble_r0(case1_spec(0.5), 11)
    assert result.n_configs == 50
    assert result.mean == pytest.approx(CASE1_P05_MEAN, abs=1e-12)
    assert result.std == pytest.approx(CASE1_P05_STD, abs=1e-12)


def test_ensemble_values_equal_per_config_runs_bit_for_bit(monkeypatch):
    """A study thresholds one drawn block of uniforms; each value must be
    the half r(0) of that configuration's own system, stepped on its own,
    at every probe of a bisection and along a disorder curve, whose probes
    share one `PatternStudy`.  The p of each block of masks is the grid p
    whose threshold of the drawn uniforms gives that block."""
    probes, steps = [], {}  # steps: study -> its t
    values, ensemble_of = disorder.PatternStudy.values, disorder._ensemble

    def recording(study, masks):
        result = values(study, masks)
        probes.extend((block, got, steps[study]) for block, got in zip(masks, result))
        return result

    def tagged(theta_a, theta_b, seed, t, n_configs):
        uniforms, study = ensemble_of(theta_a, theta_b, seed, t, n_configs)
        steps[study] = t
        return uniforms, study

    monkeypatch.setattr(disorder.PatternStudy, "values", recording)
    monkeypatch.setattr(disorder, "_ensemble", tagged)
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.0, 11, SEED, 30)
    disorder.transition_locator(CASE2["theta_a"], CASE2["theta_b"], SEED, t=101, n_configs=30,
                                resolution=0.05)
    disorder.disorder_curve(spec.theta_a, spec.theta_b, SEED, 11, 30, p_grid=(0.3, 0.7))
    ensemble_r0(replace(spec, p=0.5), 11)
    assert len(probes) >= 8
    grid = [k * 0.05 for k in range(21)]
    found = set()
    for block, result, t in probes:
        uniforms = config_uniforms(SEED, range(30), budget.sample_width(t))
        p = next(p for p in grid if np.array_equal(block, uniforms < p))
        found.add((t, p))
        probe = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], p, t, SEED, 30)
        want = [single_run_half_r0(probe, k, t) for k in range(probe.n_configs)]
        assert [repr(v) for v in result.tolist()] == [repr(v) for v in want]
    assert len({p for t, p in found if t == 101}) >= 5


def test_ensemble_is_deterministic_and_order_independent():
    """Two runs give the same values; the order of the batches cannot change
    them, as `tests/test_batches.py` checks for every batch split and
    `test_a_study_equals_per_member_stepping_in_any_order_and_split` for
    every member order."""
    spec = case1_spec(0.5)
    a = ensemble_r0(spec, 11)
    b = ensemble_r0(spec, 11)
    assert np.array_equal(a.values, b.values)


def test_clean_endpoints_match_invariant_pipeline():
    for p, theta in ((0.0, CASE1["theta_a"]), (1.0, CASE1["theta_b"])):
        result = ensemble_r0(case1_spec(p), 11)
        assert result.std == 0.0
        clean = ScatteringSystem.for_steps(0.0, theta, 11)
        pair = invariants(reflection_amplitudes(clean, 11))
        assert abs(result.mean - pair.q0) < 1e-12


def test_disorder_curve_spans_grid():
    curve = disorder_curve(**CASE1, seed=SEED, t=11, n_configs=50, p_grid=(0.0, 0.5, 1.0))
    assert [c.p for c in curve] == [0.0, 0.5, 1.0]
    assert all(c.n_configs == 50 for c in curve)


def test_same_phase_ensemble_stays_near_half():
    curve = disorder_curve(**CASE1, seed=SEED, t=11, n_configs=50, p_grid=P_GRID)
    for result in curve:
        assert abs(result.mean - 0.5) < 0.08
        assert result.std < 0.05


def test_crossing_ensemble_interpolates_between_phases():
    curve = disorder_curve(**CASE2, seed=SEED, t=11, n_configs=50, p_grid=P_GRID)
    means = [c.mean for c in curve]
    assert means[0] < -0.4 and means[-1] > 0.4
    assert all(b - a > -0.03 for a, b in zip(means, means[1:]))


def test_transition_locator_finds_crossing():
    p_crit = transition_locator(CASE2["theta_a"], CASE2["theta_b"], SEED, t=101, n_configs=40,
                                resolution=0.05)
    assert 0.45 <= p_crit <= 0.8


def test_transition_locator_rejects_same_phase_pair():
    with pytest.raises(NoCrossing):
        transition_locator(CASE1["theta_a"], CASE1["theta_b"], SEED, t=101, n_configs=20,
                           resolution=0.1)


def test_transition_locator_validates_arguments():
    with pytest.raises(ValueError, match="t >= 101"):
        transition_locator(CASE1["theta_a"], CASE1["theta_b"], SEED, t=51,
                           n_configs=TRANSITION["n_configs"],
                           resolution=TRANSITION["resolution"])


def _stepwise_bisection(p_crit, resolution):
    """The brackets and probes of the bisection as its loop ran before it
    had one midpoint rule: the stop test, then the midpoint, then the
    strictly-inside test, each written out, against a crossing at p_crit."""
    lo, hi, probes = 0.0, 1.0, []
    while hi - lo > resolution * (1 + 1e-9):
        mid = round((0.5 * (lo + hi)) / resolution) * resolution
        if not lo < mid < hi:
            break
        probes.append((lo, hi, mid))
        lo, hi = (lo, mid) if mid >= p_crit else (mid, hi)
    return probes, (lo, hi)


@pytest.mark.parametrize("resolution", (1 / 64, 0.025, 0.3, 0.5))
def test_the_midpoint_rule_stops_where_the_stepwise_loop_stopped(resolution):
    """On every bracket the old loop probed, `_midpoint` gives its probe, and
    None on the bracket where it stopped, for crossings all over [0, 1]; the
    look-ahead probe of the first call is `_midpoint` of [0, 1]."""
    for p_crit in np.linspace(0.0, 1.0, 97):
        probes, last = _stepwise_bisection(p_crit, resolution)
        assert [disorder._midpoint(lo, hi, resolution) for lo, hi, _ in probes] == \
            [mid for _, _, mid in probes]
        assert disorder._midpoint(*last, resolution) is None
    mid = round(0.5 / resolution) * resolution
    ahead = mid if 1.0 > resolution * (1 + 1e-9) and 0.0 < mid < 1.0 else None
    assert disorder._midpoint(0.0, 1.0, resolution) == ahead


def test_ensemble_rejects_zero_steps():
    with pytest.raises(ValueError):
        ensemble_r0(case1_spec(0.5), 0)


def test_config_uniforms_equal_a_fresh_generator_for_every_stream():
    """One Philox re-keyed per configuration draws the bits that a new
    Generator on Philox(key=[seed mod 2**64, config]) draws, also where
    the seed or the index reaches 2**63 and the key takes numpy's float64
    conversion."""
    seeds = (0, SEED, 2**32 + 1, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 5, -1, -2**63)
    configs = [0, 1, 7, 199, 2**31, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1]
    with np.errstate(invalid="ignore"):  # numpy's own key conversion warns there
        for seed in seeds:
            got = config_uniforms(seed, configs, 40)
            for row, config in zip(got, configs):
                assert np.array_equal(row, fresh_uniforms(seed, config, 40))
    assert np.array_equal(config_uniforms(SEED, range(200), 33),
                          [fresh_uniforms(SEED, k, 33) for k in range(200)])


def fresh_uniforms(seed, config, sites):
    """A stream drawn by a new Generator, as the module documents it."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), config])).random(sites)


def study_masks(kind: str, rng) -> np.ndarray:
    """(members, 6) masks: all equal, all distinct, or few patterns repeated."""
    if kind == "equal":
        return np.repeat(rng.random((1, 6)) < 0.5, 20, axis=0)
    if kind == "distinct":
        return (np.arange(40)[:, None] >> np.arange(6) & 1).astype(bool)
    return rng.random((4, 6))[rng.integers(0, 4, 30)] < 0.5


@pytest.mark.parametrize("kind", ["equal", "distinct", "repeated"])
@pytest.mark.parametrize("capacity", [1, 3, None])
def test_a_study_equals_per_member_stepping_in_any_order_and_split(kind, capacity):
    """Every member gets, as reprs, the value its pattern gives stepped on
    its own, whatever the member order, the batch split and the split of
    the members into blocks and calls."""
    rng = np.random.default_rng(len(kind) + (capacity or 0))
    masks = study_masks(kind, rng)
    per_walker = budget.BATCH_BUDGET // capacity if capacity else 1
    a, b = np.array([CASE2["theta_a"], CASE2["theta_b"]]) % (2 * np.pi)

    def alone(row):
        return float(disorder._ensemble_batch(coins(np.where(row, b, a)[None]), 11,
                                               walk.Workspace())[0])

    for order in (np.arange(len(masks)), rng.permutation(len(masks))):
        members = masks[order]
        study = disorder.PatternStudy(CASE2["theta_a"], CASE2["theta_b"],
                                      lambda coin2, workspace: disorder._ensemble_batch(
                                          coin2, 11, workspace),
                                      per_walker)
        half = len(members) // 2
        got = study.values([members[:3], members[3:half]])
        got += study.values([members[half:]])
        want = [alone(row) for row in members]
        assert [repr(v) for v in np.concatenate(got).tolist()] == [repr(v) for v in want]
        assert len(study.stepped) == len({row.tobytes() for row in masks})


def spy_real_steps(monkeypatch, module) -> list:
    """The (B, sites) second coins, cosines and sines, of every `real_steps`
    call of `module`."""
    calls = []
    real_steps = module.real_steps

    def spying(coin1, coin2, *args, **kwargs):
        calls.append(tuple(x.copy() for x in coin2))
        return real_steps(coin1, coin2, *args, **kwargs)

    monkeypatch.setattr(module, "real_steps", spying)
    return calls


def spy_masks(monkeypatch) -> list:
    """Every member mask row passed to `PatternStudy.values`."""
    rows = []
    values = disorder.PatternStudy.values

    def spying(study, masks):
        rows.extend(row for block in masks for row in block)
        return values(study, masks)

    monkeypatch.setattr(disorder.PatternStudy, "values", spying)
    return rows


@pytest.mark.parametrize("study", ["transition", "curve"])
def test_each_distinct_pattern_of_a_study_is_stepped_exactly_once(monkeypatch, study):
    calls = spy_real_steps(monkeypatch, scattering)
    masks = spy_masks(monkeypatch)
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.0, 11, SEED, 40)
    if study == "transition":
        transition_locator(spec.theta_a, spec.theta_b, SEED, t=101, n_configs=40,
                           resolution=0.05)
    else:
        disorder_curve(spec.theta_a, spec.theta_b, SEED, 11, 40, P_GRID)
    stepped = [(c.tobytes(), s.tobytes()) for coin2 in calls for c, s in zip(*coin2)]  # x >= 0
    (ca, cb), (sa, sb) = coins(np.array([CASE2["theta_a"], CASE2["theta_b"]]) % (2 * np.pi))
    patterns = {(np.where(row, cb, ca).tobytes(), np.where(row, sb, sa).tobytes())
                for row in masks}
    assert len(stepped) == len(set(stepped)) == len(patterns)
    assert set(stepped) == patterns
    assert len(masks) > len(patterns)  # members share patterns


def test_the_transition_endpoints_and_first_midpoint_run_as_one_first_call(monkeypatch):
    """The first engine call steps the pattern of p = 0 and that of p = 1, in
    its first two columns, then the patterns of the first midpoint,
    round(0.5 / resolution) * resolution, in the order its members first
    show them; every later call steps at most n_configs walkers."""
    calls = spy_real_steps(monkeypatch, scattering)
    transition_locator(CASE2["theta_a"], CASE2["theta_b"], SEED, t=101, n_configs=40,
                       resolution=0.05)
    first = np.array(calls[0])  # cosines, sines
    table = np.array(coins(np.array([CASE2["theta_a"], CASE2["theta_b"]]) % (2 * np.pi)))
    assert np.all(first[:, 0] == table[:, :1])
    assert np.all(first[:, 1] == table[:, 1:])
    uniforms = config_uniforms(SEED, range(40), budget.sample_width(101))
    masks = uniforms < round(0.5 / 0.05) * 0.05
    mid = masks[np.sort(np.unique(masks, axis=0, return_index=True)[1])]
    assert first.shape[1] == 2 + len(mid) > 2
    assert np.array_equal(first[:, 2:], table[:, mid.astype(int)])
    assert all(c.shape[0] <= 40 for c, _ in calls[1:])


@pytest.mark.parametrize("seed", [0, 7])
def test_the_bench_transition_makes_six_engine_calls(monkeypatch, seed):
    """The `ensemble` benchmark's bisection, t = 201 over 200 configurations
    at resolution 1/64: one call for both endpoints and the first midpoint,
    202 walkers, then one for each of the 5 later probes, at most 200."""
    calls = spy_real_steps(monkeypatch, scattering)
    transition_locator(CASE2["theta_a"], CASE2["theta_b"], seed, t=201, n_configs=200,
                       resolution=1 / 64)
    assert [c.shape[0] for c, _ in calls[:1]] == [202]
    assert len(calls) == 6 and all(c.shape[0] <= 200 for c, _ in calls[1:])


def test_no_crossing_names_the_median_signs_at_both_endpoints(monkeypatch):
    """A same-phase pair raises NoCrossing with both endpoint medians; the
    first midpoint, stepped with them, was stepped in vain."""
    calls = spy_real_steps(monkeypatch, scattering)
    with pytest.raises(NoCrossing) as raised:
        transition_locator(CASE1["theta_a"], CASE1["theta_b"], SEED, t=101, n_configs=20,
                           resolution=0.1)
    assert str(raised.value) == "median sign is +1.00 at p=0.0 and +1.00 at p=1.0"
    assert len(calls) == 1 and calls[0][0].shape[0] == 22


def reprs(values) -> list:
    return [repr(v) for v in np.asarray(values).tolist()]


def per_row_keyed(study_batch, table, masks: list) -> list:
    """The value of every member of each block, each distinct row keyed by
    its bytes and stepped once on its own, in a dict shared by the blocks."""
    stepped = {}
    for row in (row for block in masks for row in block):
        if row.tobytes() not in stepped:
            stepped[row.tobytes()] = float(study_batch(pattern_coins(table, row[None]), None)[0])
    return [[stepped[row.tobytes()] for row in block] for block in masks]


def test_values_key_blocks_as_a_per_row_keyed_reference():
    """Blocks keyed in one array pass give, as reprs, what keying each row by
    its bytes gives: random blocks with repeated rows of 6 and of 13 sites,
    whose packed bits end mid-byte, and the all-equal blocks of p = 0 and
    p = 1, over two calls that share patterns."""
    rng = np.random.default_rng(3)
    for sites, t in ((6, 11), (13, 24)):
        study = disorder._ensemble(CASE2["theta_a"], CASE2["theta_b"], SEED, t, 1)[1]
        u = rng.random((12, sites))[rng.integers(0, 12, 60)]
        calls = [[u[:25] < 0.0, u[:25] < 0.4, u[:25] < 1.0],
                 [u[25:] < 0.4, u < 1.0, u[10:40] < 0.7, u[:5] < 0.0]]
        table = coin_table(CASE2["theta_a"], CASE2["theta_b"])
        for masks in calls:
            got = study.values(masks)
            want = per_row_keyed(study.batch, table, masks)
            assert [reprs(v) for v in got] == [[repr(v) for v in w] for w in want]


@pytest.mark.parametrize("name", ["disorder_crossing.json", "disorder_same_phase.json"])
def test_a_shipped_curve_lies_within_four_standard_errors_of_the_exact_one(tmp_path, name):
    """At t = 11 an ensemble sees 6 sample sites, so its infinite ensemble is
    a weighted sum over 64 patterns, stepped here by the dense oracle.  At
    every p the sampled mean of half r(0) and the fraction of members above
    0 lie within 4 standard errors, sqrt(variance / n), of the exact values,
    or within 1e-9 of them where the exact variance is 0."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    with open(path, encoding="utf-8") as fh:
        blk = json.load(fh)["disorder"]
    assert blk["t"] == 11
    assert entrypoint(["run", "--config", path, "--out", str(tmp_path)]) == 0
    patterns = pattern_half_r0(blk["theta_a_pi"] * np.pi, blk["theta_b_pi"] * np.pi)
    members, summary = ([[float(v) for v in row] for row in read_csv(str(tmp_path / table))[1]]
                        for table in ("disorder_runs.csv", "disorder_summary.csv"))
    assert [row[0] for row in summary] == blk["p_grid"]
    for p, mean, _, n, _ in summary:
        above = np.mean([row[2] > 0 for row in members if row[0] == p])
        for sampled, (exact, variance) in zip((mean, above), exact_disorder_stats(patterns, p)):
            bound = 4 * math.sqrt(variance / n) if variance > 0 else 1e-9
            assert abs(sampled - exact) <= bound, (p, sampled, exact, variance)


def half_r0_rounding_bound(t: int) -> float:
    """The most that rounding can move a t-step ensemble member's half r(0)
    from that of exact arithmetic on the coins the engine stores.

    Each rho_j errs by at most EXACT_K j eps (`oracles.EXACT_K`): the bound's
    derivation is site by site, so it holds for a disordered coin field as
    for a clean one, and with the stored coins counted as exact it has their
    rounding to spare.  Stored coins give c^2 + s^2 = 1 within 2 eps, so over
    t steps the exact walk's norm, the read-out weight sum rho_j^2 and any
    carried error grow by a factor (1 + eps)^t at most, inside the factor
    1 + 1e-9 of EXACT_K.  `disorder._halves` takes the real part of -i times
    numpy's complex sum of i rho_j, which is the float sum of the rho_j
    exactly (the real parts it adds are zeros), and halves it exactly.  Any
    order of summing t floats errs by at most gamma_{t-1} sum_j |rho_j|, with
    gamma_n = n u / (1 - n u) and u = eps / 2, and sum_j |rho_j| is at most
    sqrt(t) times the 2-norm of the float series, at most 1 + 1e-9 by the
    above.  Half of the two bounds is the bound."""
    eps = np.finfo(float).eps
    u = eps / 2
    stepped = sum(EXACT_K * j * eps for j in range(1, t + 1))
    gamma = (t - 1) * u / (1 - (t - 1) * u)
    return (stepped + gamma * math.sqrt(t) * (1 + 1e-9)) / 2


def test_every_member_of_the_shipped_transition_clears_the_rounding_bound(monkeypatch):
    """Every member of every probe of the shipped `disorder_crossing`
    transition has |half r(0)| above `half_r0_rounding_bound(t)`, about
    1e-11 at t = 201, so each member's sign, each probe's median and p_crit
    are those of exact arithmetic on the coins the engine stores.  The
    members are recounted from the values `PatternStudy.values` gives the
    bisection at each probe, and the bisection replayed on their median signs
    ends on p_crit.  The smallest |half r(0)| over the probes was 5.8e-3."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "disorder_crossing.json")
    cfg = cfgmod.resolve(cfgmod.load(path))
    blk = cfg["disorder"]
    tr = blk["transition"]
    calls = []
    values = disorder.PatternStudy.values

    def recorded(self, masks):
        calls.append(values(self, masks))
        return calls[-1]

    monkeypatch.setattr(disorder.PatternStudy, "values", recorded)
    p_crit = transition_locator(blk["theta_a_pi"] * np.pi, blk["theta_b_pi"] * np.pi,
                                cfg["seed"], **tr)
    # p = 0, p = 1 and the first midpoint in one call, then each midpoint in turn
    endpoints, probes = calls[0][:2], [v for call in calls[1:] for v in call]
    assert len(calls[0]) == 3 and np.array_equal(calls[0][2], probes[0])
    assert all(v.shape == (tr["n_configs"],) for v in endpoints + probes)
    first = np.sign(np.median(np.sign(endpoints[0])))
    lo, hi = 0.0, 1.0
    for members in probes:
        mid = disorder._midpoint(lo, hi, tr["resolution"])
        lo, hi = (mid, hi) if np.sign(np.median(np.sign(members))) == first else (lo, mid)
    assert disorder._midpoint(lo, hi, tr["resolution"]) is None
    assert 0.5 * (lo + hi) == p_crit
    bound = half_r0_rounding_bound(tr["t"])
    assert 0 < bound < 1e-10
    assert min(float(np.min(np.abs(v))) for v in endpoints + probes) > bound
