"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a single `[criterion N] PASS/FAIL` line to the real
terminal (bypassing capture) before asserting, so a full run always
shows the scoreboard.  Tolerances are pinned; none of them are tuned to
the implementation.
"""

import numpy as np
import pytest

from qwtopo import (
    AmbiguousSign,
    ApparatusModel,
    DisorderSpec,
    InvariantPair,
    ScatteringSystem,
    disorder_curve,
    emulate_measurement,
    ensemble_r0,
    invariants,
    line_pairs,
    localization_vs_disorder,
    measured_invariants,
    monte_carlo_errorbars,
    reflection_amplitudes,
    sample_pattern,
    scan_line,
    transition_locator,
)
from qwtopo.edges import run_interface
from qwtopo.scattering import fourier_sums
from qwtopo.walk import H, V

from defaults import P_GRID, RANGES
from references import p_loc_at
from scanlines import flip_width, sign_flips
from stepping import (CoinField, SplitStepProtocol, WalkerState, double_step_equivalent,
                      evolve, split_step)

PI = np.pi
SEED = 20260814

CASE1 = dict(theta_a=1.68 * PI, theta_b=1.36 * PI)
CASE2 = dict(theta_a=0.63 * PI, theta_b=1.26 * PI)


def report(capfd, n: int, ok: bool, detail: str):
    with capfd.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def test_criterion_1_clean_scan_signs_and_sharpening(capfd):
    """Anchor angles on the theta2 = 2*theta1 line at t=5, plus
    finite-size sharpening of the transition by t=50.

    The gap closings on this line split it into sixths of [0, 2pi) with
    sign patterns (-,-), (-,+), (+,+), (-,-), (+,-), (+,+).  0.73pi sits
    in a same-sign phase, 0.90pi near the double closing at pi, and
    1.5pi in the middle of the opposite-sign phase (4pi/3, 5pi/3).
    theta1 -> theta1 + pi maps r_j -> (-1)^j r_j, so 1.12pi (the image
    of 0.12pi, since 2.24pi = 0.24pi mod 2pi) reads the swapped pair of
    0.12pi.
    """
    anchors = scan_line(line_pairs("theta2=2*theta1",
                                   np.array([0.12, 0.73, 0.90, 1.12, 1.50]) * PI), 5)
    p12, p73, p90, p112, p150 = map(InvariantPair, anchors.q0, anchors.qpi, anchors.residual)
    same_73 = np.sign(p73.q0) == np.sign(p73.qpi)
    inter_90 = 0.05 < min(abs(p90.q0), abs(p90.qpi)) < 0.45
    opposite_150 = np.sign(p150.q0) != np.sign(p150.qpi)
    image_112 = (abs(p112.q0 - p12.qpi) < 1e-12
                 and abs(p112.qpi - p12.q0) < 1e-12)

    fine = np.arange(0.60, 0.7401, 0.005) * PI
    s5 = scan_line(line_pairs("theta2=2*theta1", fine), 5)
    s50 = scan_line(line_pairs("theta2=2*theta1", fine), 50)
    w5 = flip_width(fine, s5.q0, s5.qpi, sign_flips(fine, s5.q0, s5.qpi)[0])
    w50 = flip_width(fine, s50.q0, s50.qpi, sign_flips(fine, s50.q0, s50.qpi)[0])
    sharpened = w5 >= 3 * w50

    ok = same_73 and inter_90 and opposite_150 and image_112 and sharpened
    report(capfd, 1, ok,
           f"0.73pi same-sign={same_73}, 0.90pi intermediate={inter_90}, "
           f"width ratio {w5 / w50:.1f}, 1.5pi opposite-sign={opposite_150} "
           f"(Q0={p150.q0:+.4f}, Qpi={p150.qpi:+.4f}), "
           f"1.12pi = swapped 0.12pi={image_112}")
    assert same_73, f"0.73pi: expected same signs, got {p73.q0:+.4f}, {p73.qpi:+.4f}"
    assert inter_90, f"0.90pi: expected intermediate magnitudes, got " \
                     f"{p90.q0:+.4f}, {p90.qpi:+.4f}"
    assert sharpened, f"t=50 width {w50:.4f} not 3x below t=5 width {w5:.4f}"
    assert opposite_150, \
        f"1.5pi: expected opposite signs, got {p150.q0:+.4f}, {p150.qpi:+.4f}"
    assert image_112, \
        f"1.12pi: expected the swapped 0.12pi pair ({p12.qpi:+.4f}, " \
        f"{p12.q0:+.4f}), got {p112.q0:+.4f}, {p112.qpi:+.4f}"


def test_criterion_2_invariants_quantize_on_converged_samples(capfd):
    """20 random clean samples with residual < 0.01 at t=100 all land
    within 0.02 of (1/2, 1/2) in magnitude."""
    rng = np.random.default_rng(7)
    errors = []
    tried = 0
    while len(errors) < 20 and tried < 2000:
        th1, th2 = rng.uniform(0.0, 2.0 * PI, size=2)
        tried += 1
        series = reflection_amplitudes(ScatteringSystem.for_steps(th1, th2, 100), 100)
        if series.residual >= 0.01:
            continue
        pair = invariants(series)
        errors.append(max(abs(abs(pair.q0) - 0.5), abs(abs(pair.qpi) - 0.5)))
    worst = max(errors) if errors else float("inf")
    ok = len(errors) == 20 and worst < 0.02
    report(capfd, 2, ok,
           f"20 converged samples from {tried} draws, worst error {worst:.4f}")
    assert len(errors) == 20
    assert worst < 0.02


def test_criterion_3_uniform_invariant_survives_disorder(capfd):
    """theta_A=1.68pi vs theta_B=1.36pi: ensemble mean stays at +1/2
    with small spread across the whole disorder range."""
    curve = disorder_curve(**CASE1, seed=SEED, t=11, n_configs=50, p_grid=P_GRID)
    worst_mean = max(abs(res.mean - 0.5) for res in curve)
    worst_std = max(res.std for res in curve)
    ok = worst_mean < 0.08 and worst_std < 0.05
    report(capfd, 3, ok,
           f"max |mean - 1/2| = {worst_mean:.4f} (< 0.08), "
           f"max std = {worst_std:.4f} (< 0.05)")
    assert worst_mean < 0.08
    assert worst_std < 0.05


def test_criterion_4_distinct_phases_cross_with_wide_spread(capfd):
    """theta_A=0.63pi vs theta_B=1.26pi: mean sweeps monotonically from
    -1/2 to +1/2 and mid-grid spread dwarfs the uniform case's."""
    curve1 = disorder_curve(**CASE1, seed=SEED, t=11, n_configs=50, p_grid=P_GRID)
    curve2 = disorder_curve(**CASE2, seed=SEED, t=11, n_configs=50, p_grid=P_GRID)
    means = [res.mean for res in curve2]
    monotone = all(b - a > -0.03 for a, b in zip(means, means[1:]))
    ends = means[0] < -0.4 and means[-1] > 0.4
    mid = len(P_GRID) // 2
    ratio = curve2[mid].std / curve1[mid].std
    ok = monotone and ends and ratio >= 3
    report(capfd, 4, ok,
           f"monotone={monotone}, ends {means[0]:+.3f} -> {means[-1]:+.3f}, "
           f"mid-grid std ratio {ratio:.1f} (>= 3)")
    assert monotone, f"means not monotone within 0.03: {np.round(means, 3)}"
    assert ends
    assert ratio >= 3


def test_criterion_5_transition_point_at_large_size(capfd):
    """Sign-flip bisection at t=201 with 200 configurations per probe
    lands on p_crit = 0.625 +- 0.05."""
    p_crit = transition_locator(CASE2["theta_a"], CASE2["theta_b"], SEED, t=201,
                                n_configs=200, resolution=0.025)
    ok = abs(p_crit - 0.625) <= 0.05
    report(capfd, 5, ok, f"p_crit = {p_crit:.4f} (target 0.625 +- 0.05)")
    assert abs(p_crit - 0.625) <= 0.05


def test_criterion_6_interface_mode_outlives_disorder(capfd):
    """0.52pi interface beats the same-phase reference by >= 2.5x in
    P_loc at every p, varying by < 25% relative across the grid."""
    points = localization_vs_disorder(0.52 * PI, CASE1["theta_a"],
                                      CASE1["theta_b"], SEED, 13,
                                      P_GRID, 50)
    clean = DisorderSpec.for_steps(CASE1["theta_b"], CASE1["theta_b"], 0.0, 13, 0, 1)
    reference = run_interface(CASE1["theta_a"], clean, 13, 0)
    ref_ploc = p_loc_at(reference, 13)
    means = np.array([pt.mean for pt in points])
    contrast = means.min() / ref_ploc
    variation = (means.max() - means.min()) / means.mean()
    ok = contrast >= 2.5 and variation < 0.25
    report(capfd, 6, ok,
           f"min contrast {contrast:.2f}x (>= 2.5x), "
           f"relative variation {100 * variation:.1f}% (< 25%)")
    assert contrast >= 2.5
    assert variation < 0.25


def test_criterion_7_sign_extraction_roundtrip(capfd):
    """Noiseless measurement chain reproduces the ideal invariants to
    1e-10 on 10 random clean samples; a pi/2 mixer is rejected."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        th1, th2 = rng.uniform(0.0, 2.0 * PI, size=2)
        system = ScatteringSystem.for_steps(th1, th2, 11)
        got = measured_invariants(emulate_measurement(system, 11))
        want = invariants(reflection_amplitudes(system, 11))
        worst = max(worst, abs(got.q0 - want.q0), abs(got.qpi - want.qpi))
    with pytest.raises(AmbiguousSign):
        emulate_measurement(ScatteringSystem.for_steps(0.0, 0.52 * PI, 11), 11,
                            alpha=PI / 2)
    ok = worst < 1e-10
    report(capfd, 7, ok,
           f"worst roundtrip error {worst:.2e} (< 1e-10), pi/2 mixer rejected")
    assert worst < 1e-10


def test_criterion_8_property_suite(capfd):
    """Core structural properties over random instances."""
    rng = np.random.default_rng(8)

    # evolution is unitary and strictly light-cone limited
    unitary = True
    cone = True
    for _ in range(5):
        proto = SplitStepProtocol(CoinField(-20, rng.uniform(0, 2 * PI, 41)),
                                  CoinField(-20, rng.uniform(0, 2 * PI, 41)))
        start = WalkerState.localized(0, H, x_min=-18, x_max=18)
        for j, state in enumerate(evolve(start, proto, 9)):
            unitary &= abs(state.norm_sq() - 1.0) < 1e-12
            for x in range(state.x_min, state.x_max + 1):
                if not -j - 1 <= x <= j + 1:
                    cone &= state.amplitude(x, H) == 0.0
                    cone &= state.amplitude(x, V) == 0.0

    # reflection series: purely imaginary, never more than unit weight
    imaginary = True
    bounded = True
    for _ in range(8):
        th1, th2 = rng.uniform(0.0, 2.0 * PI, size=2)
        series = reflection_amplitudes(ScatteringSystem.for_steps(th1, th2, 30), 30)
        imaginary &= np.max(np.abs(series.r.real)) < 1e-10
        bounded &= series.reflected_weight() <= 1.0 + 1e-10

    # identity first coin: odd steps dark, r(0) equals r(pi)
    spec = DisorderSpec.for_steps(CASE2["theta_a"], CASE2["theta_b"], 0.4, 21,
                                  SEED, 4)
    dark = True
    symmetric = True
    for config in range(4):
        system = ScatteringSystem(np.zeros(spec.sites), sample_pattern(spec, config).thetas)
        series = reflection_amplitudes(system, 21)
        dark &= all(series.r[j] == 0.0 for j in range(0, 21, 2))
        symmetric &= abs(fourier_sums(series.r, 0.0) - fourier_sums(series.r, PI)) < 1e-12

    # doubled formulation matches two split steps
    doubled_ok = True
    for _ in range(100):
        sites = 11
        x0 = int(rng.integers(-5, 0))
        proto = SplitStepProtocol(CoinField(x0, rng.uniform(0, 2 * PI, sites)),
                                  CoinField(x0, rng.uniform(0, 2 * PI, sites)))
        amps = rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        a, b = WalkerState(x0, amps.copy()), WalkerState(x0, amps.copy())
        for _ in range(int(rng.integers(1, 5))):
            a, b = split_step(a, proto), double_step_equivalent(b, proto)
        for x in range(b.x_min, b.x_max + 1):
            doubled_ok &= abs(a.amplitude(x, H) - b.amplitude(x, H)) <= 1e-12
            doubled_ok &= abs(a.amplitude(x, V) - b.amplitude(x, V)) <= 1e-12

    # seeded draws are bit-exact
    seeded = np.array_equal(sample_pattern(spec, 2).thetas,
                            sample_pattern(spec, 2).thetas)
    seeded &= np.array_equal(ensemble_r0(spec, 11).values,
                             ensemble_r0(spec, 11).values)

    ok = unitary and cone and imaginary and bounded and dark and symmetric \
        and doubled_ok and seeded
    report(capfd, 8, ok,
           f"unitarity={unitary}, light-cone={cone}, imaginary-r={imaginary}, "
           f"weight<=1={bounded}, odd-dark={dark}, r0=rpi={symmetric}, "
           f"double-step={doubled_ok}, seeded={seeded}")
    assert ok


def test_criterion_9_monte_carlo_recovers_known_loss(capfd):
    """A synthesized 2% loss asymmetry is recovered within +-1% from
    1000 sampled models over a 7-step horizon."""
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    truth = ApparatusModel(loss_asymmetry=0.02)
    data = emulate_measurement(system, 11, truth)
    result = monte_carlo_errorbars(data, system, RANGES, n_sets=1000, horizon=7, seed=3)
    recovered = result.best.loss_asymmetry
    ok = abs(recovered - 0.02) <= 0.01
    report(capfd, 9, ok,
           f"recovered loss {recovered:+.4f} (truth +0.0200, +- 0.0100), "
           f"errorbars ({result.q0_error:.3f}, {result.qpi_error:.3f})")
    assert abs(recovered - 0.02) <= 0.01
