"""Batching never changes a result.

Every study splits its walkers into `budget.batches` of at most
`budget.BATCH_BUDGET` float64 elements.  The engine and the read-outs work
walker by walker, so one walker per batch, the default budget and all
walkers in one batch must give the same bits.
"""

import tracemalloc

import numpy as np
import pytest

import qwtopo.budget
import qwtopo.scattering
import qwtopo.walk
from qwtopo import (ApparatusModel, ScatteringSystem, emulate_measurement,
                    monte_carlo_errorbars)
from qwtopo.apparatus import _mc_batch, _model_coins, _readout
from qwtopo.disorder import DisorderSpec, ensemble_r0, transition_locator
from qwtopo.edges import localization_vs_disorder
from qwtopo.scattering import invariant_rows, phase_diagram, scan_line

from defaults import DIAGRAM, RANGES

PI = np.pi

#: One walker per batch, a few, the default, and every walker in one batch.
BUDGETS = {"one walker": 1, "a few walkers": 5000, "default": qwtopo.budget.BATCH_BUDGET,
           "one batch": 10**12}


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _studies() -> dict:
    """Byte strings of every batched study, small enough to run at any budget."""
    out = {}
    # two batches at the default budget
    pd = phase_diagram(resolution=45, t=12, tolerance=DIAGRAM["tolerance"])
    out["phase_diagram"] = b"".join(_bits(a) for a in (pd.q0, pd.qpi, pd.residual)) \
        + "".join(pd.labels.ravel()).encode()
    rng = np.random.default_rng(5)
    scan = scan_line(rng.uniform(0, 2 * PI, (40, 2)), 9)
    out["scan_line"] = b"".join(_bits(a) for a in (scan.theta1, scan.theta2, scan.q0,
                                                    scan.qpi, scan.residual))
    spec = DisorderSpec.for_steps(0.63 * PI, 1.26 * PI, 0.6, 15, seed=9, n_configs=30)
    out["ensemble_r0"] = _bits(ensemble_r0(spec, 15).values)
    out["transition_locator"] = repr(transition_locator(
        spec.theta_a, spec.theta_b, spec.seed, t=101, n_configs=24, resolution=0.125)).encode()
    edge = localization_vs_disorder(0.52 * PI, 1.68 * PI, 1.36 * PI, seed=4, t=9,
                                    p_grid=(0.0, 0.4, 1.0), n_configs=12)
    out["localization_vs_disorder"] = b"".join(_bits(r.values) for r in edge)
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    data = emulate_measurement(system, 11, ApparatusModel(loss_asymmetry=0.02))
    out["monte_carlo_errorbars"] = repr(monte_carlo_errorbars(
        data, system, RANGES, n_sets=30, horizon=7, seed=3)).encode()
    return out


def _widest(module, widths):
    real_steps = module.real_steps

    def counted(coin1, coin2, *args, **kwargs):
        widths.append(coin2[0].shape[0])
        return real_steps(coin1, coin2, *args, **kwargs)
    return counted


def _traced(run):
    """(result, peak bytes) of run() under tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batching_never_changes_a_result(monkeypatch):
    results, widths = {}, {}
    for name, budget in BUDGETS.items():
        seen = widths[name] = []
        with monkeypatch.context() as patch:
            patch.setattr(qwtopo.budget, "BATCH_BUDGET", budget)
            for module in (qwtopo.walk, qwtopo.scattering):
                patch.setattr(module, "real_steps", _widest(module, seen))
            results[name] = _studies()
    # the budgets really batch differently, up to all 2025 phase-diagram cells
    assert max(widths["one walker"]) == 1
    assert max(widths["one batch"]) == 2025
    calls = [len(widths[name]) for name in BUDGETS]
    assert calls == sorted(calls, reverse=True) and len(set(calls)) == len(calls)
    for name in BUDGETS:
        for study, value in results[name].items():
            assert value == results["default"][study], (name, study)


@pytest.mark.parametrize("t", (11, 30, 201))
def test_held_counts_what_the_engine_allocates(t):
    """A traced batch of 64 walkers allocates `budget.held` float64 elements
    per walker, within 10 %, on both lattices the engine runs on:
    `sample_rows` on its reflection window and `record` with its history,
    each with coin 1 the identity, passed as no coin-1 angles (the window's
    rows), and random (the doubled lattice).  The coins are made before."""
    theta = qwtopo.walk.coins(np.random.default_rng(2).uniform(0, 2 * PI, (64, t + 2)))
    reflection, cone = qwtopo.budget.reflection_window(t), qwtopo.budget.cone_window(t)
    for theta1, identity in ((None, True), (theta, False)):
        runs = ((lambda: qwtopo.scattering.sample_rows(theta1, theta, t),
                 qwtopo.budget.held(reflection, t, identity_coin1=identity)),
                (lambda: qwtopo.walk.record(0, theta1, theta, -1, qwtopo.walk.H, t),
                 qwtopo.budget.held(cone, t, history=True, identity_coin1=identity)))
        for run, held in runs:
            assert 0.95 <= _traced(run)[1] / 8 / 64 / held <= 1.1, (identity, held)


@pytest.mark.parametrize("t, horizon, models", ((11, 7, 64), (400, 400, 8)))
def test_a_fit_batch_holds_what_fit_held_counts(monkeypatch, t, horizon, models):
    """A traced Monte-Carlo fit batch of `models` models allocates
    `budget.fit_held` float64 elements per model, within 10 %, on the data
    its run emulates: the engine's buffer and read-out, the history cut to
    the probe's cone over steps 0 .. horizon, the blocks `_distances`
    compares, and beside them the read-out's arrays (`budget.readout_held`).
    So does the batch `walk.over_batches` runs in the workspace it sizes,
    the way `monte_carlo_errorbars` runs it, with the budget raised where
    one model would exceed it, so that one batch holds every model.  At t =
    400 and horizon 400, one more copy of a model's history on the observed
    window would add more than half; 8 models keep the traced batch near 60
    MB."""
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, t)
    data = emulate_measurement(system, t, ApparatusModel(loss_asymmetry=0.02))
    params = RANGES.draw(np.random.default_rng(1), models)
    held = qwtopo.budget.fit_held(t, horizon)
    monkeypatch.setattr(qwtopo.budget, "BATCH_BUDGET",
                        max(qwtopo.budget.BATCH_BUDGET, models * held))
    # imports and caches outside the peak
    _mc_batch(system, data, 1, params[:1], qwtopo.walk.Workspace())
    runs = (lambda: _mc_batch(system, data, horizon, params, qwtopo.walk.Workspace()),
            lambda: qwtopo.walk.over_batches(
                lambda block, workspace: _mc_batch(system, data, horizon, block, workspace),
                params, held, beside=qwtopo.budget.readout_held(t)))
    for run in runs:
        assert 0.95 <= _traced(run)[1] / 8 / models / held <= 1.1


def test_reading_a_fit_batch_holds_at_most_readout_arrays_rows():
    """`apparatus._readout`, beside the series it reads, and
    `scattering.invariant_rows`, with the signed series it reads, each peak
    at no more than `budget.READOUT_ARRAYS` (models, t) float64 arrays, the
    rows `budget.readout_held` counts beside a fit batch's workspace.  Traced
    on the series of the fit's models at t = 11 with a shipped batch of 334
    models, at t = 60 and 200 with 64 and at t = 400 with 8: arrays of 25 KB
    or more, so the interpreter's few KB of noise stay under a tenth of one.
    The count is the widest peak rounded up, not a looser bound."""
    peaks = []
    for t, models in ((11, 334), (60, 64), (200, 64), (400, 8)):
        system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, t)
        params = RANGES.draw(np.random.default_rng(t), models)
        rho = qwtopo.scattering.sample_rows(*_model_coins(system, params), t)
        _readout(rho[:1], params[:1], PI / 4)  # imports and caches outside the peak
        series, readout = _traced(lambda: _readout(rho, params, PI / 4)[1])
        reader = _traced(lambda: invariant_rows(series))[1] + series.nbytes
        peaks += [readout / series.nbytes, reader / series.nbytes]
    assert max(peaks) <= qwtopo.budget.READOUT_ARRAYS < max(peaks) + 1, peaks


def test_the_column_pad_is_all_the_budget_leaves_out():
    """The engine pads a batch of 64 walkers or more to a multiple of 8
    buffer columns, which `budget.held` leaves out.  Traced at t = 201 with
    coin 1 the identity: 65 walkers, the largest share of pad, hold one
    walker's `held` and 7 buffer columns more than 64 walkers, 7/65 of
    their buffer over the budget; 63 walkers hold one `held` less, unpadded.
    Within 128 elements, numpy's cache of small arrays."""
    t = 201
    sites = qwtopo.budget.reflection_window(t)
    held = qwtopo.budget.held(sites, t, identity_coin1=True)
    column = 9 * ((sites + 3) // 2)  # one walker's buffer
    peaks = {}
    for walkers in (63, 64, 65):
        theta = qwtopo.walk.coins(np.random.default_rng(2).uniform(0, 2 * PI, (walkers, t + 2)))
        peaks[walkers] = _traced(lambda: qwtopo.scattering.sample_rows(None, theta, t))[1] / 8
    assert abs(peaks[64] - peaks[63] - held) <= 128
    assert abs(peaks[65] - peaks[64] - held - 7 * column) <= 128
