"""Batching never changes a result.

Every study splits its walkers into `walk.batches` of at most
`walk.BATCH_BUDGET` float64 elements.  The engine and the read-outs work
walker by walker, so one walker per batch, the default budget and all
walkers in one batch must give the same bits.
"""

import tracemalloc

import numpy as np
import pytest

import qwtopo.scattering
import qwtopo.walk
from qwtopo import (ApparatusModel, ScatteringSystem, emulate_measurement,
                    monte_carlo_errorbars)
from qwtopo.disorder import DisorderSpec, ensemble_r0, transition_locator
from qwtopo.edges import localization_vs_disorder
from qwtopo.scattering import LINE_FREE, phase_diagram, scan_line

PI = np.pi

#: One walker per batch, a few, the default, and every walker in one batch.
BUDGETS = {"one walker": 1, "a few walkers": 5000, "default": qwtopo.walk.BATCH_BUDGET,
           "one batch": 10**12}


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _studies() -> dict:
    """Byte strings of every batched study, small enough to run at any budget."""
    out = {}
    pd = phase_diagram(resolution=40, t=12)  # two batches at the default budget
    out["phase_diagram"] = b"".join(_bits(a) for a in (pd.q0, pd.qpi, pd.residual)) \
        + "".join(pd.labels.ravel()).encode()
    rng = np.random.default_rng(5)
    scan = scan_line(LINE_FREE, 9, pairs=rng.uniform(0, 2 * PI, (40, 2)))
    out["scan_line"] = repr([(p.theta1, p.theta2, p.pair) for p in scan.points]).encode()
    spec = DisorderSpec.for_steps(0.63 * PI, 1.26 * PI, 0.6, 15, seed=9, n_configs=30)
    out["ensemble_r0"] = _bits(ensemble_r0(spec, 15).values)
    out["transition_locator"] = repr(transition_locator(
        spec, t=101, n_configs=24, resolution=0.125)).encode()
    edge = localization_vs_disorder(0.52 * PI, 1.68 * PI, 1.36 * PI, seed=4, t=9,
                                    p_grid=(0.0, 0.4, 1.0), n_configs=12)
    out["localization_vs_disorder"] = b"".join(_bits(r.values) for r in edge)
    system = ScatteringSystem.for_steps(0.47 * PI, 1.21 * PI, 11)
    data = emulate_measurement(system, 11, ApparatusModel(loss_asymmetry=0.02))
    out["monte_carlo_errorbars"] = repr(monte_carlo_errorbars(
        data, system, n_sets=30, horizon=7, seed=3)).encode()
    return out


def _widest(module, widths):
    real_steps = module.real_steps

    def counted(th1, th2, a, b, steps, read=None):
        widths.append(a.shape[1])
        yield from real_steps(th1, th2, a, b, steps, read)
    return counted


def test_batching_never_changes_a_result(monkeypatch):
    results, widths = {}, {}
    for name, budget in BUDGETS.items():
        seen = widths[name] = []
        with monkeypatch.context() as patch:
            patch.setattr(qwtopo.walk, "BATCH_BUDGET", budget)
            for module in (qwtopo.walk, qwtopo.scattering):
                patch.setattr(module, "real_steps", _widest(module, seen))
            results[name] = _studies()
    # the budgets really batch differently, up to all 1600 phase-diagram cells
    assert max(widths["one walker"]) == 1
    assert max(widths["one batch"]) == 1600
    calls = [len(widths[name]) for name in BUDGETS]
    assert calls == sorted(calls, reverse=True) and len(set(calls)) == len(calls)
    for name in BUDGETS:
        for study, value in results[name].items():
            assert value == results["default"][study], (name, study)


@pytest.mark.parametrize("t", (11, 30, 201))
def test_held_counts_what_the_engine_allocates(t):
    """A traced batch of 64 walkers allocates `walk.held` float64 elements
    per walker, within 10 %: `sample_rows` on its reflection window and
    `record` with its history."""
    theta = np.random.default_rng(2).uniform(0, 2 * PI, (64, t + 2))
    zeros = np.zeros_like(theta)
    runs = ((lambda: qwtopo.scattering.sample_rows(zeros, theta, t),
             qwtopo.walk.held(qwtopo.scattering.reflection_window(t), t)),
            (lambda: qwtopo.walk.record(0, theta, theta, -1, qwtopo.walk.H, t),
             qwtopo.walk.held(qwtopo.walk.record_window(t), t, history=True)))
    for run, held in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.95 <= peak / 8 / 64 / held <= 1.1
