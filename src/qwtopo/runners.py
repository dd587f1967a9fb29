"""The experiment runners of `qwtopo run` and the plots `replot` redraws.

Runners read configs resolved by `config.resolve` and look package functions
up on their modules at each call, so no wrapper set there stays bound here.
"""

from __future__ import annotations

import json
import math
import os
from itertools import repeat

import numpy as np

from . import apparatus, dataio, disorder, edges, scattering, svgplot

PHASE_LEVELS = {"--": 0.0, "-+": 1.0, "boundary": 2.0, "+-": 3.0, "++": 4.0}


def _write_svg(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _group_stats(keys, values):
    order = sorted(set(keys.tolist()))
    means = [float(np.mean(values[keys == k])) for k in order]
    stds = [float(np.std(values[keys == k])) for k in order]
    return np.array(order), np.array(means), np.array(stds)


def plot_table(kind: str, rows, path: str) -> str:
    """Draw a `kind` table's plot to `path` from the rows `run` wrote."""
    cols = np.array(rows, dtype=float).T  # numbers from `run`, CSV strings in `replot`
    if kind == "scan":
        th1, th2, q0, qpi = cols[0], cols[1], cols[2], cols[3]
        xs = th1 if np.ptp(th1) >= np.ptp(th2) else th2
        label = "theta1 / pi" if xs is th1 else "theta2 / pi"
        text = svgplot.line_plot([(xs, q0, "Q0"), (xs, qpi, "Qpi")],
                                 title="scattering invariants",
                                 xlabel=label, ylabel="invariant")
    elif kind == "intensity":
        steps, pos, val = cols[0].astype(int), cols[1].astype(int), cols[2]
        s0, p0 = steps.min(), pos.min()
        matrix = np.zeros((steps.max() - s0 + 1, pos.max() - p0 + 1))
        matrix[steps - s0, pos - p0] = val
        text = svgplot.heatmap(matrix, title="walk intensity", xlabel="position",
                               ylabel="step", x_offset=int(p0), y_offset=int(s0))
    else:  # mean and std at each p: a summary's rows, or grouped from a row per member
        title, ylabel = ("interface localization", "P_loc") if kind == "edge" \
            else ("ensemble r(0) / 2", "r(0) / 2")
        xs, means, stds = cols[:3] if kind == "disorder_summary" \
            else _group_stats(cols[0], cols[2])
        text = svgplot.errorbar_plot(xs, means, stds, title=title, xlabel="p", ylabel=ylabel)
    return _write_svg(path, text)


def _table(outdir, kind, rows, fmt):
    """<kind>.<fmt> and, for CSV, its plot <kind>.svg, which replot redraws."""
    written = [dataio.write_table(os.path.join(outdir, kind), dataio.TABLE_KINDS[kind],
                                  rows, fmt)]
    if fmt == "csv":
        written.append(plot_table(kind, rows, os.path.join(outdir, f"{kind}.svg")))
    return written


def _write_json(outdir, name, payload) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _scan_table(t, *columns) -> list:
    """`scan` table rows of the equal-shape arrays theta1 / pi, theta2 / pi,
    Q0, Qpi and residual, then t, built from Python scalars."""
    return list(zip(*(c.ravel().tolist() for c in columns), repeat(t)))


def _run_scan(cfg, seed, outdir, fmt):
    blk = cfg["scan"]
    t = blk["t"]
    if blk["parametrization"] == scattering.LINE_FREE:
        pairs = np.asarray(blk["pairs_pi"], dtype=float) * math.pi
        result = scattering.scan_line(scattering.LINE_FREE, t, pairs=pairs)
    else:
        grid = np.linspace(blk["start_pi"], blk["stop_pi"], blk["count"]) * math.pi
        result = scattering.scan_line(blk["parametrization"], t, grid=grid)
    rows = _scan_table(t, result.theta1 / math.pi, result.theta2 / math.pi, result.q0,
                       result.qpi, result.residual)
    return _table(outdir, "scan", rows, fmt)


def _run_phase_diagram(cfg, seed, outdir, fmt):
    blk = cfg["phase_diagram"]
    pd = scattering.phase_diagram(blk["resolution"], blk["t"], blk["tolerance"])
    n = pd.theta2.size
    rows = _scan_table(pd.t, np.repeat(pd.theta1 / math.pi, n),
                       np.tile(pd.theta2 / math.pi, n), pd.q0, pd.qpi, pd.residual)
    written = [dataio.write_table(os.path.join(outdir, "phase_diagram.csv"),
                                  dataio.TABLE_KINDS["scan"], rows, fmt)]
    levels = np.vectorize(PHASE_LEVELS.get)(pd.labels).astype(float)
    text = svgplot.heatmap(levels, title="phase labels", xlabel="theta2 cell",
                           ylabel="theta1 cell")
    written.append(_write_svg(os.path.join(outdir, "phase_diagram.svg"), text))
    return written


def _run_disorder(cfg, seed, outdir, fmt):
    blk = cfg["disorder"]
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    spec = disorder.DisorderSpec.for_steps(theta_a, theta_b, p_grid[0], t, seed, n)
    curve = disorder.disorder_curve(spec, t, p_grid)
    run_rows = [[res.p, k, v, t, seed]
                for res in curve for k, v in enumerate(res.values.tolist())]
    sum_rows = [[res.p, res.mean, res.std, res.n_configs, t] for res in curve]
    written = _table(outdir, "disorder_runs", run_rows, fmt)
    written += _table(outdir, "disorder_summary", sum_rows, fmt)
    if "transition" in blk:
        tr = blk["transition"]
        t_tr, n_tr, resolution = tr["t"], tr["n_configs"], tr["resolution"]
        p_crit = disorder.transition_locator(spec, t_tr, n_tr, resolution)
        written.append(_write_json(outdir, "transition.json", {
            "p_crit": p_crit, "t": t_tr, "n_configs": n_tr,
            "resolution": resolution, "seed": seed,
        }))
    return written


def _run_edge(cfg, seed, outdir, fmt):
    blk = cfg["edge"]
    theta_left = blk["theta_left_pi"] * math.pi
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    points = edges.localization_vs_disorder(theta_left, theta_a, theta_b, seed, t, p_grid, n)
    rows = [[pt.p, k, v, t] for pt in points for k, v in enumerate(pt.values.tolist())]
    written = _table(outdir, "edge", rows, fmt)
    show_p = max(p_grid)
    system = edges.InterfaceSystem.for_steps(theta_left, theta_a, theta_b, show_p, t,
                                             seed, n)
    record = edges.run_interface(system, t, config=0)
    rows = _intensity_rows(record.positions(), record.distributions)
    written += _table(outdir, "intensity", rows, fmt)
    return written


def _intensity_rows(positions, matrix) -> list:
    """(step, position, value) rows of a (steps, positions) matrix, step by
    step, built from Python scalars as `_scan_table` builds its rows."""
    steps, sites = matrix.shape
    return list(zip(np.repeat(np.arange(steps), sites).tolist(),
                    np.tile(positions, steps).tolist(), matrix.ravel().tolist()))


def _radians(blk: dict) -> dict:
    """Keyword arguments of a model or ranges block, *_deg keys in radians."""
    return {key.removesuffix("_deg"): math.radians(v) if key.endswith("_deg") else v
            for key, v in blk.items()}


def _run_emulate(cfg, seed, outdir, fmt):
    blk = cfg["emulate"]
    system = scattering.ScatteringSystem.for_steps(blk["theta1_pi"] * math.pi,
                                                   blk["theta2_pi"] * math.pi, blk["t"])
    data = apparatus.emulate_measurement(
        system, blk["t"], apparatus.ApparatusModel(**_radians(blk["model"])),
        alpha=blk["alpha_pi"] * math.pi, mode=blk["mode"], shots=blk["shots"], seed=seed)
    positions = data.x_min + np.arange(data.distributions.shape[1])
    written = _table(outdir, "intensity", _intensity_rows(positions, data.distributions), fmt)
    pair = apparatus.measured_invariants(data)
    written.append(_write_json(outdir, "emulate.json", {
        "q0": pair.q0, "qpi": pair.qpi, "residual": pair.residual,
        "reference_sign": data.reference_sign,
        "magnitudes": [float(m) for m in data.magnitudes],
    }))
    return written


def _run_mc_errorbars(cfg, seed, outdir, fmt):
    blk = cfg["mc_errorbars"]
    t = blk["t"]
    system = scattering.ScatteringSystem.for_steps(blk["theta1_pi"] * math.pi,
                                                   blk["theta2_pi"] * math.pi, t)
    truth = apparatus.ApparatusModel(**_radians(blk["truth_model"]))
    data = apparatus.emulate_measurement(system, t, truth)
    # the fit compares the first horizon steps: hold those, not the whole walk, beside it
    data.distributions = data.distributions[:blk["horizon"] + 1].copy()
    result = apparatus.monte_carlo_errorbars(
        data, system, apparatus.ErrorRanges(**_radians(blk["ranges"])), n_sets=blk["n_sets"],
        horizon=blk["horizon"], seed=seed)
    pair = apparatus.measured_invariants(data)
    best = result.best
    written = [_write_json(outdir, "mc.json", {
        "q0": pair.q0, "qpi": pair.qpi,
        "q0_error": result.q0_error, "qpi_error": result.qpi_error,
        "distance": result.distance, "n_sets": result.n_sets,
        "horizon": result.horizon,
        "best_model": {
            "efficiency_h": best.efficiency_h,
            "efficiency_v": best.efficiency_v,
            "loss_asymmetry": best.loss_asymmetry,
            "eom_error_deg": math.degrees(best.eom_error),
            "sbc_error_deg": math.degrees(best.sbc_error),
        },
    })]
    text = svgplot.errorbar_plot([0.0, 1.0], [pair.q0, pair.qpi],
                                 [result.q0_error, result.qpi_error],
                                 title="invariants with MC error bars",
                                 xlabel="0 = Q0, 1 = Qpi", ylabel="invariant")
    written.append(_write_svg(os.path.join(outdir, "mc_invariants.svg"), text))
    return written


#: The runner of each experiment kind.
RUNNERS = {
    "scan": _run_scan,
    "phase-diagram": _run_phase_diagram,
    "disorder": _run_disorder,
    "edge": _run_edge,
    "emulate": _run_emulate,
    "mc-errorbars": _run_mc_errorbars,
}
