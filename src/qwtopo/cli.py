"""Command line front end: run experiments, verify configs, redraw plots.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime
failures (I/O, unrecognized data, numerical dead ends).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__, config, svgplot
from .apparatus import (ApparatusModel, ErrorRanges, emulate_measurement,
                        measured_invariants, monte_carlo_errorbars)
from .config import ConfigInvalid
from .dataio import (TABLE_KINDS, RunManifest, UnknownDataKind, config_hash,
                     read_csv, detect_kind, write_table)
from .disorder import DisorderSpec, disorder_curve, transition_locator
from .edges import InterfaceSystem, intensity_map_export, localization_vs_disorder, run_interface
from .parallel import WorkerPool
from .scattering import LINE_FREE, ScatteringSystem, phase_diagram, scan_line

PHASE_LEVELS = {"--": 0.0, "-+": 1.0, "boundary": 2.0, "+-": 3.0, "++": 4.0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwtopo",
        description="Scattering invariants of split-step walks: simulation, "
                    "disorder ensembles, edge localization, apparatus emulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config")
    run.add_argument("--config", required=True, help="JSON experiment description")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--threads", type=int, default=None,
                     help="worker processes (QWTOPO_THREADS as fallback)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="table format")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="validate a config and print estimates")
    verify.add_argument("--config", required=True)
    verify.set_defaults(func=_cmd_verify)

    replot = sub.add_parser("replot", help="redraw plots from a run directory")
    replot.add_argument("--out", default="out", help="directory holding tables")
    replot.set_defaults(func=_cmd_replot)
    return parser


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"ConfigInvalid at field path {exc.path}: {exc.reason}"
              if exc.path else f"ConfigInvalid: {exc.reason}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - outer shell maps to exit code
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _cmd_verify(args) -> int:
    cfg = config.load(args.config)
    config.validate(cfg)
    est = config.estimate(cfg)
    print(f"ok: {cfg['experiment']} config is valid")
    print(f"estimated simulations: {est['simulations']}")
    print(f"estimated window: {est['window_sites']} sites")
    print(f"estimated site-steps: {est['site_steps']}")
    print("estimated walkers per batch: "
          + ", ".join(f"{walkers} at {field}" for field, walkers in est["batch_walkers"]))
    for note in config.config_warnings(cfg):
        print(f"warning: {note}")
    return 0


def _cmd_run(args) -> int:
    cfg = config.load(args.config)
    config.validate(cfg)
    for note in config.config_warnings(cfg):
        print(f"warning: {note}", file=sys.stderr)
    resolved = config.resolve(cfg)
    seed = args.seed if args.seed is not None else int(resolved["seed"])
    os.makedirs(args.out, exist_ok=True)
    runner = _RUNNERS[cfg["experiment"]]
    with WorkerPool(args.threads) as pool:
        written = runner(resolved, seed, args.out, args.format, pool.map)
    manifest = RunManifest(__version__, seed, config_hash(cfg),
                           datetime.now(timezone.utc).isoformat())
    for path in written:
        manifest.add(path)
    manifest.write(os.path.join(args.out, "manifest.json"))
    print(f"wrote {len(written)} files and manifest.json to {args.out}")
    return 0


def _cmd_replot(args) -> int:
    """Redraw <kind>.svg from each <kind>.csv, as `_table` drew it.

    A recognized table under another name, such as phase_diagram.csv, is
    left alone: its plot needs more than the table holds.
    """
    names = sorted(os.listdir(args.out)) if os.path.isdir(args.out) else []
    tables = drawn = 0
    for name in names:
        if not name.endswith(".csv"):
            continue
        header, rows = read_csv(os.path.join(args.out, name))
        try:
            kind = detect_kind(header)
        except UnknownDataKind:
            continue
        tables += 1
        if name == f"{kind}.csv":
            _plot_table(kind, rows, os.path.join(args.out, f"{kind}.svg"))
            drawn += 1
    if tables == 0:
        raise UnknownDataKind(f"no recognized tables in {args.out}")
    print(f"redrew {drawn} plots in {args.out}")
    return 0


# --- plotting shared by run and replot ---------------------------------------

def _columns(rows) -> list[np.ndarray]:
    return [np.array([float(r[i]) for r in rows]) for i in range(len(rows[0]))]


def _write_svg(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _group_stats(keys, values):
    order = sorted(set(keys.tolist()))
    means = [float(np.mean(values[keys == k])) for k in order]
    stds = [float(np.std(values[keys == k])) for k in order]
    return np.array(order), np.array(means), np.array(stds)


def _plot_table(kind: str, rows, path: str) -> str:
    cols = _columns(rows)
    if kind == "scan":
        th1, th2, q0, qpi = cols[0], cols[1], cols[2], cols[3]
        xs = th1 if np.ptp(th1) >= np.ptp(th2) else th2
        label = "theta1 / pi" if xs is th1 else "theta2 / pi"
        text = svgplot.line_plot([(xs, q0, "Q0"), (xs, qpi, "Qpi")],
                                 title="scattering invariants",
                                 xlabel=label, ylabel="invariant")
    elif kind == "disorder_runs":
        p, values = cols[0], cols[2]
        xs, means, stds = _group_stats(p, values)
        text = svgplot.errorbar_plot(xs, means, stds, title="ensemble r(0) / 2",
                                     xlabel="p", ylabel="r(0) / 2")
    elif kind == "disorder_summary":
        text = svgplot.errorbar_plot(cols[0], cols[1], cols[2],
                                     title="ensemble r(0) / 2",
                                     xlabel="p", ylabel="r(0) / 2")
    elif kind == "edge":
        p, values = cols[0], cols[2]
        xs, means, stds = _group_stats(p, values)
        text = svgplot.errorbar_plot(xs, means, stds,
                                     title="interface localization",
                                     xlabel="p", ylabel="P_loc")
    else:  # intensity
        steps, pos, val = cols[0].astype(int), cols[1].astype(int), cols[2]
        s0, p0 = steps.min(), pos.min()
        matrix = np.zeros((steps.max() - s0 + 1, pos.max() - p0 + 1))
        matrix[steps - s0, pos - p0] = val
        text = svgplot.heatmap(matrix, title="walk intensity", xlabel="position",
                               ylabel="step", x_offset=int(p0), y_offset=int(s0))
    return _write_svg(path, text)


def _table(outdir, kind, rows, fmt):
    """<kind>.<fmt> and, for CSV, its plot <kind>.svg, which replot redraws."""
    path = write_table(os.path.join(outdir, kind), TABLE_KINDS[kind], rows, fmt)
    written = [path]
    if fmt == "csv":
        written.append(_plot_table(kind, rows, os.path.join(outdir, f"{kind}.svg")))
    return written


def _write_json(outdir, name, payload) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# --- experiment runners: each reads a config resolved by config.resolve -----

def _run_scan(cfg, seed, outdir, fmt, mapper):
    blk = cfg["scan"]
    t = blk["t"]
    if blk["parametrization"] == LINE_FREE:
        pairs = np.asarray(blk["pairs_pi"], dtype=float) * math.pi
        result = scan_line(LINE_FREE, t, pairs=pairs, mapper=mapper)
    else:
        grid = np.linspace(blk["start_pi"], blk["stop_pi"], blk["count"]) * math.pi
        result = scan_line(blk["parametrization"], t, grid=grid, mapper=mapper)
    nan = float("nan")
    rows = [[pt.theta1 / math.pi, pt.theta2 / math.pi,
             pt.pair.q0 if pt.pair else nan,
             pt.pair.qpi if pt.pair else nan,
             pt.pair.residual if pt.pair else nan, t]
            for pt in result.points]
    return _table(outdir, "scan", rows, fmt)


def _run_phase_diagram(cfg, seed, outdir, fmt, mapper):
    blk = cfg["phase_diagram"]
    pd = phase_diagram(blk["resolution"], blk["t"], blk["tolerance"], mapper=mapper)
    n = pd.theta2.size
    columns = (np.repeat(pd.theta1 / math.pi, n), np.tile(pd.theta2 / math.pi, n),
               pd.q0, pd.qpi, pd.residual)
    rows = list(zip(*(c.ravel().tolist() for c in columns), repeat(pd.t)))
    written = [write_table(os.path.join(outdir, "phase_diagram.csv"),
                           TABLE_KINDS["scan"], rows, fmt)]
    levels = np.vectorize(PHASE_LEVELS.get)(pd.labels).astype(float)
    text = svgplot.heatmap(levels, title="phase labels", xlabel="theta2 cell",
                           ylabel="theta1 cell")
    written.append(_write_svg(os.path.join(outdir, "phase_diagram.svg"), text))
    return written


def _run_disorder(cfg, seed, outdir, fmt, mapper):
    blk = cfg["disorder"]
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    spec = DisorderSpec.for_steps(theta_a, theta_b, p_grid[0], t, seed, n)
    curve = disorder_curve(spec, t, p_grid, mapper)
    run_rows = [[res.p, k, v, t, seed]
                for res in curve for k, v in enumerate(res.values)]
    sum_rows = [[res.p, res.mean, res.std, res.n_configs, t] for res in curve]
    written = _table(outdir, "disorder_runs", run_rows, fmt)
    written += _table(outdir, "disorder_summary", sum_rows, fmt)
    if "transition" in blk:
        tr = blk["transition"]
        t_tr, n_tr, resolution = tr["t"], tr["n_configs"], tr["resolution"]
        p_crit = transition_locator(spec, t_tr, n_tr, resolution, mapper=mapper)
        written.append(_write_json(outdir, "transition.json", {
            "p_crit": p_crit, "t": t_tr, "n_configs": n_tr,
            "resolution": resolution, "seed": seed,
        }))
    return written


def _run_edge(cfg, seed, outdir, fmt, mapper):
    blk = cfg["edge"]
    theta_left = blk["theta_left_pi"] * math.pi
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    points = localization_vs_disorder(theta_left, theta_a, theta_b, seed, t,
                                      p_grid, n, mapper)
    rows = [[pt.p, k, v, t] for pt in points for k, v in enumerate(pt.values)]
    written = _table(outdir, "edge", rows, fmt)
    show_p = max(p_grid)
    system = InterfaceSystem.for_steps(theta_left, theta_a, theta_b, show_p, t,
                                       seed, n)
    record = run_interface(system, t, config=0)
    positions, matrix = intensity_map_export(record)
    int_rows = [[step, int(positions[i]), matrix[step, i]]
                for step in range(matrix.shape[0])
                for i in range(matrix.shape[1])]
    written += _table(outdir, "intensity", int_rows, fmt)
    return written


def _radians(blk: dict) -> dict:
    """Keyword arguments of a model or ranges block, *_deg keys in radians."""
    return {key.removesuffix("_deg"): math.radians(v) if key.endswith("_deg") else v
            for key, v in blk.items()}


def _run_emulate(cfg, seed, outdir, fmt, mapper):
    blk = cfg["emulate"]
    system = ScatteringSystem.for_steps(blk["theta1_pi"] * math.pi,
                                        blk["theta2_pi"] * math.pi, blk["t"])
    data = emulate_measurement(system, blk["t"], ApparatusModel(**_radians(blk["model"])),
                               alpha=blk["alpha_pi"] * math.pi, mode=blk["mode"],
                               shots=blk["shots"], seed=seed)
    positions = data.x_min + np.arange(data.distributions.shape[1])
    rows = [[step, int(positions[i]), data.distributions[step, i]]
            for step in range(data.distributions.shape[0])
            for i in range(data.distributions.shape[1])]
    written = _table(outdir, "intensity", rows, fmt)
    pair = measured_invariants(data)
    written.append(_write_json(outdir, "emulate.json", {
        "q0": pair.q0, "qpi": pair.qpi, "residual": pair.residual,
        "reference_sign": data.reference_sign,
        "magnitudes": [float(m) for m in data.magnitudes],
    }))
    return written


def _run_mc_errorbars(cfg, seed, outdir, fmt, mapper):
    blk = cfg["mc_errorbars"]
    t = blk["t"]
    system = ScatteringSystem.for_steps(blk["theta1_pi"] * math.pi,
                                        blk["theta2_pi"] * math.pi, t)
    data = emulate_measurement(system, t, ApparatusModel(**_radians(blk["truth_model"])))
    result = monte_carlo_errorbars(data, system, ErrorRanges(**_radians(blk["ranges"])),
                                   n_sets=blk["n_sets"], horizon=blk["horizon"],
                                   seed=seed, mapper=mapper)
    pair = measured_invariants(data)
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


_RUNNERS = {
    "scan": _run_scan,
    "phase-diagram": _run_phase_diagram,
    "disorder": _run_disorder,
    "edge": _run_edge,
    "emulate": _run_emulate,
    "mc-errorbars": _run_mc_errorbars,
}
