"""The experiment runners of `qwtopo run` and the plots `replot` redraws.

A runner reads a config resolved by `config.resolve` and names its files to
an `Outputs`.  Each runner imports the engine modules of its kind when it
runs, so a run loads only those: a scan or a phase diagram loads no
`apparatus`, `disorder` or `edges`.  Runners look package functions up on
their modules at each call, so no wrapper set there stays bound here.
"""

import math
import os

import numpy as np

from . import dataio, svgplot

PHASE_LEVELS = {"--": 0.0, "-+": 1.0, "boundary": 2.0, "+-": 3.0, "++": 4.0}


def _group_stats(keys, values):
    order = sorted(set(keys.tolist()))
    means = [float(np.mean(values[keys == k])) for k in order]
    stds = [float(np.std(values[keys == k])) for k in order]
    return np.array(order), np.array(means), np.array(stds)


def _intensity_matrix(steps, positions, values) -> tuple[np.ndarray, int, int]:
    """The (step, position) matrix of an intensity table's finite cells, with
    its first step and position.  Refused (UnknownDataKind, naming the row or
    the span) unless every step and position is a whole number within 2**53
    of 0, the matrix no larger than the table, and no two rows give one
    cell: a run's table holds every cell of its matrix once."""
    index = np.array([steps, positions])
    whole = ((index == np.trunc(index)) & (np.abs(index) <= 2**53)).all(axis=0)
    if not whole.all():
        raise dataio.UnknownDataKind(f"data row {np.argmin(whole) + 1} holds a step or position "
                                     "that is not a whole number within 2**53 of 0")
    start = index.min(axis=1)
    shape = tuple(int(n) for n in index.max(axis=1) - start + 1)
    if shape[0] * shape[1] > len(values):
        raise dataio.UnknownDataKind(f"its steps and positions span {shape[0]} x {shape[1]} "
                                     f"cells, more than its {len(values)} data rows")
    s0, p0 = (int(n) for n in start)
    i, j = index[0].astype(int) - s0, index[1].astype(int) - p0
    rows, cell = np.arange(len(values)), i * shape[1] + j
    first = np.full(shape[0] * shape[1], len(values))
    np.minimum.at(first, cell, rows)  # the first row of each cell
    k = int(np.argmax(first[cell] != rows))  # the first row that repeats a cell, else 0
    if first[cell[k]] != k:
        raise dataio.UnknownDataKind(f"data row {k + 1} repeats the step and position of "
                                     f"data row {first[cell[k]] + 1}")
    matrix = np.zeros(shape)
    matrix[i, j] = values
    return matrix, s0, p0


#: The columns of each table kind that its plot needs finite: a scan's Q0
#: and Qpi may be NaN, where its lines break.
_FINITE = {"scan": (0, 1), "disorder_runs": (0, 2), "disorder_summary": (0, 1, 2),
           "edge": (0, 2), "intensity": (0, 1, 2)}


def plot_table(kind: str, columns) -> str:
    """The SVG text of a `kind` table's plot, drawn from the columns `run` wrote;
    a table with a non-finite cell where its plot needs a finite one, or an
    intensity table that indexes no matrix (`_intensity_matrix`), is refused."""
    # arrays from `run` and from `replot`'s CSV cells
    cols = [np.asarray(c, dtype=float) for c in columns]
    finite = np.isfinite([cols[k] for k in _FINITE[kind]]).all(axis=0)
    if not finite.all():
        raise dataio.UnknownDataKind(f"data row {np.argmin(finite) + 1} holds a non-finite cell")
    if kind == "scan":
        th1, th2, q0, qpi = cols[0], cols[1], cols[2], cols[3]
        xs = th1 if np.ptp(th1) >= np.ptp(th2) else th2
        label = "theta1 / pi" if xs is th1 else "theta2 / pi"
        return svgplot.line_plot([(xs, q0, "Q0"), (xs, qpi, "Qpi")],
                                 title="scattering invariants",
                                 xlabel=label, ylabel="invariant")
    if kind == "intensity":
        matrix, s0, p0 = _intensity_matrix(*cols)
        return svgplot.heatmap(matrix, title="walk intensity", xlabel="position",
                               ylabel="step", x_offset=p0, y_offset=s0)
    # mean and std at each p: a summary's rows, or grouped from a row per member
    title, ylabel = ("interface localization", "P_loc") if kind == "edge" \
        else ("ensemble r(0) / 2", "r(0) / 2")
    xs, means, stds = cols[:3] if kind == "disorder_summary" \
        else _group_stats(cols[0], cols[2])
    return svgplot.errorbar_plot(xs, means, stds, title=title, xlabel="p", ylabel=ylabel)


def _columns(header: list[str], rows: list[list[str]]) -> np.ndarray:
    """A table's float columns, a row of the returned array each, refused unless
    each data row, one at least, is as wide as the header and holds numbers
    that `float` reads; `plot_table` refuses the cells it cannot plot."""
    bad = next((i for i, row in enumerate(rows, 1) if len(row) != len(header)), 0)
    if bad or not rows:
        raise dataio.UnknownDataKind(f"data row {bad} holds {len(rows[bad - 1])} cells, its "
                                     f"header {len(header)}" if bad
                                     else "the table holds no data rows")
    try:
        table = np.array(rows, dtype=float)  # each cell read as float() reads it
    except ValueError:
        for i, row in enumerate(rows, 1):
            try:
                list(map(float, row))
            except ValueError:
                raise dataio.UnknownDataKind(f"data row {i} holds a non-number") from None
        raise
    return table.T


def replot(out_dir: str) -> tuple[int, int]:
    """Redraw <kind>.svg from each <kind>.csv in `out_dir`, as `run` drew it;
    returns the number of tables recognized and of plots drawn.

    A recognized table under another name, such as phase_diagram.csv, is
    left alone: its plot needs more than the table holds.
    """
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    tables = drawn = 0
    for name in names:
        if not name.endswith(".csv"):
            continue
        path = os.path.join(out_dir, name)
        header, rows = dataio.read_csv(path)
        try:
            kind = dataio.detect_kind(header)
        except dataio.UnknownDataKind:
            continue
        tables += 1
        if name == f"{kind}.csv":
            try:
                text = plot_table(kind, _columns(header, rows))
            except dataio.UnknownDataKind as exc:  # the refusals name the row, this the file
                raise dataio.UnknownDataKind(f"{path}: {exc}") from None
            dataio.write_text(os.path.join(out_dir, f"{kind}.svg"), [text])
            drawn += 1
    return tables, drawn


class Outputs:
    """The files of one run: tables, JSON files and plots, each written into
    `outdir` when a runner names it; `paths` lists them in the order written."""

    def __init__(self, outdir: str, fmt: str):
        self.outdir, self.fmt, self.paths = outdir, fmt, []

    def table(self, kind: str, columns, name: str | None = None):
        """<name or kind>.<fmt> of a `kind` table and, for CSV under the kind's
        own name, the plot <kind>.svg that replot redraws."""
        name = name or kind
        self.paths.append(dataio.write_table(os.path.join(self.outdir, name),
                                             dataio.TABLE_KINDS[kind], dataio.Columns(*columns),
                                             self.fmt))
        if self.fmt == "csv" and name == kind:
            self.svg(kind, plot_table(kind, columns))

    def json(self, name: str, payload: dict):
        self.paths.append(dataio.write_json(os.path.join(self.outdir, name + ".json"), payload))

    def svg(self, name: str, text: str):
        self.paths.append(dataio.write_text(os.path.join(self.outdir, name + ".svg"), [text]))


def _scan_columns(t, *arrays) -> list:
    """`scan` table columns: the equal-shape arrays theta1 / pi, theta2 / pi,
    Q0, Qpi and residual, flattened, then t."""
    columns = [a.ravel() for a in arrays]
    return columns + [np.full(columns[0].size, t)]


def _member_columns(results) -> list:
    """p, member index and value columns of per-p results, a row per member.
    p keeps the type each result holds, so an integer p is written as one."""
    sizes = [r.values.size for r in results]
    return [np.repeat(np.array([r.p for r in results], dtype=object), sizes),
            np.concatenate([np.arange(n) for n in sizes]),
            np.concatenate([r.values for r in results])]


def _run_scan(cfg, seed, out):
    from . import scattering

    blk = cfg["scan"]
    t = blk["t"]
    if blk["parametrization"] == "free":
        pairs = np.asarray(blk["pairs_pi"], dtype=float) * math.pi
    else:
        grid = np.linspace(blk["start_pi"], blk["stop_pi"], blk["count"]) * math.pi
        pairs = scattering.line_pairs(blk["parametrization"], grid)
    result = scattering.scan_line(pairs, t)
    columns = _scan_columns(t, result.theta1 / math.pi, result.theta2 / math.pi, result.q0,
                            result.qpi, result.residual)
    out.table("scan", columns)


def _run_phase_diagram(cfg, seed, out):
    from . import scattering

    blk = cfg["phase_diagram"]
    pd = scattering.phase_diagram(blk["resolution"], blk["t"], blk["tolerance"])
    n = pd.theta2.size
    columns = _scan_columns(blk["t"], np.repeat(pd.theta1 / math.pi, n),
                            np.tile(pd.theta2 / math.pi, n), pd.q0, pd.qpi, pd.residual)
    out.table("scan", columns, name="phase_diagram")
    names = sorted(PHASE_LEVELS)
    levels = np.array([PHASE_LEVELS[name] for name in names])[np.searchsorted(names, pd.labels)]
    out.svg("phase_diagram", svgplot.heatmap(levels, title="phase labels",
                                             xlabel="theta2 cell", ylabel="theta1 cell"))


def _run_disorder(cfg, seed, out):
    from . import disorder

    blk = cfg["disorder"]
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    curve = disorder.disorder_curve(theta_a, theta_b, seed, t, n, p_grid)
    members = _member_columns(curve)
    rows = members[0].size
    out.table("disorder_runs", members + [np.full(rows, t), np.full(rows, seed)])
    out.table("disorder_summary", [
        np.array([res.p for res in curve], dtype=object),
        np.array([res.mean for res in curve]), np.array([res.std for res in curve]),
        np.array([res.n_configs for res in curve]), np.full(len(curve), t)])
    if "transition" in blk:
        tr = blk["transition"]  # t, n_configs and resolution, by their parameter names
        p_crit = disorder.transition_locator(theta_a, theta_b, seed, **tr)
        out.json("transition", {"p_crit": p_crit, **tr, "seed": seed})


def _run_edge(cfg, seed, out):
    from . import edges

    blk = cfg["edge"]
    theta_left = blk["theta_left_pi"] * math.pi
    theta_a, theta_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    t, n, p_grid = blk["t"], blk["n_configs"], blk["p_grid"]
    points = edges.localization_vs_disorder(theta_left, theta_a, theta_b, seed, t, p_grid, n)
    members = _member_columns(points)
    out.table("edge", members + [np.full(members[0].size, t)])
    record = edges.run_interface(theta_left, theta_a, theta_b, seed, t, max(p_grid), config=0)
    out.table("intensity", _intensity_columns(record.positions(), record.distributions))


def _intensity_columns(positions, matrix) -> list:
    """Step, position and value columns of a (steps, positions) matrix, a row
    per cell, step by step."""
    steps, sites = matrix.shape
    return [np.repeat(np.arange(steps), sites), np.tile(positions, steps), matrix.ravel()]


def _radians(blk: dict) -> dict:
    """Keyword arguments of a model or ranges block, *_deg keys in radians."""
    return {key.removesuffix("_deg"): math.radians(v) if key.endswith("_deg") else v
            for key, v in blk.items()}


def _run_emulate(cfg, seed, out):
    from . import apparatus, scattering

    blk = cfg["emulate"]
    system = scattering.ScatteringSystem.for_steps(blk["theta1_pi"] * math.pi,
                                                   blk["theta2_pi"] * math.pi, blk["t"])
    data = apparatus.emulate_measurement(
        system, blk["t"], apparatus.ApparatusModel(**_radians(blk["model"])),
        alpha=blk["alpha_pi"] * math.pi, mode=blk["mode"], shots=blk["shots"], seed=seed)
    positions = data.x_min + np.arange(data.distributions.shape[1])
    out.table("intensity", _intensity_columns(positions, data.distributions))
    pair = apparatus.measured_invariants(data)
    out.json("emulate", {
        "q0": pair.q0, "qpi": pair.qpi, "residual": pair.residual,
        "reference_sign": data.reference_sign,
        "magnitudes": [float(m) for m in data.magnitudes],
    })


def _run_mc_errorbars(cfg, seed, out):
    from . import apparatus, scattering

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
    out.json("mc", {
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
    })
    out.svg("mc_invariants", svgplot.errorbar_plot(
        [0.0, 1.0], [pair.q0, pair.qpi], [result.q0_error, result.qpi_error],
        title="invariants with MC error bars", xlabel="0 = Q0, 1 = Qpi", ylabel="invariant"))


#: The runner of each experiment kind.
RUNNERS = {
    "scan": _run_scan,
    "phase-diagram": _run_phase_diagram,
    "disorder": _run_disorder,
    "edge": _run_edge,
    "emulate": _run_emulate,
    "mc-errorbars": _run_mc_errorbars,
}
