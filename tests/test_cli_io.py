"""Config validation, table IO, manifests, plotting, and the command
line wiring, exercised end to end inside temporary directories."""

import hashlib
import json
import os

import numpy as np
import pytest

from qwtopo import ConfigInvalid, IoFailure, RunManifest, UnknownDataKind
from qwtopo import config as cfgmod
from qwtopo import dataio, svgplot
from qwtopo.cli import entrypoint
from qwtopo.parallel import ENV_THREADS, WorkerPool, thread_count

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def scan_config(**extra):
    block = {"parametrization": "theta2=2*theta1", "t": 5,
             "start_pi": 0.05, "stop_pi": 1.95, "count": 20}
    block.update(extra)
    return {"experiment": "scan", "scan": block}


def disorder_config(**extra):
    block = {"theta_a_pi": 1.68, "theta_b_pi": 1.36, "t": 11}
    block.update(extra)
    return {"experiment": "disorder", "disorder": block}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------------ tables

def test_table_roundtrip_in_csv(tmp_path):
    header = dataio.TABLE_KINDS["intensity"]
    rows = [[0, -1, 1.0], [1, 0, 0.25], [1, -2, 0.75]]
    path = dataio.write_table(str(tmp_path / "t.json"), header, rows, "csv")
    assert path.endswith(".csv")
    got_header, got_rows = dataio.read_csv(path)
    assert got_header == list(header)
    assert got_rows == [["0", "-1", "1.0"], ["1", "0", "0.25"], ["1", "-2", "0.75"]]
    assert dataio.detect_kind(got_header) == "intensity"


def test_table_roundtrip_in_json(tmp_path):
    header = dataio.TABLE_KINDS["disorder_summary"]
    rows = [[0.5, np.float64(0.01), np.float64(0.002), 50, 11]]
    path = dataio.write_table(str(tmp_path / "t.csv"), header, rows, "json")
    assert path.endswith(".json")
    records = json.loads(open(path).read())
    assert records == [{"p": 0.5, "mean_half_r0": 0.01, "std_half_r0": 0.002,
                        "n_configs": 50, "t": 11}]


def test_numpy_scalars_serialize_without_type_tags(tmp_path):
    path = dataio.write_table(str(tmp_path / "x.csv"), ["a", "b"],
                              [[np.float64(0.05), np.int64(3)]], "csv")
    body = open(path).read()
    assert "np." not in body and "float64" not in body
    assert "0.05,3" in body


def test_numpy_scalars_write_the_bytes_of_their_items(tmp_path):
    values = [np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float64("inf"),
              np.float64("-inf"), np.float64(1e-300), np.int64(-7), np.bool_(True),
              np.bool_(False)]
    items = [v.item() for v in values]
    header = [f"c{k}" for k in range(len(values))]
    for fmt in ("csv", "json"):
        written = [dataio.write_table(str(tmp_path / f"{name}.{fmt}"), header,
                                      [row, tuple(row[::-1])], fmt)
                   for name, row in (("numpy", values), ("python", items))]
        assert open(written[0], "rb").read() == open(written[1], "rb").read()
    csv_rows = open(tmp_path / "python.csv").read().splitlines()
    assert csv_rows[1] == "0.1,-0.0,nan,inf,-inf,1e-300,-7,True,False"


def reference_heatmap(matrix, x_offset, y_offset):
    """`svgplot.heatmap` drawn cell by cell, one colour per cell."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    peak = float(m.max()) if m.size and m.max() > 0 else 1.0
    frame = svgplot._Frame((x_offset - 0.5, x_offset + cols - 0.5),
                           (y_offset + rows - 0.5, y_offset - 0.5))
    parts = frame.axes("t", "x", "y")
    cw = (svgplot._W - svgplot._ML - svgplot._MR) / cols
    ch = (svgplot._H - svgplot._MT - svgplot._MB) / rows
    for i in range(rows):
        for j in range(cols):
            parts.append(f'<rect x="{svgplot._ML + j * cw:.2f}" '
                         f'y="{svgplot._MT + i * ch:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{ch + 0.5:.2f}" '
                         f'fill="{svgplot._heat_color(m[i, j] / peak)}"/>')
    return svgplot._document(parts)


@pytest.mark.parametrize("scale", [1.0, 0.37, -1.0])
def test_heatmap_gives_the_bytes_of_a_per_cell_reference(scale):
    rng = np.random.default_rng(3)
    levels = np.array([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 0.1, 1e-9])
    matrix = scale * rng.choice(levels, size=(9, 13))
    for m, offsets in ((matrix, (0, 0)), (matrix.T, (-4, 2)), (matrix[:1, :1], (3, 5))):
        assert svgplot.heatmap(m, "t", "x", "y", *offsets) == reference_heatmap(m, *offsets)


def test_unknown_table_format_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        dataio.write_table(str(tmp_path / "x.csv"), ["a"], [[1]], "xml")


def test_kind_detection_requires_an_exact_header():
    with pytest.raises(UnknownDataKind):
        dataio.detect_kind(["p", "mean_half_r0"])
    with pytest.raises(UnknownDataKind):
        dataio.detect_kind(list(dataio.TABLE_KINDS["edge"]) + ["extra"])


def test_reading_an_empty_table_fails(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(UnknownDataKind):
        dataio.read_csv(str(path))


# ---------------------------------------------------------------- manifests

def test_manifest_records_file_hashes(tmp_path):
    f1 = tmp_path / "a.csv"
    f1.write_text("p,x\n0,1\n")
    manifest = RunManifest(version="0.0", seed=7, config_sha256="00",
                           created="2026-01-01T00:00:00+00:00")
    manifest.add(str(f1))
    out = manifest.write(str(tmp_path / "manifest.json"))
    loaded = RunManifest.read(out)
    assert loaded.seed == 7
    assert loaded.outputs["a.csv"] == dataio.sha256_file(str(f1))


def test_config_hash_ignores_key_order_but_not_values():
    a = {"experiment": "scan", "seed": 1, "scan": {"t": 5}}
    b = {"scan": {"t": 5}, "seed": 1, "experiment": "scan"}
    assert dataio.config_hash(a) == dataio.config_hash(b)
    assert dataio.config_hash(a) != dataio.config_hash({**a, "seed": 2})


# ------------------------------------------------------------------ configs

def test_shipped_example_configs_are_valid():
    names = sorted(os.listdir(CONFIG_DIR))
    assert len(names) >= 6
    kinds = set()
    for name in names:
        cfg = cfgmod.load(os.path.join(CONFIG_DIR, name))
        cfgmod.validate(cfg)
        kinds.add(cfg["experiment"])
    assert kinds == set(cfgmod.EXPERIMENTS)


def test_load_reports_missing_file_and_bad_json(tmp_path):
    with pytest.raises(IoFailure):
        cfgmod.load(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        cfgmod.load(str(bad))


def test_out_of_range_probability_names_its_field():
    with pytest.raises(ConfigInvalid) as err:
        cfgmod.validate(disorder_config(p=1.3))
    assert err.value.path == "disorder.p"


def test_missing_block_and_stray_block_are_rejected():
    with pytest.raises(ConfigInvalid, match="scan"):
        cfgmod.validate({"experiment": "scan"})
    cfg = scan_config()
    cfg["edge"] = {"theta_left_pi": 0.52, "theta_a_pi": 1.68,
                   "theta_b_pi": 1.36}
    with pytest.raises(ConfigInvalid, match="does not belong"):
        cfgmod.validate(cfg)


def test_free_scan_requires_explicit_pairs():
    cfg = {"experiment": "scan", "scan": {"parametrization": "free", "t": 5}}
    with pytest.raises(ConfigInvalid) as err:
        cfgmod.validate(cfg)
    assert err.value.path == "scan.pairs_pi"


def test_angle_warnings_flag_mod_two_reduction():
    cfg = {"experiment": "scan",
           "scan": {"parametrization": "free", "t": 5,
                    "pairs_pi": [[3.1, 0.4], [0.2, -2.0]]}}
    cfgmod.validate(cfg)
    warnings = cfgmod.config_warnings(cfg)
    assert any("3.1*pi" in w and "1.1*pi" in w for w in warnings)
    assert any("-2.0*pi" in w for w in warnings)
    assert cfgmod.config_warnings(scan_config()) == []


def test_cost_estimate_counts_simulations():
    est = cfgmod.estimate(scan_config())
    assert est["simulations"] == 20
    assert est["window_sites"] == 5
    cfg = disorder_config(p_grid=[0.0, 0.5, 1.0], n_configs=10)
    assert cfgmod.estimate(cfg)["simulations"] == 30


# -------------------------------------------------------------------- pool

def test_thread_count_resolution(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    assert thread_count() == 1
    assert thread_count(4) == 4
    assert thread_count(0) == 1
    monkeypatch.setenv(ENV_THREADS, "3")
    assert thread_count() == 3
    monkeypatch.setenv(ENV_THREADS, "not-a-number")
    assert thread_count() == 1


def test_serial_pool_preserves_order():
    with WorkerPool(1) as pool:
        assert pool.map(abs, [-3, 2, -1]) == [3, 2, 1]


# ------------------------------------------------------------------- plots

def test_svg_documents_are_well_formed():
    line = svgplot.line_plot([([0, 1, 2], [0.5, 0.4, -0.5], "Q0")],
                             title="t", xlabel="x", ylabel="y")
    bars = svgplot.errorbar_plot([0, 1], [0.5, 0.4], [0.01, 0.02], label="m")
    heat = svgplot.heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]))
    for doc in (line, bars, heat):
        assert doc.startswith("<svg")
        assert doc.rstrip().endswith("</svg>")
    assert "Q0" in line


def test_plots_skip_non_finite_points():
    doc = svgplot.line_plot([([0, 1, 2], [0.1, float("nan"), 0.3], "q")])
    assert doc.startswith("<svg") and "nan" not in doc


# --------------------------------------------------------------------- CLI

def test_verify_reports_validity_and_warnings(tmp_path, capsys):
    cfg = scan_config(stop_pi=2.5)
    code = entrypoint(["verify", "--config", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: scan config is valid" in out
    assert "estimated simulations: 20" in out
    assert "mod 2" in out


def test_invalid_config_exits_with_code_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path, disorder_config(p=1.3))
    code = entrypoint(["verify", "--config", cfg_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "ConfigInvalid at field path disorder.p" in err


def test_runtime_errors_exit_with_code_three(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = entrypoint(["replot", "--out", str(empty)])
    assert code == 3
    assert "UnknownDataKind" in capsys.readouterr().err


def test_scan_run_writes_table_plot_and_manifest(tmp_path):
    out = tmp_path / "out"
    code = entrypoint(["run", "--config", write_config(tmp_path, scan_config()),
                       "--out", str(out)])
    assert code == 0
    header, rows = dataio.read_csv(str(out / "scan.csv"))
    assert dataio.detect_kind(header) == "scan"
    assert len(rows) == 20
    svg = (out / "scan.svg").read_text()
    assert svg.startswith("<svg") and "Q0" in svg
    manifest = RunManifest.read(str(out / "manifest.json"))
    assert manifest.outputs["scan.csv"] == dataio.sha256_file(str(out / "scan.csv"))
    assert "scan.svg" in manifest.outputs


def test_runs_are_byte_reproducible_and_replot_matches(tmp_path):
    cfg_path = write_config(tmp_path, scan_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert entrypoint(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    assert entrypoint(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    original = (out1 / "scan.svg").read_bytes()
    (out1 / "scan.svg").unlink()
    assert entrypoint(["replot", "--out", str(out1)]) == 0
    assert (out1 / "scan.svg").read_bytes() == original


def test_json_format_skips_plots(tmp_path):
    out = tmp_path / "out"
    code = entrypoint(["run", "--config", write_config(tmp_path, scan_config()),
                       "--out", str(out), "--format", "json"])
    assert code == 0
    records = json.loads((out / "scan.json").read_text())
    assert len(records) == 20
    assert not list(out.glob("*.svg"))


def test_disorder_run_summarizes_the_probability_grid(tmp_path):
    cfg = disorder_config(n_configs=5, p_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    cfg["seed"] = 20260814
    out = tmp_path / "out"
    code = entrypoint(["run", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)])
    assert code == 0
    header, rows = dataio.read_csv(str(out / "disorder_summary.csv"))
    assert dataio.detect_kind(header) == "disorder_summary"
    assert len(rows) == 5
    _, runs = dataio.read_csv(str(out / "disorder_runs.csv"))
    assert len(runs) == 5 * 5
    first = dict(zip(header, rows[0]))
    assert first["p"] == "0.0" and first["std_half_r0"] == "0.0"


NON_FINITE_SCAN = ('{"experiment": "scan", "scan": {"parametrization": "free", '
                   '"pairs_pi": [[NaN, Infinity]], "t": 5}}')


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("text, field", [
    (NON_FINITE_SCAN, "scan.pairs_pi.0.0"),
    (json.dumps(disorder_config(p=float("nan"))), "disorder.p"),
], ids=["scan-pairs", "disorder-p"])
def test_non_finite_numbers_exit_with_code_two(tmp_path, capsys, command, text, field):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"ConfigInvalid at field path {field}:" in captured.err
    assert "is valid" not in captured.out


EMULATE = {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": 5}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("cfg, field", [
    (disorder_config(p=0.3, p_grid=[0.9]), "disorder.p"),
    ({"experiment": "scan", "scan": {"parametrization": "free", "t": 5, "count": 3,
                                     "pairs_pi": [[0.1, 0.2]]}}, "scan.count"),
    (scan_config(pairs_pi=[[0.1, 0.2]]), "scan.pairs_pi"),
    ({"experiment": "emulate", "emulate": {**EMULATE, "shots": 100}}, "emulate.shots"),
], ids=["p-with-p-grid", "line-keys-in-free-scan", "pairs-in-line-scan",
        "shots-in-exact-mode"])
def test_keys_the_runner_would_ignore_exit_with_code_two(tmp_path, capsys, command,
                                                         cfg, field):
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"ConfigInvalid at field path {field}: run would ignore" in captured.err
    assert "is valid" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("alpha_pi", [0.0, 0.5, 1.0, 1.505])
def test_contrast_free_mixing_angle_exits_with_code_two(tmp_path, capsys, command,
                                                        alpha_pi):
    """Within ALPHA_GUARD (2 degrees) of a multiple of pi/2 no pair gives a
    sign; verify and run both refuse such an alpha before any output."""
    cfg = {"experiment": "emulate", "emulate": {**EMULATE, "t": 11, "alpha_pi": alpha_pi}}
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "ConfigInvalid at field path emulate.alpha_pi:" in captured.err
    assert "is valid" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha_pi", [0.25, 0.52])
def test_mixing_angles_outside_the_guard_are_accepted(tmp_path, alpha_pi):
    cfg = {"experiment": "emulate", "emulate": {**EMULATE, "t": 11, "alpha_pi": alpha_pi}}
    path = write_config(tmp_path, cfg)
    assert entrypoint(["verify", "--config", path]) == 0
    assert entrypoint(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_shots_are_accepted_in_shots_mode():
    cfgmod.validate({"experiment": "emulate",
                     "emulate": {**EMULATE, "mode": "shots", "shots": 100}})


def test_edge_reference_angles_are_not_config_keys(tmp_path, capsys):
    """Removed keys exit 2 naming the key: the edge reference angles, which
    the runner ignored, and the scan gauge, which had one reading."""
    edge = {"experiment": "edge", "edge": {
        "theta_left_pi": 0.52, "theta_a_pi": 1.68, "theta_b_pi": 1.36,
        "t": 5, "n_configs": 2, "p_grid": [0.5], "reference_left_pi": 0.3}}
    for cfg, block, key in ((edge, "edge", "reference_left_pi"),
                            (scan_config(gauge="auto"), "scan", "gauge")):
        code = entrypoint(["run", "--config", write_config(tmp_path, cfg),
                           "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"ConfigInvalid at field path {block}:" in err
        assert key in err
        assert not (tmp_path / "out").exists()


INTEGRAL_FLOATS = {
    "scan-t": ({"experiment": "scan", "scan": {
        "parametrization": "free", "pairs_pi": [[0.1, 0.2]], "t": 5.0}}, "scan.t"),
    "seed": ({"experiment": "phase-diagram", "seed": 2.0,
              "phase_diagram": {"resolution": 8, "t": 5}}, "seed"),
    "resolution": ({"experiment": "phase-diagram",
                    "phase_diagram": {"resolution": 8.0, "t": 5}},
                   "phase_diagram.resolution"),
    "transition-t": (disorder_config(transition={"t": 101.0}),
                     "disorder.transition.t"),
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_integer_keys_reject_integral_floats(tmp_path, capsys, command, case):
    cfg, field = INTEGRAL_FLOATS[case]
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"ConfigInvalid at field path {field}: " in captured.err
    assert "is not of type 'integer'" in captured.err
    assert "is valid" not in captured.out
    assert not (tmp_path / "out").exists()


with open(os.path.join(os.path.dirname(__file__), "shipped_hashes.json")) as _fh:
    #: SHA-256 of every output of every shipped config, manifest excluded.
    #: Re-record only for an output change that CHANGES.md declares.
    SHIPPED_HASHES = json.load(_fh)


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_shipped_configs_give_identical_outputs_at_any_thread_count(tmp_path, name):
    """Also: the one-thread outputs carry their recorded hashes, and
    replot rewrites no file of a run, phase_diagram.svg included."""
    def files(out):
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert entrypoint(["run", "--config", os.path.join(CONFIG_DIR, name),
                           "--out", str(out), "--threads", threads]) == 0
        outputs.append({k: v for k, v in files(out).items() if k != "manifest.json"})
        if threads == "1":
            assert {k: hashlib.sha256(v).hexdigest()
                    for k, v in outputs[0].items()} == SHIPPED_HASHES[name]
    assert outputs[0] and outputs[0] == outputs[1]
    before = files(tmp_path / "1")
    tables = any(k.endswith(".csv") for k in before)
    assert entrypoint(["replot", "--out", str(tmp_path / "1")]) == (0 if tables else 3)
    assert files(tmp_path / "1") == before


def test_cli_seed_flag_overrides_config_seed(tmp_path):
    cfg = disorder_config(t=9, n_configs=4, p_grid=[0.5])
    cfg["seed"] = 1
    cfg_path = write_config(tmp_path, cfg)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert entrypoint(["run", "--config", cfg_path, "--out", str(a)]) == 0
    assert entrypoint(["run", "--config", cfg_path, "--out", str(b),
                       "--seed", "2"]) == 0
    assert entrypoint(["run", "--config", cfg_path, "--out", str(c),
                       "--seed", "1"]) == 0
    runs = lambda d: (d / "disorder_runs.csv").read_bytes()
    assert runs(a) != runs(b)
    assert runs(a) == runs(c)
