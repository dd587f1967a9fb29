"""The benchmark's hooks into the package still hold.

`bench/tracer.py` wraps package functions by name and `bench/run.py` and
`bench/gate.py` call others directly, so a rename or a changed return in
`src/` can break `bench/run.py --trace 1` while every other test passes.
Here the tracer is installed around three shipped configs, as a traced
benchmark repetition installs it, and the names the benchmark calls are
looked up.  The tracer rebinds every name of a loaded package module that
holds a traced function, and `uninstall` restores those; a module that a
run loads while the tracer is installed, and that binds a traced function
at load time, would keep the wrapper.
"""

import functools
import importlib.util
import os
import sys

import pytest

import qwtopo.cli
from qwtopo import config, dataio, walk

from bench_calls import BENCH_CALLS

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIGS = ("scan_line_t5", "emulate_lossy", "disorder_same_phase")


def _load(name, monkeypatch):
    """Import bench/<name>.py read-only, without touching sys.path, as the
    module `name` for the rest of the test: dataclasses look their module up
    there, and layers.py imports tracer by that name."""
    path = os.path.join(ROOT, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_completes_and_yields_layer_metrics(tmp_path, monkeypatch):
    tracer = _load("tracer", monkeypatch)
    layers = _load("layers", monkeypatch)
    paths = [os.path.join(ROOT, "configs", f"{name}.json") for name in CONFIGS]
    traced = tracer.Tracer()
    traced.install()
    try:
        codes = [qwtopo.cli.entrypoint(["run", "--config", path, "--out",
                                        str(tmp_path / name)])
                 for name, path in zip(CONFIGS, paths)]
    finally:
        traced.uninstall()
    assert codes == [0] * len(CONFIGS)
    spans = traced.take()
    assert [s.name for s in spans if s.parent < 0] == ["cli.entrypoint"] * len(CONFIGS)
    assert not [s.name for s in spans if s.error]
    predicted = sum(config.estimate(config.load(path))["simulations"] for path in paths)
    metrics = layers.layer_metrics(spans, predicted)
    # the tracer counts len() of write_table's third argument: it must be the data rows
    tables = [path for name in CONFIGS for path in sorted((tmp_path / name).glob("*.csv"))]
    assert [path.name for path in tables] == [
        "scan.csv", "intensity.csv", "disorder_runs.csv", "disorder_summary.csv"]
    data_rows = sum(len(dataio.read_csv(str(path))[1]) for path in tables)
    assert data_rows > 0 and metrics["dataio.rows_written"] == data_rows
    assert metrics["svgplot.calls"] > 0
    assert not hasattr(qwtopo.cli.entrypoint, "__wrapped__")  # uninstalled
    wrapped = [f"{name}.{key}" for name, module in list(sys.modules.items())
               if name == "qwtopo" or name.startswith("qwtopo.")
               for key, value in vars(module).items() if hasattr(value, "__wrapped__")]
    assert wrapped == []


def _owner(file, qualname):
    """(object, attribute) of a `BENCH_CALLS` entry: its module or class, and
    the name looked up on it."""
    *path, name = qualname.split(".")
    return functools.reduce(getattr, path, importlib.import_module("qwtopo." + file[:-3])), name


@pytest.mark.parametrize("owner, name", [*(_owner(*entry) for entry in BENCH_CALLS),
                                         (walk, "H")])  # the launch polarization run.py passes
def test_the_names_the_benchmark_calls_exist(owner, name):
    assert getattr(owner, name, None) is not None
