"""Every function in the package is reached by a shipped run, or is declared.

A subprocess installs `sys.setprofile` before it imports qwtopo, then runs
`verify` and `run` of every shipped config and `replot` of one run's CSV
output, and reports each package function whose frame it saw called.
Every function and method defined in `src/qwtopo` must be among them or
belong to one of the declared groups below, each with its reason.  A
function that only tests call is deleted, or declared here with why it
stays.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys

from bench_calls import BENCH_CALLS

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "qwtopo"))
CONFIG_DIR = os.path.join(ROOT, "configs")

#: reason -> (file, qualified name) entries; an entry naming a class covers
#: its methods.
DECLARED = {
    "what `walk.evolve` reads and returns, which only the benchmark's kernel "
    "grid calls: the coin fields whose angles it gathers, and the `sites` of "
    "its states, which the grid counts": [
        ("walk.py", "CoinField"), ("walk.py", "WalkerState.sites")],
    "the scalar read-out, which raises where the batched `apparatus._readout` "
    "gives NaN: the tests' pair-by-pair reference for it": [
        ("apparatus.py", "relative_sign"), ("apparatus.py", "reconstruct_series")],
    "the complex series that `scattering.reflection_amplitudes` returns and "
    "`scattering.invariants` reads, both names the benchmark wraps; the shipped "
    "runs read real series by `scattering.invariant_rows`": [
        ("scattering.py", "ReflectionSeries")],
    "refuses invalid input and does nothing else: exception constructors, the "
    "maxItems check, whose one user, a free scan's pairs_pi, no shipped config "
    "has, and the checks of a `DisorderSpec`, which only the benchmark and the "
    "tests build": [
        ("config.py", "ConfigInvalid.__init__"), ("apparatus.py", "ChainBroken.__init__"),
        ("config.py", "_max_items"), ("disorder.py", "DisorderSpec.__post_init__")],
}

#: The fourth group, names the benchmark calls or wraps: `bench/tracer.py`
#: wraps its TARGETS by name (read from the file), and `bench/run.py` and
#: `bench/gate.py` call `bench_calls.BENCH_CALLS`, so deleting one breaks
#: `bench/run.py --trace 1`.

TRACE = r"""
import contextlib, io, json, os, sys
package, out, configs = sys.argv[1], sys.argv[2], sys.argv[3:]
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package + os.sep):
        reached.add((os.path.basename(code.co_filename), code.co_qualname))

sys.setprofile(profile)
from qwtopo.cli import entrypoint
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for path in configs:
        run_dir = os.path.join(out, os.path.splitext(os.path.basename(path))[0])
        codes.append(entrypoint(["verify", "--config", path]))
        codes.append(entrypoint(["run", "--config", path, "--out", run_dir]))
    codes.append(entrypoint(["replot", "--out", os.path.join(out, "edge_localization")]))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def defined() -> set:
    """(file, qualified name) of every function and method in the package."""
    out = set()

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((file, prefix + child.name))
                visit(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), file, "")
    return out


def benchmark_names(monkeypatch) -> list:
    """The names `bench/tracer.py` wraps, read from its TARGETS, and those
    `bench/run.py` calls."""
    spec = importlib.util.spec_from_file_location("tracer", os.path.join(ROOT, "bench",
                                                                         "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)
    traced = [(module.rpartition(".")[2] + ".py", attr)
              for _, module, attr, _ in tracer.TARGETS]
    return traced + BENCH_CALLS


def covers(entry, name) -> bool:
    return entry[0] == name[0] and (name[1] == entry[1] or name[1].startswith(entry[1] + "."))


def test_every_package_function_is_reached_by_a_shipped_run_or_declared(tmp_path,
                                                                        monkeypatch):
    configs = [os.path.join(CONFIG_DIR, name) for name in sorted(os.listdir(CONFIG_DIR))]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE)}
    done = subprocess.run([sys.executable, "-c", TRACE, PACKAGE, str(tmp_path), *configs],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * (2 * len(configs) + 1)

    functions = defined()
    declared = [entry for entries in DECLARED.values() for entry in entries]
    declared += benchmark_names(monkeypatch)
    assert [entry for entry in declared
            if not any(covers(entry, name) for name in functions)] == []  # none stale
    reached = {tuple(name) for name in result["reached"]}
    unreached = sorted(name for name in functions - reached
                       if not any(covers(entry, name) for entry in declared))
    assert unreached == []
