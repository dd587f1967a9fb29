"""The benchmark's reference outputs hold for every seed they record.

`bench/reference_hashes.json` holds the SHA-256 of every output of each
benchmark workload for seeds 0-15, as `bench/record_references.py` wrote
them, and the benchmark's correctness gate compares each run with them.
Here every workload of `bench/workloads.py` runs in-process for each of
those seeds, as `record_references.py` runs them, and its output hashes
(`gate.output_hashes`) must equal the recorded ones.  `bench/` is only
read: its modules are imported from their files, without touching
sys.path, and the runs write under a temporary directory.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from qwtopo import cli

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _load(name, monkeypatch):
    """bench/<name>.py as the module `name` for the rest of the test:
    dataclasses look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ("ensemble", "sweep", "apparatus"))
def test_every_recorded_seed_gives_the_reference_hashes(tmp_path, monkeypatch, workload):
    gate, workloads = _load("gate", monkeypatch), _load("workloads", monkeypatch)
    assert workload in workloads.WORKLOADS
    differ = []
    for seed in range(16):
        expected = gate.reference_hashes(workload, seed)
        assert expected, f"no reference hashes for {workload} seed {seed}"
        hashes = {}
        for run in workloads.materialize(workloads.WORKLOADS[workload], seed,
                                         str(tmp_path / str(seed))):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.entrypoint(run.argv()) == 0, (seed, run.name)
            hashes.update(gate.output_hashes(run))
        differ += [(seed, name) for name in sorted(set(hashes) | set(expected))
                   if hashes.get(name) != expected.get(name)]
    assert not differ
