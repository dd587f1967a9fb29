"""One workspace per study: reused engine memory never changes a result.

A `walk.Workspace` holds the engine's buffer and read-out, the history of
`record_cut` and a pattern study's gathered coins, sized for the study's
widest batch, and every engine call of the study carves them from it.
These tests check that reuse leaves every bit as a fresh call gives it,
that a reused call allocates none of those arrays again, and that arrays
handed out without a workspace are the caller's alone.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np

from qwtopo import budget, disorder, edges
from qwtopo.cli import entrypoint
from qwtopo.disorder import PatternStudy, coin_table, pattern_coins
from qwtopo.scattering import sample_rows
from qwtopo.walk import H, Workspace, coins, record

PI = np.pi
TH_A, TH_B = 0.63 * PI, 1.26 * PI
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def reprs(values) -> list:
    return [repr(v) for v in np.asarray(values).tolist()]


def blocks(rng, sizes, sites) -> list:
    """Random (size, sites) boolean masks, one block per size, every row new."""
    return [rng.random((size, sites)) < 0.5 for size in sizes]


def test_an_ensemble_study_whose_batches_shrink_and_grow_gives_fresh_bits():
    """One t = 201 study steps new patterns in batches of 200, 200, 125 and
    200 walkers, all in its one workspace; each member's half r(0) has the
    bits of a fresh `sample_rows` call of its block."""
    t, rng = 201, np.random.default_rng(5)
    sites = budget.sample_width(t)
    study = disorder._ensemble(TH_A, TH_B, 1, t, 1)[1]
    table = coin_table(TH_A, TH_B)
    for block in blocks(rng, (200, 200, 125, 200), sites):
        got, = study.values([block])
        want = disorder._halves(sample_rows(None, pattern_coins(table, block), t))
        assert reprs(got) == reprs(want)
    assert len(study.stepped) == 725


def test_an_interface_study_whose_batches_shrink_and_grow_gives_fresh_bits():
    """The same for a t = 13 `record_cut` study: P_loc of every member has
    the bits of a fresh `record_cut` call of its block."""
    t, rng = 13, np.random.default_rng(6)
    theta_left = 0.52 * PI
    study = PatternStudy(TH_A, TH_B,
                         lambda coin2, workspace: edges._ploc_batch(coin2, theta_left, t,
                                                                    workspace),
                         budget.ploc_held(t))
    table = coin_table(TH_A, TH_B)
    for block in blocks(rng, (40, 40, 25, 40), t + 2):
        got, = study.values([block])
        want = edges._ploc_batch(pattern_coins(table, block), theta_left, t, Workspace())
        assert reprs(got) == reprs(want)


def test_a_second_same_width_call_allocates_no_batch_array():
    """After a first call of 200 new patterns at t = 201, a second of 200
    others keeps the workspace's array, and its traced peak is the complex
    series `_halves` sums, which each call makes, and less than the
    smallest array the workspace holds, the gathered coins, more: neither
    the kernel's buffer and read-out nor the coins are allocated again."""
    t, rng = 201, np.random.default_rng(7)
    sites = budget.sample_width(t)
    study = disorder._ensemble(TH_A, TH_B, 1, t, 1)[1]
    first, second = blocks(rng, (200, 200), sites)
    study.values([first])
    storage = study.workspace.storage
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        study.values([second])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert study.workspace.storage is storage
    series, gathered = 2 * second.shape[0] * t * 8, 2 * second.size * 8
    assert series <= peak < series + gathered


def test_arrays_handed_out_without_a_workspace_are_the_callers():
    """`sample_rows`, `record` and `pattern_coins` called with no workspace
    return arrays that no later call overwrites, with or without one."""
    t, rng = 11, np.random.default_rng(8)
    theta = coins(rng.uniform(0, 2 * PI, (5, t + 2)))
    masks = rng.random((5, 6)) < 0.5
    table = coin_table(TH_A, TH_B)
    rho = sample_rows(None, theta, t)
    history = record(0, None, theta, -1, H, t)[1:3]
    gathered = pattern_coins(table, masks)
    kept = [a.copy() for a in (rho, *history, *gathered)]
    workspace = Workspace()
    other = coins(rng.uniform(0, 2 * PI, (5, t + 2)))
    for space in (None, workspace, workspace):
        sample_rows(None, other, t, workspace=space)
        record(0, None, other, -1, H, t, workspace=space)
        pattern_coins(table, ~masks, workspace=space)
    for got, want in zip((rho, *history, *gathered), kept):
        assert np.array_equal(got, want)


def test_every_shipped_config_run_twice_in_one_interpreter_gives_the_recorded_hashes(tmp_path):
    """All shipped configs, then all of them again, in this one interpreter:
    both rounds write the bytes `tests/shipped_hashes.json` records, so no
    study's workspace leaks into another."""
    with open(os.path.join(os.path.dirname(__file__), "shipped_hashes.json")) as fh:
        recorded = json.load(fh)
    names = sorted(os.listdir(CONFIG_DIR))
    for round_ in range(2):
        for name in names:
            out = tmp_path / f"{round_}-{name}"
            assert entrypoint(["run", "--config", os.path.join(CONFIG_DIR, name),
                               "--out", str(out)]) == 0
            got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(out.iterdir()) if f.name != "manifest.json"}
            assert got == recorded[name], (round_, name)
