"""Correctness gate of the benchmark.

Three checks, all outside the timed region:

* every repetition's output SHA-256s equal those of the first one;
* where `reference_hashes.json` holds the workload's seed, the hashes
  equal the recorded ones (`record_references.py` writes that file);
* a few seeded sample rows of each output table match the dense-matrix
  oracle in `tests/oracles.py`, which shares no code with the package;
  so do a few t=201 configurations of the disorder transition, whose
  reported bracket is also checked (`_check_transition`).
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import os
import random

import numpy as np

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_hashes.json")

#: Largest oracle deviation a correct run may show.
ORACLE_TOL = 1e-9


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_hashes(run) -> dict:
    """SHA-256 of every output file of one run, manifest excluded (it
    carries a timestamp)."""
    return {f"{run.name}/{name}": _sha256(os.path.join(run.out_dir, name))
            for name in sorted(os.listdir(run.out_dir)) if name != "manifest.json"}


def reference_hashes(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh)["workloads"]
    return table.get(workload, {}).get(str(seed))


def load_oracles(root: str):
    """Import tests/oracles.py read-only, without touching sys.path."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("qwtopo_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def binary_pattern(seed, config, sites, p, theta_a, theta_b):
    """Second-coin angles of one disorder configuration, as the disorder
    module documents them: a Philox stream keyed by (seed, config)
    thresholded at p."""
    u = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), config]))
    return np.where(u.random(sites) < p, theta_b, theta_a)


def _check_disorder(oracles, run, rng):
    blk = run.config["disorder"]
    th_a, th_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    rows = _rows(os.path.join(run.out_dir, "disorder_runs.csv"))
    for p, config, half_r0, t, seed in rng.sample(rows, 6):
        t = int(t)
        pattern = binary_pattern(int(seed), int(config), t + 2, p, th_a, th_b)
        r = oracles.dense_reflection(np.zeros(t + 2), pattern, t)
        yield abs((-1j * complex(np.sum(r))).real / 2.0 - half_r0)
    if "transition" in blk:
        yield from _check_transition(oracles, run, rng, th_a, th_b)


def _check_transition(oracles, run, rng, th_a, th_b):
    """The t=201 bisection, whose ensembles no output table holds.  At
    both ends of the reported bracket, p_crit -+ resolution/2, the
    ensemble is recomputed through disorder.ensemble_r0 at the run's t and
    batch size; a few of its configurations are compared with the oracle,
    and its median sign must flip across the bracket, as the bisection
    leaves it."""
    from qwtopo import disorder

    tr = _json(os.path.join(run.out_dir, "transition.json"))
    t, n, res = tr["t"], tr["n_configs"], tr["resolution"]
    medians = []
    for p in (tr["p_crit"] - res / 2, tr["p_crit"] + res / 2):
        p = round(p / res) * res
        spec = disorder.DisorderSpec.for_steps(th_a, th_b, p, t, run.seed, n)
        values = disorder.ensemble_r0(spec, t).values
        medians.append((p, float(np.median(np.sign(values)))))
        for config in rng.sample(range(n), 2):
            pattern = binary_pattern(run.seed, config, t + 2, p, th_a, th_b)
            r = oracles.dense_reflection(np.zeros(t + 2), pattern, t)
            yield abs((-1j * complex(np.sum(r))).real / 2.0 - values[config])
    (p_lo, m_lo), (p_hi, m_hi) = medians
    if m_lo == 0 or (m_hi != 0 and np.sign(m_hi) == np.sign(m_lo)):
        raise ValueError(f"median sign {m_lo:+.2f} at p={p_lo} and {m_hi:+.2f} "
                         f"at p={p_hi} do not bracket the reported p_crit")


def _check_phase_diagram(oracles, run, rng):
    rows = _rows(os.path.join(run.out_dir, "phase_diagram.csv"))
    # Cells with |Q0| near the gauge-degeneracy floor can flip their
    # auto-gauge sign under the last-bit change of the printed angles.
    usable = [row for row in rows if abs(row[2]) > 1e-3]
    for th1, th2, q0, qpi, residual, t in rng.sample(usable, 6):
        t = int(t)
        r = oracles.dense_reflection(np.full(t + 2, th1 * math.pi),
                                     np.full(t + 2, th2 * math.pi), t)
        o_q0, o_qpi = oracles.dense_invariants(r)
        yield abs(o_q0 - q0)
        yield abs(o_qpi - qpi)
        yield abs(1.0 - float(np.sum(np.abs(r) ** 2)) - residual)


def _check_edge(oracles, run, rng):
    blk = run.config["edge"]
    th_a, th_b = blk["theta_a_pi"] * math.pi, blk["theta_b_pi"] * math.pi
    rows = _rows(os.path.join(run.out_dir, "edge.csv"))
    for p, config, p_loc, t in rng.sample(rows, 4):
        t = int(t)
        right = binary_pattern(run.seed, int(config), t + 2, p, th_a, th_b)
        expected = oracles.dense_interface_p_loc(blk["theta_left_pi"] * math.pi,
                                                 right, t)
        yield abs(expected - p_loc)


def _measured_pair(oracles, blk, loss):
    """Invariants the ideal sign read-out reconstructs from a lossy walk:
    each reflected pulse rho_j is seen with amplitude factor
    sqrt((1 + loss)^j)."""
    t = blk["t"]
    r = oracles.dense_reflection(np.full(t + 2, blk["theta1_pi"] * math.pi),
                                 np.full(t + 2, blk["theta2_pi"] * math.pi), t)
    gain = (1.0 + loss) ** np.arange(1, t + 1)
    return oracles.dense_invariants(1j * r.imag * np.sqrt(gain))


def _check_emulate(oracles, run, rng):
    blk = run.config["emulate"]
    loss = blk["model"]["loss_asymmetry"]
    result = _json(os.path.join(run.out_dir, "emulate.json"))
    q0, qpi = _measured_pair(oracles, blk, loss)
    yield abs(q0 - result["q0"])
    yield abs(qpi - result["qpi"])
    t = blk["t"]
    lat, states = oracles.dense_trajectory(
        oracles.sample_angles(np.full(t + 2, blk["theta1_pi"] * math.pi)),
        oracles.sample_angles(np.full(t + 2, blk["theta2_pi"] * math.pi)),
        -1, oracles.H, t, reach=t)
    rows = _rows(os.path.join(run.out_dir, "intensity.csv"))
    lit = [row for row in rows if row[2] > 0.0]
    for step, x, intensity in rng.sample(lit, 4) + rng.sample(rows, 2):
        step, x = int(step), int(x)
        expected = 0.0
        if lat.x_min <= x <= lat.x_max:
            psi = states[step]
            expected = ((1.0 - loss) ** step * abs(psi[lat.index(x, oracles.H)]) ** 2
                        + (1.0 + loss) ** step * abs(psi[lat.index(x, oracles.V)]) ** 2)
        yield abs(expected - intensity)


def _check_mc(oracles, run, rng):
    blk = run.config["mc_errorbars"]
    result = _json(os.path.join(run.out_dir, "mc.json"))
    q0, qpi = _measured_pair(oracles, blk, blk["truth_model"]["loss_asymmetry"])
    yield abs(q0 - result["q0"])
    yield abs(qpi - result["qpi"])


_CHECKS = {
    "disorder": _check_disorder,
    "phase-diagram": _check_phase_diagram,
    "edge": _check_edge,
    "emulate": _check_emulate,
    "mc-errorbars": _check_mc,
}


def oracle_errors(oracles, run) -> list[float]:
    """Absolute deviations of seeded sample outputs of one run from the
    dense-matrix oracle."""
    rng = random.Random(f"{run.name}:{run.seed}")
    return list(_CHECKS[run.config["experiment"]](oracles, run, rng))
