"""Benchmark workloads: the qwtopo configs each one runs, made from a seed.

Every workload is a list of `qwtopo run` invocations.  The seed goes
into each generated config's `seed` and onto the command line as
`--seed`; nothing else depends on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

P_GRID = [i / 10 for i in range(11)]

# configs/disorder_crossing.json: case 2 of the disorder study, whose
# ensemble sign flips near p = 0.63.  The bisection resolution is 1/64
# instead of the shipped 0.025: on a power-of-two grid every seed takes
# the same 6 bisection steps (8 probes of 200 configs at t=201), while on
# the 0.025 grid the rounding made it 5 or 6 depending on the seed, which
# changed the work of a run by 10 % between seeds.
ENSEMBLE = {
    "experiment": "disorder",
    "disorder": {
        "theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": 11, "n_configs": 50,
        "p_grid": P_GRID,
        "transition": {"t": 201, "n_configs": 200, "resolution": 1 / 64},
    },
}

# configs/phase_diagram.json at the code-default resolution (64 x 64).
SWEEP = {
    "experiment": "phase-diagram",
    "phase_diagram": {"resolution": 64, "t": 30, "tolerance": 0.05},
}

# The shipped mc_errorbars, edge_localization and emulate_lossy configs.
MC_ERRORBARS = {
    "experiment": "mc-errorbars",
    "mc_errorbars": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11, "horizon": 7,
        "n_sets": 1000, "truth_model": {"loss_asymmetry": 0.02},
        "ranges": {"loss_asymmetry": 0.03, "eom_error_deg": 1.0,
                   "sbc_error_deg": 1.0, "efficiency_span": 0.02},
    },
}
EDGE = {
    "experiment": "edge",
    "edge": {
        "theta_left_pi": 0.52, "theta_a_pi": 1.68, "theta_b_pi": 1.36,
        "t": 13, "n_configs": 50, "p_grid": P_GRID,
    },
}
EMULATE = {
    "experiment": "emulate",
    "emulate": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11, "alpha_pi": 0.25,
        "mode": "exact", "model": {"loss_asymmetry": 0.03},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # ((run name, config template), ...)


WORKLOADS = {
    "ensemble": Workload("ensemble", (("disorder", ENSEMBLE),)),
    "sweep": Workload("sweep", (("phase_diagram", SWEEP),)),
    "apparatus": Workload("apparatus", (("mc", MC_ERRORBARS), ("edge", EDGE),
                                        ("emulate", EMULATE))),
}


@dataclass(frozen=True)
class Run:
    """One `qwtopo run` invocation: its config file and output directory."""

    name: str
    config: dict
    config_path: str
    out_dir: str
    seed: int

    def argv(self) -> list[str]:
        return ["run", "--config", self.config_path, "--out", self.out_dir,
                "--seed", str(self.seed)]


def materialize(workload: Workload, seed: int, work_dir: str) -> list[Run]:
    """Write the workload's configs for `seed` under work_dir."""
    runs = []
    for name, template in workload.configs:
        cfg = {**template, "seed": seed}
        path = os.path.join(work_dir, "configs", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        runs.append(Run(name, cfg, path, os.path.join(work_dir, "out", name), seed))
    return runs
