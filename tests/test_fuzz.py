"""A seeded fuzz of `verify` then `run` for every experiment.

`verify` accepting a config must mean that `run` completes it: each drawn
config is verified and, where `verify` exits 0, run in-process through
`cli.entrypoint`, and every JSON file the run writes must parse as strict
JSON (no NaN or Infinity tokens).  For `emulate` and `mc-errorbars` the
draws reach the classes that once passed `verify` and stopped `run` with
exit 3: shots too few to read every sign, angles within rounding of a
silent lead, and shot budgets past numpy's largest Poisson mean.  The
`scan`, `phase-diagram`, `disorder` (transitions included) and `edge`
draws run with `--format json`, so their tables are JSON too, and they
reach cells with no sign to read, which a table writes as null.  Each
property also runs a stream of its own in which angles are often drawn
log-uniform in magnitude up to 1e308: past the schema's +-2**20 bound
`verify` refuses them, and within it `run` completes them.
"""

import contextlib
import io
import json
import os

import numpy as np

from qwtopo import config
from qwtopo.cli import entrypoint

CONFIGS = 240
#: Configs of each wide-angle stream.
WIDE_CONFIGS = 60


def _strict(token):
    raise ValueError(f"non-finite JSON token {token}")


def _angle(rng) -> float:
    """Uniform, or an integer k in {0, +-1, 2} plus an offset of 0, +-1e-9 or +-1e-6."""
    if rng.random() < 0.5:
        return float(rng.uniform(-2.0, 4.0))
    return int(rng.choice([0, 1, -1, 2])) + float(rng.choice([0.0, 1e-9, -1e-9, 1e-6, -1e-6]))


def _wide_angle(rng) -> float:
    """Half the time `_angle`, else log-uniform in magnitude on [2, 1e308],
    with a random sign."""
    if rng.random() < 0.5:
        return _angle(rng)
    return float(rng.choice([-1.0, 1.0]) * 2.0 * 5e307 ** rng.random())


def _block(properties: dict, rng) -> dict:
    """Some of the number fields of a SCHEMA block, each drawn across its
    whole range, its endpoints included where the schema allows them."""
    out = {}
    for name, prop in properties.items():
        if rng.random() < 0.25:
            continue  # left to its default
        low = prop.get("minimum", prop.get("exclusiveMinimum"))
        high = prop["maximum"]
        ends = [high] + ([low] if "minimum" in prop else [])
        out[name] = float(rng.choice(ends)) if rng.random() < 0.2 \
            else float(rng.uniform(low, high))
    return out


def _draw(rng, angle=_angle) -> dict:
    props = config.SCHEMA["properties"]
    kind = "emulate" if rng.random() < 0.6 else "mc-errorbars"
    # log-uniform on [2, 120]: an emulate's intensity map grows as t**2
    t = int(np.rint(2.0 * 60.0 ** rng.random()))
    block = {"theta1_pi": angle(rng), "theta2_pi": angle(rng), "t": t}
    if kind == "emulate":
        block["model"] = _block(props["emulate"]["properties"]["model"]["properties"], rng)
        if rng.random() < 0.2:
            block["alpha_pi"] = float(rng.uniform(-1.0, 1.0)) if angle is _angle \
                else angle(rng)
        if rng.random() < 0.6:
            block["mode"] = "shots"
            block["shots"] = int(10 ** rng.uniform(0.0, 21.0))
    else:
        sub = props["mc_errorbars"]["properties"]
        block["truth_model"] = _block(sub["truth_model"]["properties"], rng)
        block["ranges"] = _block(sub["ranges"]["properties"], rng)
        block["n_sets"] = int(rng.integers(1, 31))
        block["horizon"] = int(rng.integers(1, t + 3))
    return {"experiment": kind, "seed": int(rng.integers(0, 2**31)),
            config.BLOCK_KEY[kind]: block}


def _verify_then_run(tmp_path, cfg, out, *options) -> int:
    """Write `cfg`, verify it and, where `verify` exits 0, run it into `out`:
    the exit code of `verify`, which must be 0 or 2, with `run` exiting 0 after a 0."""
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        verified = entrypoint(["verify", "--config", path])
        ran = entrypoint(["run", "--config", path, "--out", out, *options]) \
            if verified == 0 else None
    assert verified in (0, 2), (cfg, err.getvalue())
    if verified == 0:
        assert ran == 0, (cfg, err.getvalue())
    return verified


def _measurement_runs(tmp_path, rng, draws, angle) -> tuple[int, int]:
    """(refused, unsigned) of `draws` measurement configs verified then run."""
    refused = unsigned = 0
    for case in range(draws):
        cfg = _draw(rng, angle)
        out = str(tmp_path / f"run{case}")
        verified = _verify_then_run(tmp_path, cfg, out)
        refused += verified == 2
        if verified:
            continue
        for name in sorted(os.listdir(out)):
            if name.endswith(".json"):
                with open(os.path.join(out, name)) as fh:
                    doc = json.loads(fh.read(), parse_constant=_strict)
                unsigned += name in ("emulate.json", "mc.json") and doc["q0"] is None
    return refused, unsigned


def test_verify_accepting_a_measurement_config_means_run_completes_it(tmp_path):
    refused, unsigned = _measurement_runs(tmp_path, np.random.default_rng(7), CONFIGS, _angle)
    # the draws reach refusals and runs with no readable sign alike
    assert refused >= 10 and unsigned >= 10, (refused, unsigned)
    (tmp_path / "wide").mkdir()
    refused, _ = _measurement_runs(tmp_path / "wide", np.random.default_rng(17),
                                   WIDE_CONFIGS, _wide_angle)
    assert refused >= 10 and WIDE_CONFIGS - refused >= 5, refused  # refusals and runs alike


TABLE_CONFIGS = 160


def _p_grid(rng) -> list:
    return sorted(float(rng.choice([0.0, 1.0])) if rng.random() < 0.3 else
                  float(rng.uniform(0, 1)) for _ in range(int(rng.integers(1, 5))))


def _draw_table_kind(rng, kind: str, angle=_angle) -> dict:
    """A `scan`, `phase-diagram`, `disorder` or `edge` config, small enough
    to run in milliseconds, a disorder transition in a fraction of a second."""
    t = int(rng.integers(1, 41))
    if kind == "scan":
        line = str(rng.choice(["theta1=2*theta2", "theta2=2*theta1", "free"]))
        block = {"parametrization": line, "t": t}
        if line == "free":
            block["pairs_pi"] = [[angle(rng), angle(rng)]
                                 for _ in range(int(rng.integers(1, 9)))]
        else:
            block.update(start_pi=angle(rng), stop_pi=angle(rng),
                         count=int(rng.integers(2, 30)))
    elif kind == "phase-diagram":
        block = {"resolution": int(rng.integers(8, 25)), "t": t}
        if rng.random() < 0.5:
            block["tolerance"] = float(rng.uniform(0.0, 0.5)) or 0.5
    elif kind == "disorder":
        block = {"theta_a_pi": angle(rng), "theta_b_pi": angle(rng), "t": t,
                 "n_configs": int(rng.integers(1, 30)), "p_grid": _p_grid(rng)}
        if rng.random() < 0.4:
            block["transition"] = {"t": int(rng.integers(101, 122)),
                                   "n_configs": int(rng.integers(1, 25)),
                                   "resolution": float(rng.uniform(0.05, 0.5))}
    else:
        block = {"theta_left_pi": angle(rng), "theta_a_pi": angle(rng),
                 "theta_b_pi": angle(rng), "t": int(rng.integers(1, 21)),
                 "n_configs": int(rng.integers(1, 20)), "p_grid": _p_grid(rng)}
    return {"experiment": kind, "seed": int(rng.integers(0, 2**31)),
            config.BLOCK_KEY[kind]: block}


def _nulls(doc) -> int:
    if isinstance(doc, list):
        return sum(map(_nulls, doc))
    if isinstance(doc, dict):
        return sum(map(_nulls, doc.values()))
    return doc is None


def _table_runs(tmp_path, rng, draws, angle) -> tuple[dict, int, int]:
    """(runs of each kind, transitions, null cells) of `draws` table configs,
    the kinds in turn, verified then run with JSON tables."""
    kinds = ("scan", "phase-diagram", "disorder", "edge")
    ran, nulls = dict.fromkeys(kinds, 0), 0
    transitions = 0
    for case in range(draws):
        kind = kinds[case % len(kinds)]
        cfg = _draw_table_kind(rng, kind, angle)
        out = str(tmp_path / f"run{case}")
        if _verify_then_run(tmp_path, cfg, out, "--format", "json"):
            continue
        ran[kind] += 1
        transitions += "transition.json" in os.listdir(out)
        tables = [name for name in sorted(os.listdir(out)) if name.endswith(".json")]
        assert len(tables) > 1 and not any(name.endswith(".csv") for name in os.listdir(out))
        for name in tables:
            with open(os.path.join(out, name)) as fh:
                nulls += _nulls(json.loads(fh.read(), parse_constant=_strict))
    return ran, transitions, nulls


def test_verify_accepting_a_table_config_means_run_writes_strict_json(tmp_path):
    ran, transitions, nulls = _table_runs(tmp_path, np.random.default_rng(11), TABLE_CONFIGS,
                                          _angle)
    # every kind runs, a transition among them, and some cell has no sign to read
    assert min(ran.values()) >= 20 and transitions >= 3 and nulls >= 1, (ran, transitions, nulls)
    (tmp_path / "wide").mkdir()
    ran, _, _ = _table_runs(tmp_path / "wide", np.random.default_rng(13), WIDE_CONFIGS,
                            _wide_angle)
    # refusals, and runs of kinds that have angles: a phase diagram has none
    assert WIDE_CONFIGS - sum(ran.values()) >= 10 and \
        sum(ran.values()) - ran["phase-diagram"] >= 5, ran
