"""Config defaults and dry-run estimates, checked against what `run` does.

`config.estimate` is what `qwtopo verify` prints; here every shipped
config is run with the engine's `real_steps` counted, so the printed
walker count, window and site-steps are the ones the engine really steps:
the site-steps are the sites each yielded step updated.  Disorder and edge
studies step each distinct pattern once, so for them the test counts the
distinct patterns itself, from `config_uniforms`, and the estimate bounds them.

`config.validate`'s schema walker is checked against jsonschema, the
validator it replaced, on seeded mutations of every shipped and benchmark
config.
"""

import copy
import inspect
import json
import math
import os
import random
import runpy
import tracemalloc

import jsonschema
import numpy as np
import pytest

import qwtopo.budget
import qwtopo.disorder
import qwtopo.edges
import qwtopo.runners
import qwtopo.scattering
import qwtopo.walk
from qwtopo import config as cfgmod
from qwtopo import apparatus
from qwtopo.apparatus import ApparatusModel, emulate_measurement
from qwtopo.cli import entrypoint
from qwtopo.dataio import config_hash
from qwtopo.disorder import config_uniforms
from qwtopo.budget import record_site_steps, reflection_site_steps, sample_width
from qwtopo.scattering import ScatteringSystem
from qwtopo.walk import coins

from references import parent_estimate, written_rows
from test_fuzz import _draw, _draw_table_kind

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")
SHIPPED = sorted(os.listdir(CONFIG_DIR))

#: `estimate` of each shipped config as JSON: the counts `verify` prints, the
#: worst cases `validate` guards and the fields it names, frozen.
with open(os.path.join(os.path.dirname(__file__), "shipped_estimates.json")) as _fh:
    SHIPPED_ESTIMATES = json.load(_fh)

#: Optional keys that may lack a default: they are conditional.
CONDITIONAL = {"scan", "phase_diagram", "disorder", "edge", "emulate", "mc_errorbars",
               "scan.start_pi", "scan.stop_pi", "scan.count", "scan.pairs_pi",
               "disorder.p", "disorder.transition"}


def _optional_properties(schema, path=""):
    """(dotted path, subschema) of every optional property in a schema."""
    for key, sub in schema.get("properties", {}).items():
        sub_path = f"{path}.{key}" if path else key
        if key not in schema.get("required", ()):
            yield sub_path, sub
        yield from _optional_properties(sub, sub_path)


def test_every_optional_key_has_a_schema_default():
    seen = set()
    for path, sub in _optional_properties(cfgmod.SCHEMA):
        seen.add(path)
        if path in CONDITIONAL and "default" not in sub:
            continue
        assert "default" in sub, f"{path} has no default in config.SCHEMA"
        jsonschema.Draft202012Validator(sub).validate(sub["default"])
    assert CONDITIONAL <= seen


#: The engine entry points the runners call with values of a resolved config.
ENTRY_POINTS = {
    "phase_diagram": qwtopo.scattering.phase_diagram,
    "scan_line": qwtopo.scattering.scan_line,
    "disorder_curve": qwtopo.disorder.disorder_curve,
    "transition_locator": qwtopo.disorder.transition_locator,
    "localization_vs_disorder": qwtopo.edges.localization_vs_disorder,
    "run_interface": qwtopo.edges.run_interface,
    "monte_carlo_errorbars": apparatus.monte_carlo_errorbars,
    "ErrorRanges": apparatus.ErrorRanges,
}


def test_the_runners_entry_points_state_no_default():
    """`SCHEMA` alone holds a run's defaults: no parameter of an engine
    function a runner passes config values to has one of its own."""
    defaults = {name: [p.name for p in inspect.signature(fn).parameters.values()
                       if p.default is not p.empty] for name, fn in ENTRY_POINTS.items()}
    assert {name: names for name, names in defaults.items() if names} == {}


@pytest.mark.parametrize("name", SHIPPED)
def test_resolve_is_idempotent_and_leaves_its_input_alone(name):
    cfg = cfgmod.load(os.path.join(CONFIG_DIR, name))
    written = copy.deepcopy(cfg)
    resolved = cfgmod.resolve(cfg)
    assert cfg == written
    assert cfgmod.resolve(resolved) == resolved


def test_resolve_maps_a_lone_p_to_a_grid_and_fills_nested_defaults():
    cfg = {"experiment": "disorder",
           "disorder": {"theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": 11, "p": 0.3,
                        "transition": {"t": 151}}}
    cfgmod.validate(cfg)
    resolved = cfgmod.resolve(cfg)
    block = resolved["disorder"]
    assert "p" not in block and block["p_grid"] == [0.3]
    assert block["n_configs"] == 50 and resolved["seed"] == 0
    assert block["transition"] == {"t": 151, "n_configs": 200, "resolution": 0.025}
    mc = cfgmod.resolve({"experiment": "mc-errorbars", "mc_errorbars": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11}})["mc_errorbars"]
    assert mc["truth_model"]["efficiency_h"] == 1.0
    assert mc["ranges"]["eom_error_deg"] == 1.0
    mc["ranges"]["sbc_error_deg"] = 9.0  # the filled copy is not the schema's own
    assert cfgmod.resolve({"experiment": "mc-errorbars", "mc_errorbars": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11}})["mc_errorbars"] == {
        **mc, "ranges": {**mc["ranges"], "sbc_error_deg": 1.0}}


@pytest.mark.parametrize("name", SHIPPED)
def test_verify_quotes_the_walkers_and_window_run_steps(tmp_path, monkeypatch,
                                                        capsys, name):
    path = os.path.join(CONFIG_DIR, name)
    rows, widths, site_steps, widest, walkers = [], [], [], {}, {}
    batching, sized = [], set()  # the per_walker of each open over_batches call; (steps, it)

    def counting(real_steps):
        def counted(coin1, coin2, offset, sites, site, coin, steps, read=None, history=None,
                    workspace=None):
            batch = coin2[0].shape[0]
            if batching:
                sized.add((steps, batching[-1]))
            widths.append(sites)
            rows.append(batch)
            widest[steps] = max(widest.get(steps, 0), batch)
            walkers[steps] = walkers.get(steps, 0) + batch
            for ra, rb in written_rows(coin1, coin2, offset, sites, site, coin, steps, read,
                                       history):
                # the sites this step updated, those of its H or V rows
                site_steps.append(len(set(ra.tolist()) | set(rb.tolist())) * batch)
            return real_steps(coin1, coin2, offset, sites, site, coin, steps, read, history,
                              workspace=workspace)
        return counted

    def recording(over_batches):
        def recorded(fn, items, per_walker, *args, **kwargs):
            batching.append(per_walker)
            try:
                return over_batches(fn, items, per_walker, *args, **kwargs)
            finally:
                batching.pop()
        return recorded

    for module in (qwtopo.walk, qwtopo.scattering):
        monkeypatch.setattr(module, "real_steps", counting(module.real_steps))
    for module in (qwtopo.scattering, qwtopo.disorder, qwtopo.apparatus):
        monkeypatch.setattr(module, "over_batches", recording(module.over_batches))
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", path, "--out", str(out)]) == 0
    assert entrypoint(["verify", "--config", path]) == 0
    printed = capsys.readouterr().out

    cfg = cfgmod.load(path)
    est = cfgmod.estimate(cfg)
    assert f"estimated simulations: {est['simulations']}\n" in printed
    assert f"estimated window: {est['window_sites']} sites\n" in printed
    assert f"estimated site-steps: {est['site_steps']}\n" in printed
    batch = {resolved_steps(cfg, field): walkers for field, walkers in est["batch_walkers"]}
    assert "estimated walkers per batch: " + ", ".join(
        f"{walkers} at {field}" for field, walkers in est["batch_walkers"]) + "\n" in printed
    assert est["window_sites"] == max(widths)
    assert est["site_steps"] <= cfgmod.MAX_SITE_STEPS
    assert est["exact"] == (cfg["experiment"] not in ("disorder", "edge"))
    assert ("upper bounds" in printed) == (not est["exact"])
    # every batched call is sized by the held of the plan's stage of its steps
    plan = {stage[1]: stage[5] for stage in cfgmod._plan(cfgmod.resolve(cfg))[1]}
    assert sized == {(steps, plan[steps]) for steps, _ in sized}
    assert bool(sized) == (cfg["experiment"] != "emulate")
    if est["exact"]:
        assert widest == batch  # the widest batch of each stage, keyed by its steps
        assert sum(rows) == est["simulations"]
        assert sum(site_steps) == est["site_steps"]
    else:
        distinct = distinct_patterns(cfg, out)
        assert walkers == distinct  # one walker per distinct pattern, keyed by steps
        assert sum(distinct.values()) <= est["simulations"]
        assert widest.keys() == batch.keys()
        assert all(widest[steps] <= batch[steps] for steps in widest)
        per_walker = record_site_steps if cfg["experiment"] == "edge" else reflection_site_steps
        assert sum(site_steps) == sum(per_walker(t) * n for t, n in distinct.items())
        assert sum(site_steps) <= est["site_steps"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(cfg)


def bisection_probes(p_crit, resolution):
    """The p a bisection over [0, 1] probed to end on the bracket centred on p_crit."""
    lo, hi, probes = 0.0, 1.0, [0.0, 1.0]
    while hi - lo > resolution * (1 + 1e-9):
        mid = round((0.5 * (lo + hi)) / resolution) * resolution
        if not lo < mid < hi:
            break
        probes.append(mid)
        lo, hi = (mid, hi) if p_crit > mid else (lo, mid)
    assert 0.5 * (lo + hi) == p_crit
    return probes


def distinct_patterns(cfg, out) -> dict:
    """{steps: walkers} that a disorder or edge run steps: one per distinct
    pattern u < p of each study, drawn with `config_uniforms`, plus the edge
    run's intensity-map walker."""
    resolved = cfgmod.resolve(cfg)
    kind, seed = resolved["experiment"], resolved["seed"]
    blk = resolved[cfgmod.BLOCK_KEY[kind]]

    def distinct(t, n, sites, members):
        uniforms = config_uniforms(seed, range(n), sites)
        return len({row.tobytes() for m, p in members for row in uniforms[:m] < p})

    t, n = blk["t"], blk["n_configs"]
    if kind == "edge":
        members = [(1 if p in (0.0, 1.0) else n, p) for p in blk["p_grid"]]
        return {t: distinct(t, n, t + 2, members) + 1}
    counts = {t: distinct(t, n, sample_width(t), [(n, p) for p in blk["p_grid"]])}
    if "transition" in blk:
        tr = blk["transition"]
        p_crit = json.loads((out / "transition.json").read_text())["p_crit"]
        probes = bisection_probes(p_crit, tr["resolution"])
        found = distinct(tr["t"], tr["n_configs"], sample_width(tr["t"]),
                         [(tr["n_configs"], p) for p in probes])
        counts[tr["t"]] = counts.get(tr["t"], 0) + found
    return counts


def resolved_steps(cfg, field):
    """The value of a dotted steps field of a config, defaults filled in."""
    node = cfgmod.resolve(cfg)
    for key in field.split("."):
        node = node[key]
    return node


@pytest.mark.parametrize("name", SHIPPED)
def test_the_estimate_of_each_shipped_config_is_pinned(name):
    est = cfgmod.estimate(cfgmod.load(os.path.join(CONFIG_DIR, name)))
    assert json.loads(json.dumps(est)) == SHIPPED_ESTIMATES[name.removesuffix(".json")]


@pytest.mark.parametrize("name", SHIPPED)
def test_validate_returns_the_resolved_config_and_its_estimate(name):
    cfg = cfgmod.load(os.path.join(CONFIG_DIR, name))
    assert cfgmod.validate(cfg) == (cfgmod.resolve(cfg), cfgmod.estimate(cfg))


def _valid(cfg) -> bool:
    try:
        cfgmod.validate(cfg)
    except cfgmod.ConfigInvalid:
        return False
    return True


def test_the_plan_gives_the_estimates_of_the_study_model():
    """`config.estimate`, read from one `_plan` per kind, equals the `Study`
    model it replaced (`references.parent_estimate`) on every shipped and
    benchmark config and every config of the schema fuzz that validates."""
    checked = 0
    for cfg in [*BASES, *fuzz_corpus()]:
        if _valid(cfg):
            assert cfgmod.estimate(cfg) == parent_estimate(cfgmod.resolve(cfg)), cfg
            checked += 1
    assert checked > len(BASES) + 1000


#: The estimate counts that `validate` caps, each with its cap.
GUARDS = {"site_steps": "MAX_SITE_STEPS", "held": "MAX_HELD", "table_rows": "MAX_CELLS"}


def _with_steps(cfg, field, t):
    """A copy of a resolved config with the dotted steps field set to t."""
    out = copy.deepcopy(cfg)
    *path, last = field.split(".")
    node = out
    for key in path:
        node = node[key]
    node[last] = t
    return out


def _over(cfg) -> list:
    est = parent_estimate(cfg)
    return [key for key, cap in GUARDS.items() if est[key] > getattr(cfgmod, cap)]


def _at_the_guard(cfg) -> tuple[list, list]:
    """(copies, guards): copies of a resolved config with the steps field of
    its last stage set to the two t below and the two from the first t at
    which `validate` would refuse it for its cost, and the caps that first
    refused t exceeds."""
    field = parent_estimate(cfg)["batch_walkers"][-1][0]
    lo = hi = resolved_steps(cfg, field)
    while not _over(_with_steps(cfg, field, hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _over(_with_steps(cfg, field, mid)) else (mid, hi)
    return ([_with_steps(cfg, field, t) for t in range(max(hi - 2, 1), hi + 2)],
            _over(_with_steps(cfg, field, hi)))


def test_the_plan_gives_the_estimates_of_the_study_model_at_its_guards():
    """The same on seeded `test_fuzz` draws of every kind, at their drawn t
    and at the t around the first one that each draw's cost guard refuses:
    there the site-steps switch to the cone's floor t * t // 4."""
    rng = np.random.default_rng(39)
    kinds = ("scan", "phase-diagram", "disorder", "edge", None)  # None: emulate or mc-errorbars
    drawn, guards = [], set()
    for case in range(100):
        kind = kinds[case % len(kinds)]
        cfg = cfgmod.resolve(_draw(rng) if kind is None else _draw_table_kind(rng, kind))
        drawn.append(cfg)
        if not _over(cfg) and case % 2 == 0:
            near, over = _at_the_guard(cfg)
            drawn += near
            guards.update(over)
    for cfg in drawn:
        assert cfgmod._estimate(cfg) == parent_estimate(cfg), cfg
    assert guards == set(GUARDS)
    assert {cfg["experiment"] for cfg in drawn} == set(cfgmod.EXPERIMENTS)
    # transitions, one of a single configuration, whose first call steps 3 walkers
    transitions = [cfg["disorder"]["transition"] for cfg in drawn
                   if "transition" in cfg.get("disorder", {})]
    assert any(tr["n_configs"] == 1 for tr in transitions)
    assert any(len(cfg.get("edge", {}).get("p_grid", ())) == 1 for cfg in drawn)


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("name", SHIPPED)
def test_verify_and_run_resolve_and_estimate_a_config_once(tmp_path, monkeypatch, command,
                                                           name):
    calls = {"resolve": 0, "_estimate": 0}

    def counting(attr):
        inner = getattr(cfgmod, attr)

        def counted(cfg):
            calls[attr] += 1
            return inner(cfg)
        return counted

    for attr in calls:
        monkeypatch.setattr(cfgmod, attr, counting(attr))
    argv = [command, "--config", os.path.join(CONFIG_DIR, name)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert entrypoint(argv) == 0
    assert calls == {"resolve": 1, "_estimate": 1}


def test_manifest_hashes_the_config_as_written(tmp_path):
    cfg = {"experiment": "disorder",
           "disorder": {"theta_a_pi": 1.68, "theta_b_pi": 1.36, "t": 5, "p": 0.5,
                        "n_configs": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert entrypoint(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(cfg)
    assert manifest["config_sha256"] != config_hash(cfgmod.resolve(cfg))


OVERSIZED = {
    "phase_diagram.resolution": {"experiment": "phase-diagram",
                                 "phase_diagram": {"resolution": 100000, "t": 30}},
    "emulate.t": {"experiment": "emulate",
                  "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": 30000}},
    "disorder.transition.n_configs": {
        "experiment": "disorder",
        "disorder": {"theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": 11,
                     "transition": {"n_configs": 10**5}}},
}


def _rejected(tmp_path, capsys, command, cfg, field, bound):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = entrypoint(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"ConfigInvalid at field path {field}: " in captured.err
    assert bound in captured.err
    assert "is valid" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("field", sorted(OVERSIZED))
def test_configs_over_the_site_step_budget_exit_with_code_two(tmp_path, capsys,
                                                              command, field):
    cfg = OVERSIZED[field]
    assert cfgmod.estimate(cfg)["site_steps"] > cfgmod.MAX_SITE_STEPS
    _rejected(tmp_path, capsys, command, cfg, field, "MAX_SITE_STEPS")


#: Angles past the +-2**20 bound, where `run` once failed or wrote NaN.
WIDE_ANGLES = {
    "emulate.alpha_pi": {"experiment": "emulate",
                         "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11,
                                     "alpha_pi": 1e308}},
    "disorder.theta_a_pi": {"experiment": "disorder",
                            "disorder": {"theta_a_pi": 1e308, "theta_b_pi": 1.36, "t": 5,
                                         "p": 0.5, "n_configs": 2}},
    "scan.pairs_pi.0.0": {"experiment": "scan",
                          "scan": {"parametrization": "free", "pairs_pi": [[1e17, 0.5]],
                                   "t": 5}},
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("field", sorted(WIDE_ANGLES))
def test_an_angle_past_the_bound_exits_with_code_two(tmp_path, capsys, command, field):
    _rejected(tmp_path, capsys, command, WIDE_ANGLES[field], field,
              f"is greater than the maximum of {2**20}")


@pytest.mark.parametrize("bound", [2**20, -2**20])
def test_angles_at_the_bound_run_with_a_reduction_warning(tmp_path, capsys, bound):
    cfg = {"experiment": "scan",
           "scan": {"parametrization": "free", "pairs_pi": [[bound, 0.5]], "t": 5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert entrypoint(["verify", "--config", str(path)]) == 0
    assert entrypoint(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    warning = f"scan.pairs_pi.0.0: angle {bound}*pi is reduced to 0.0*pi (mod 2)"
    captured = capsys.readouterr()
    assert captured.out.count(warning) == captured.err.count(warning) == 1
    assert (tmp_path / "out" / "scan.csv").read_text().count("nan") == 0


#: Steps enough that the cone arrays alone would need gigabytes.
HUGE_T = {
    "emulate.t": {"experiment": "emulate",
                  "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": 10**9}},
    "disorder.transition.t": {
        "experiment": "disorder",
        "disorder": {"theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": 11,
                     "transition": {"t": 10**9}}},
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("field", sorted(HUGE_T))
def test_an_oversized_t_exits_with_code_two_without_building_its_cone(
        tmp_path, capsys, monkeypatch, command, field):
    """The guard refuses on the floor t * t // 4 of a walker's cone, in O(1),
    and builds no `budget.cone` of the oversized t."""
    cone = qwtopo.budget.cone

    def small_cone(lo, hi, sites, steps, read=None):
        assert steps <= 10**5, f"the cost guard built a cone of {steps} steps"
        return cone(lo, hi, sites, steps, read)

    monkeypatch.setattr(qwtopo.budget, "cone", small_cone)
    _rejected(tmp_path, capsys, command, HUGE_T[field], field, "MAX_SITE_STEPS")


#: Inside the site-step budget, but its tables and SVG would need some 230 GB.
TOO_MANY_CELLS = {"experiment": "phase-diagram",
                  "phase_diagram": {"resolution": 18257, "t": 1}}


@pytest.mark.parametrize("command", ["verify", "run"])
def test_phase_diagram_over_the_cell_cap_exits_with_code_two(tmp_path, capsys, command):
    assert cfgmod.estimate(TOO_MANY_CELLS)["site_steps"] <= cfgmod.MAX_SITE_STEPS
    _rejected(tmp_path, capsys, command, TOO_MANY_CELLS, "phase_diagram.resolution",
              "MAX_CELLS")


def test_the_largest_phase_diagram_at_t_30_is_valid():
    cfg = {"experiment": "phase-diagram", "phase_diagram": {"resolution": 1360, "t": 30}}
    cfgmod.validate(cfg)
    assert cfgmod.estimate(cfg)["simulations"] == cfgmod.MAX_CELLS


#: Inside the site-step budget, but `walk.record` would keep a 15.5 GB history.
LONG_HISTORY = {"experiment": "emulate",
                "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": 22000}}


@pytest.mark.parametrize("command", ["verify", "run"])
def test_a_walker_over_the_held_cap_exits_with_code_two(tmp_path, capsys, command):
    est = cfgmod.estimate(LONG_HISTORY)
    assert est["site_steps"] <= cfgmod.MAX_SITE_STEPS
    assert est["held"] * 8 > 15 * 10**9 and est["held_field"] == "emulate.t"
    _rejected(tmp_path, capsys, command, LONG_HISTORY, "emulate.t", "MAX_HELD")


def _mc(t, horizon):
    return {"experiment": "mc-errorbars", "mc_errorbars": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": t, "horizon": horizon, "n_sets": 10}}


@pytest.mark.parametrize("command", ["verify", "run"])
def test_an_mc_horizon_past_t_exits_with_code_two(tmp_path, capsys, command):
    """The schema accepts t = 8 and horizon = 9, but the fit compares the
    first horizon steps of the t that the emulated data records."""
    assert not list(cfgmod.schema_errors(_mc(8, 9)))
    _rejected(tmp_path, capsys, command, _mc(8, 9), "mc_errorbars.horizon", "t = 8")


def test_an_mc_horizon_of_t_runs(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_mc(8, 8)))
    assert entrypoint(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "mc.json").read_text())["horizon"] == 8


@pytest.mark.parametrize("command", ["verify", "run"])
def test_an_emulation_of_one_step_exits_with_code_two(tmp_path, capsys, command):
    """r_1 is zero on every sample: the lead coin at x = -1 is the identity,
    so nothing returns within one step and `run` would find no sign."""
    _rejected(tmp_path, capsys, command, _emulate(1), "emulate.t", "minimum of 2")


def test_an_emulation_of_two_steps_runs(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_emulate(2)))
    assert entrypoint(["run", "--config", str(path), "--out", str(out)]) == 0
    emulated = json.loads((out / "emulate.json").read_text())
    assert emulated["magnitudes"][0] == 0.0 and emulated["q0"] != 0.0


def test_the_longest_emulation_under_the_held_cap_is_valid():
    """mc-errorbars emulates its data with one whole walk and writes no table,
    so only the held cap bounds its t."""
    t = 5781
    cfg = {"experiment": "mc-errorbars",
           "mc_errorbars": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": t, "n_sets": 1}}
    cfgmod.validate(cfg)
    cfg["mc_errorbars"]["t"] = t + 1
    with pytest.raises(cfgmod.ConfigInvalid, match="MAX_HELD"):
        cfgmod.validate(cfg)


def test_a_fit_with_a_horizon_of_t_is_held_to_what_a_model_holds():
    """With a horizon of t, one fit model holds its history of the first
    horizon steps and its share of the compared intensities
    (`budget.fit_held`), more than the emulated walk, so the held cap
    bounds t below the emulation's 5 781."""
    t = 4728
    cfg = {"experiment": "mc-errorbars",
           "mc_errorbars": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": t, "horizon": t,
                            "n_sets": 1}}
    assert cfgmod.validate(cfg)[1]["held"] == qwtopo.budget.fit_held(t, t)
    cfg["mc_errorbars"].update(t=t + 1, horizon=t + 1)
    with pytest.raises(cfgmod.ConfigInvalid, match="MAX_HELD"):
        cfgmod.validate(cfg)


#: What a run may hold beyond `estimate`'s "held", in bytes: numpy's ufunc
#: buffers (about 190 KB while the intensities are squared in place), the
#: fit's copies of the first horizon + 1 steps of one walker's window, and
#: the read-out's (t,) rows.
HELD_SLACK = 512 * 1024


@pytest.mark.parametrize("kind", ["emulate", "mc-errorbars"])
def test_a_whole_walk_peaks_within_what_estimate_holds(tmp_path, kind):
    """At t = 400, one walker's history is 5.3 MB, so a copy of its window
    would show.  The emulation squares its window in place, and the
    mc-errorbars run keeps only the first horizon + 1 steps of the
    emulated intensities beside the fit's walkers.  The emulate table is
    outside this bound; its writer's peak is pinned in test_cli_io."""
    t = 400
    block = {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": t}
    if kind == "emulate":
        cfg = {"experiment": "emulate", "emulate": block}
        system = ScatteringSystem.for_steps(0.47 * math.pi, 1.21 * math.pi, t)
        model = ApparatusModel(loss_asymmetry=0.03)
        emulate_measurement(system, 9, model)  # imports and caches outside the peak

        def run():
            emulate_measurement(system, t, model)
    else:
        cfg = {"experiment": "mc-errorbars", "mc_errorbars": {**block, "n_sets": 2}}
        small = cfgmod.resolve({**cfg, "mc_errorbars": {**block, "t": 9, "n_sets": 2}})
        qwtopo.runners._run_mc_errorbars(small, 0, qwtopo.runners.Outputs(str(tmp_path), "csv"))

        def run():
            qwtopo.runners._run_mc_errorbars(cfgmod.resolve(cfg), 0,
                                             qwtopo.runners.Outputs(str(tmp_path), "csv"))
    held = cfgmod.estimate(cfg)["held"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held * 8 > 5 * 10**6
    assert peak <= held * 8 + HELD_SLACK


def _edge(t, n_configs, p_grid):
    return {"experiment": "edge",
            "edge": {"theta_left_pi": 0.52, "theta_a_pi": 1.68, "theta_b_pi": 1.36,
                     "t": t, "n_configs": n_configs, "p_grid": p_grid}}


def _emulate(t):
    return {"experiment": "emulate", "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": t}}


def _disorder(t, n_configs, p_grid):
    return {"experiment": "disorder",
            "disorder": {"theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": t,
                         "n_configs": n_configs, "p_grid": p_grid}}


def _scan(t, count):
    return {"experiment": "scan", "scan": {"parametrization": "theta2=2*theta1", "t": t,
                                           "start_pi": 0.1, "stop_pi": 1.9, "count": count}}


#: Inside the site-step and held budgets, but each would write a table of
#: tens of millions of rows or more.
LARGE_TABLES = {
    "emulate.t": _emulate(5780),  # 67 M intensity rows
    "edge.t": _edge(3000, 1, [0.5]),  # 18 M intensity rows
    "disorder.n_configs": _disorder(1, 2 * 10**8, [0.5]),
    "edge.n_configs": _edge(1, 15 * 10**7, [0.5]),
    "scan.count": _scan(1, 10**8),
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("field", sorted(LARGE_TABLES))
def test_a_table_over_the_cell_cap_exits_with_code_two(tmp_path, capsys, monkeypatch,
                                                       command, field):
    def unreachable(*args):
        raise AssertionError("the runner was reached")

    for kind in qwtopo.runners.RUNNERS:
        monkeypatch.setitem(qwtopo.runners.RUNNERS, kind, unreachable)
    cfg = LARGE_TABLES[field]
    est = cfgmod.estimate(cfg)
    assert est["site_steps"] <= cfgmod.MAX_SITE_STEPS and est["held"] <= cfgmod.MAX_HELD
    assert est["table_rows"] > 9 * cfgmod.MAX_CELLS and est["table_field"] == field
    _rejected(tmp_path, capsys, command, cfg, field, "MAX_CELLS")


@pytest.mark.parametrize("make", [_emulate, lambda t: _edge(t, 1, [0.5])])
def test_the_largest_intensity_map_is_valid(make):
    """(t + 1) x (2 (t + 16) + 1) rows: 1 845 961 at t = 952, 1 849 806 at 953."""
    cfgmod.validate(make(952))
    with pytest.raises(cfgmod.ConfigInvalid, match="MAX_CELLS") as refused:
        cfgmod.validate(make(953))
    assert refused.value.path == make(953)["experiment"] + ".t"


#: A transition study whose two bulks share a phase: its bisection has no
#: sign change to find, and `run` would stop with NoCrossing.
SAME_PHASE_TRANSITION = {"experiment": "disorder", "seed": 3, "disorder": {
    "theta_a_pi": 0.63, "theta_b_pi": 0.7, "t": 11, "n_configs": 20,
    "transition": {"t": 101, "n_configs": 20}}}


def test_a_one_config_transition_bounds_its_first_call(monkeypatch):
    """The bisection's first call steps the pattern of each endpoint and the
    first midpoint's: 3 walkers for one configuration, which `verify`'s widest
    transition batch still bounds."""
    cfg = cfgmod.resolve({"experiment": "disorder", "seed": 3, "disorder": {
        "theta_a_pi": 0.63, "theta_b_pi": 1.26, "t": 11, "n_configs": 1,
        "transition": {"t": 101, "n_configs": 1, "resolution": 0.25}}})
    widths = []
    real_steps = qwtopo.scattering.real_steps

    def counted(coin1, coin2, *args, **kwargs):
        widths.append(coin2[0].shape[0])
        return real_steps(coin1, coin2, *args, **kwargs)

    monkeypatch.setattr(qwtopo.scattering, "real_steps", counted)
    block = cfg["disorder"]
    try:
        qwtopo.disorder.transition_locator(block["theta_a_pi"] * np.pi, block["theta_b_pi"] * np.pi,
                                           cfg["seed"], **block["transition"])
    except qwtopo.disorder.NoCrossing:
        pass  # one configuration may keep its sign; the first call is made all the same
    assert widths[0] == 3
    assert max(widths) <= dict(cfgmod.estimate(cfg)["batch_walkers"])["disorder.transition.t"]


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("theta_b_pi", [0.7, 1.0, 2.0, -1.3, 2.9])
def test_a_transition_between_bulks_of_one_phase_exits_with_code_two(
        tmp_path, capsys, command, theta_b_pi):
    """With coin 1 the identity, sign Q0 = -sign(sin theta): 0.63 pi and
    0.7 pi (and -1.3 pi, 2.9 pi) share a sign, and pi or 2 pi closes the gap."""
    cfg = copy.deepcopy(SAME_PHASE_TRANSITION)
    cfg["disorder"]["theta_b_pi"] = theta_b_pi
    _rejected(tmp_path, capsys, command, cfg, "disorder.theta_b_pi", "opposite Q0 sign")


def test_crossing_transitions_still_validate():
    """The shipped crossing and the benchmark's configs, among them the
    ensemble workload's transition study."""
    crossing = cfgmod.load(os.path.join(CONFIG_DIR, "disorder_crossing.json"))
    transitions = [cfg for cfg in [crossing] + _bench_configs()
                   if "transition" in cfg.get("disorder", {})]
    assert len(transitions) == 2
    for cfg in transitions:
        cfgmod.validate(cfg)
    without = copy.deepcopy(SAME_PHASE_TRANSITION)
    del without["disorder"]["transition"]
    cfgmod.validate(without)  # a curve alone needs no crossing


def test_the_closed_form_q0_sign_matches_the_engine():
    """Half r(0) of clean bulks after t = 101 steps of `sample_rows`, coin 1
    the identity, on a theta grid kept 0.05 pi away from 0 and pi, taken
    past 2 pi and below 0 to check the reduction."""
    grid = np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(1.05, 1.95, 19)])
    grid = np.concatenate([grid, grid[::5] + 2.0, grid[::5] - 2.0])
    angles = np.repeat(grid[:, None] * math.pi, 103, axis=1)
    half_r0 = qwtopo.scattering.sample_rows(None, coins(angles), 101).sum(axis=1) / 2
    assert np.all(np.abs(half_r0) > 0.1)
    assert [cfgmod.q0_sign(float(theta)) for theta in grid] == np.sign(half_r0).tolist()


#: Coin angles over pi on which the lead may fall silent, 0 and pi among them.
SILENT_GRID = (0, 0.25, 0.47, 0.5, 0.75, 1, 1.21, 1.25, 1.5)


@pytest.mark.parametrize("sbc_error_deg", (0.0, 1.0))
@pytest.mark.parametrize("t", (2, 3, 11))
def test_verify_refuses_exactly_the_measurements_through_a_silent_lead(t, sbc_error_deg):
    """`validate` refuses an emulation, and at t = 11 a Monte-Carlo fit, with
    code 2 at theta2_pi exactly where |r(0)| = |sum rho| of `sample_rows` on
    the angles the apparatus realizes (`apparatus.perturbed_angles`) is below
    1e-6: both coins multiples of pi, or theta2 at t = 2.  The model's
    offset moves pi, but not 0."""
    pairs = [(a, b) for a in SILENT_GRID for b in SILENT_GRID]
    params = apparatus._params([ApparatusModel(sbc_error=math.radians(sbc_error_deg))])
    systems = [ScatteringSystem.for_steps(a * math.pi, b * math.pi, t) for a, b in pairs]
    theta1, theta2 = (np.concatenate([apparatus.perturbed_angles(getattr(s, name), params)
                                      for s in systems]) for name in ("theta1", "theta2"))
    rho = qwtopo.scattering.sample_rows(coins(theta1), coins(theta2), t)
    silent = np.abs(rho.sum(axis=1)) < 1e-6
    assert silent.any() and not silent.all()
    kinds = [("emulate", "emulate", "model")]
    if t >= 7:
        kinds.append(("mc-errorbars", "mc_errorbars", "truth_model"))
    for (a, b), quiet in zip(pairs, silent):
        for kind, block, model in kinds:
            cfg = {"experiment": kind, block: {"theta1_pi": a, "theta2_pi": b, "t": t,
                                               model: {"sbc_error_deg": sbc_error_deg}}}
            if quiet:
                with pytest.raises(cfgmod.ConfigInvalid, match="nothing returns") as refused:
                    cfgmod.validate(cfg)
                assert refused.value.path == f"{block}.theta2_pi", (a, b)
            else:
                cfgmod.validate(cfg)


@pytest.mark.parametrize("command", ["verify", "run"])
def test_a_silent_lead_exits_with_code_two(tmp_path, capsys, command):
    cfg = {"experiment": "emulate", "emulate": {"theta1_pi": 0, "theta2_pi": 1, "t": 11}}
    _rejected(tmp_path, capsys, command, cfg, "emulate.theta2_pi", "nothing returns")


def test_a_coin_offset_from_pi_still_runs(tmp_path):
    """(theta1, theta2) = (pi, 0) with a 1 degree SBC offset realizes theta1
    off pi, so the walk mixes and the emulation and the fit run."""
    for kind, block, model in (("emulate", "emulate", "model"),
                               ("mc-errorbars", "mc_errorbars", "truth_model")):
        cfg = {"experiment": kind, block: {"theta1_pi": 1, "theta2_pi": 0, "t": 11,
                                           model: {"sbc_error_deg": 1}}}
        if kind == "mc-errorbars":
            cfg[block]["n_sets"] = 20
        path = tmp_path / f"{block}.json"
        path.write_text(json.dumps(cfg))
        assert entrypoint(["verify", "--config", str(path)]) == 0
        assert entrypoint(["run", "--config", str(path), "--out", str(tmp_path / block)]) == 0


def _refuse_token(token):
    raise ValueError(f"non-finite JSON token {token}")


def _run_json(tmp_path, cfg, name: str) -> dict:
    """`verify` and `run` of cfg, both exiting 0, and the run's `name` file
    parsed as strict JSON (no NaN or Infinity token)."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert entrypoint(["verify", "--config", str(path)]) == 0
    assert entrypoint(["run", "--config", str(path), "--out", str(out)]) == 0
    for other in ("manifest.json", name):
        doc = json.loads((out / other).read_text(), parse_constant=_refuse_token)
    return doc


def test_a_lead_within_rounding_of_silence_writes_null_invariants(tmp_path):
    """(0, 1e-8 pi) passes the exact silent-lead rule, and |r(0)| = 1.6e-7 is
    below 1e-6: both experiments run and write null where Q0 has no sign."""
    block = {"theta1_pi": 0, "theta2_pi": 1e-8, "t": 11}
    emulated = _run_json(tmp_path / "e", {"experiment": "emulate", "emulate": block},
                         "emulate.json")
    assert emulated["q0"] is None and emulated["qpi"] is None
    assert emulated["residual"] > 0.99
    fitted = _run_json(tmp_path / "m", {"experiment": "mc-errorbars",
                                        "mc_errorbars": {**block, "n_sets": 20}}, "mc.json")
    assert fitted["q0"] is None and fitted["qpi"] is None
    svg = (tmp_path / "m" / "out" / "mc_invariants.svg").read_text()
    assert "nan" not in svg


@pytest.mark.parametrize("shots, seed", [(5, 1), (10, 1), (30, 0), (100, 7), (300, 0)])
def test_too_few_shots_to_read_a_sign_write_null_invariants(tmp_path, shots, seed):
    """Pairs that count equal, or no photon, give no sign: the run exits 0 and
    writes null invariants, with the magnitudes it measured."""
    cfg = {"experiment": "emulate", "seed": seed, "emulate": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 11, "mode": "shots", "shots": shots}}
    doc = _run_json(tmp_path, cfg, "emulate.json")
    assert doc["q0"] is None and doc["qpi"] is None and doc["residual"] is None
    assert len(doc["magnitudes"]) == 11


def test_default_shots_at_t_60_write_null_invariants(tmp_path):
    """At the default 10**6 shots and t = 60 the late pulses hold too few
    photons to read every sign (every seed of 0 .. 9 does so)."""
    cfg = {"experiment": "emulate", "emulate": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": 60, "mode": "shots"}}
    assert _run_json(tmp_path, cfg, "emulate.json")["q0"] is None


@pytest.mark.parametrize("shots, t, loss, accepted", [
    (10**20, 11, 0.0, False), (10**400, 2, -0.1, False), (9 * 10**18, 11, 0.0, True),
    (10**6, 313, 0.1, True), (10**6, 314, 0.1, False), (10**6, 700, 0.1, False),
    (10**6, 952, 0.03, True), (10**6, 952, -0.1, True)])
def test_verify_refuses_shots_past_the_largest_poisson_mean(shots, t, loss, accepted):
    """shots * (1 + max(loss, 0))**t bounds every Poisson mean a shots-mode
    emulate draws; past `LAM_MAX` (about 9.22e18), where numpy refuses to
    draw, the config exits 2 naming emulate.shots."""
    cfg = {"experiment": "emulate", "emulate": {
        "theta1_pi": 0.47, "theta2_pi": 1.21, "t": t, "mode": "shots", "shots": shots,
        "model": {"loss_asymmetry": loss}}}
    if accepted:
        cfgmod.validate(cfg)
        return
    with pytest.raises(cfgmod.ConfigInvalid, match="Poisson") as refused:
        cfgmod.validate(cfg)
    assert refused.value.path == "emulate.shots"


def test_lam_max_is_the_largest_mean_numpy_draws_from():
    rng = np.random.default_rng(0)
    assert rng.poisson(cfgmod.LAM_MAX) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(cfgmod.LAM_MAX, np.inf))


#: Small configs whose largest table is driven by the named field.
TABLE_FIELDS = {
    "scan.count": _scan(5, 20),
    "scan.pairs_pi": {"experiment": "scan", "scan": {
        "parametrization": "free", "t": 5, "pairs_pi": [[0.1, 0.2]] * 3}},
    "phase_diagram.resolution": {"experiment": "phase-diagram",
                                 "phase_diagram": {"resolution": 8, "t": 5}},
    "disorder.n_configs": _disorder(5, 5, [0.1, 0.2]),
    "disorder.p_grid": _disorder(5, 2, [0.1, 0.2, 0.3]),
    "edge.n_configs": _edge(1, 100, [0.5]),
    "edge.p_grid": _edge(1, 2, [0.5] * 40),
    "edge.t": _edge(3, 2, [0.5]),
    "emulate.t": _emulate(2),
}


@pytest.mark.parametrize("field", sorted(TABLE_FIELDS))
def test_the_cell_cap_names_the_field_that_drives_the_rows(monkeypatch, field):
    cfg = TABLE_FIELDS[field]
    est = cfgmod.estimate(cfg)
    assert est["table_field"] == field
    monkeypatch.setattr(cfgmod, "MAX_CELLS", est["table_rows"])
    cfgmod.validate(cfg)
    monkeypatch.setattr(cfgmod, "MAX_CELLS", est["table_rows"] - 1)
    with pytest.raises(cfgmod.ConfigInvalid, match="MAX_CELLS") as refused:
        cfgmod.validate(cfg)
    assert refused.value.path == field


# --------------------------------------------------- schema walker parity

#: The validator `config.validate` used before its walker, kept as the
#: reference: Draft 2020-12 with "integer" meaning a JSON integer only.
REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)),
)(cfgmod.SCHEMA)


def _ordered(errors):
    """Errors in `config.validate`'s order: deepest path first, then by message."""
    return sorted(errors, key=lambda e: (-len(e[0]), e[1]))


def assert_parity(cfg) -> set:
    """The walker yields jsonschema's violations, in its words, and `validate`
    raises the first of them.  Returns the keywords that reported one."""
    expected = _ordered((tuple(e.absolute_path), e.message, e.validator)
                        for e in REFERENCE.iter_errors(cfg))
    assert _ordered(cfgmod.schema_errors(cfg)) == [e[:2] for e in expected], cfg
    if expected:
        with pytest.raises(cfgmod.ConfigInvalid) as caught:
            cfgmod.validate(cfg)
        path, message, _ = expected[0]
        assert (caught.value.path, caught.value.reason) == (".".join(map(str, path)), message)
    return {keyword for *_, keyword in expected}


def _bench_configs():
    workloads = runpy.run_path(os.path.join(ROOT, "bench", "workloads.py"))["WORKLOADS"]
    return [{**cfg, "seed": 5} for workload in workloads.values()
            for _, cfg in workload.configs]


#: The free scan form, which no shipped config uses: its pairs give the
#: deepest paths, such as scan.pairs_pi.0.1.
FREE_SCAN = {"experiment": "scan", "seed": 1,
             "scan": {"parametrization": "free", "t": 5,
                      "pairs_pi": [[0.1, 0.2], [0.3, 0.4], [1.5, 0.25]]}}

BASES = ([cfgmod.load(os.path.join(CONFIG_DIR, name)) for name in SHIPPED]
         + _bench_configs() + [FREE_SCAN])


def _schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


KNOWN_KEYS = sorted({key for node in _schema_nodes(cfgmod.SCHEMA)
                     for key in node.get("properties", {})})
VALUES = [None, True, False, 0, 1, 2, 5, -1, 5.0, 0.0, 0.5, -0.2, 2.5, 101, 1e6,
          "x", "", "free", "exact", "shots", "scan", "theta1=2*theta2",
          [], [0.1], [True], [0.1, "a"], [[0.1, 0.2]], [[0.1]], [[0.1, 0.2, 0.3]],
          [[True, None]], [[]], {}, {"zz": 1}, {"t": 5.0}, {"loss_asymmetry": 0.5}]


def _containers(node):
    yield node
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def mutate(cfg, rng):
    """Set a value, delete a key or add a key, one to three times."""
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(list(_containers(cfg)))
        op = rng.randrange(3)
        if isinstance(node, list):
            if node:
                node[rng.randrange(len(node))] = copy.deepcopy(rng.choice(VALUES))
            else:
                node.append(copy.deepcopy(rng.choice(VALUES)))
        elif op == 0 and node:
            node[rng.choice(list(node))] = copy.deepcopy(rng.choice(VALUES))
        elif op == 1 and node:
            del node[rng.choice(list(node))]
        else:
            key = rng.choice(KNOWN_KEYS + ["zz", "t2", "extra"])
            node[key] = copy.deepcopy(rng.choice(VALUES))
    return cfg


def fuzz_corpus():
    """The seeded mutations of `BASES` that the walker and `resolve` are checked on."""
    rng = random.Random(20261018)
    for _ in range(20_000):
        yield mutate(copy.deepcopy(rng.choice(BASES)), rng)


def test_walker_matches_jsonschema_on_seeded_mutations():
    reported = set()
    for cfg in fuzz_corpus():
        reported |= assert_parity(cfg)
    for base in BASES:
        assert assert_parity(base) == set()
    # every keyword that reports a violation itself was reached
    assert reported == set(cfgmod.KEYWORDS) - {"items", "properties"}


def _resolved(cfg):
    """`resolve(cfg)`, or TypeError where a mutation it is not meant for, such
    as a block that is no object, stops it."""
    try:
        return cfgmod.resolve(cfg)
    except TypeError:
        return TypeError


def test_resolve_copies_as_deepcopy_did_and_shares_no_container(monkeypatch):
    """`resolve` copies a config, and each default it fills in, with
    `config._copied`: for every shipped and benchmark config and the fuzz
    corpus it gives what `copy.deepcopy` gives, and its result shares no dict
    or list with the config or with `SCHEMA`, its defaults among them."""
    configs = BASES + list(fuzz_corpus())
    got = [_resolved(cfg) for cfg in configs]
    monkeypatch.setattr(cfgmod, "_copied", copy.deepcopy)
    assert got == [_resolved(cfg) for cfg in configs]
    schema = {id(node) for node in _containers(cfgmod.SCHEMA)}
    resolved = [(cfg, out) for cfg, out in zip(configs, got) if isinstance(out, dict)]
    assert len(resolved) > len(configs) // 2
    for cfg, out in resolved:
        written = {id(node) for node in _containers(cfg)}
        assert not {id(node) for node in _containers(out)} & (schema | written), cfg


def _with(base, path, value):
    cfg = copy.deepcopy(base)
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return cfg


EMULATE = cfgmod.load(os.path.join(CONFIG_DIR, "emulate_lossy.json"))
DIAGRAM = cfgmod.load(os.path.join(CONFIG_DIR, "phase_diagram.json"))
DISORDER = cfgmod.load(os.path.join(CONFIG_DIR, "disorder_crossing.json"))

HAND_WRITTEN = {
    "bool-integer": (_with(EMULATE, ["seed"], True),
                     "seed", "True is not of type 'integer'"),
    "bool-number": (_with(EMULATE, ["emulate", "theta1_pi"], False),
                    "emulate.theta1_pi", "False is not of type 'number'"),
    "integral-float": (_with(EMULATE, ["emulate", "t"], 5.0),
                       "emulate.t", "5.0 is not of type 'integer'"),
    "unexpected-keys": ({**DIAGRAM, "zz": 1, "t": 5},
                        "", "Additional properties are not allowed ('t', 'zz' were unexpected)"),
    "unexpected-key": (_with(EMULATE, ["emulate", "model", "gain"], 1.0), "emulate.model",
                       "Additional properties are not allowed ('gain' was unexpected)"),
    "min-items-1": (_with(DISORDER, ["disorder", "p_grid"], []),
                    "disorder.p_grid", "[] should be non-empty"),
    "min-items-2": (_with(FREE_SCAN, ["scan", "pairs_pi", 1], [0.3]),
                    "scan.pairs_pi.1", "[0.3] is too short"),
    "max-items": (_with(FREE_SCAN, ["scan", "pairs_pi", 0], [0.1, 0.2, 0.3]),
                  "scan.pairs_pi.0", "[0.1, 0.2, 0.3] is too long"),
    "nested-item": (_with(FREE_SCAN, ["scan", "pairs_pi", 0, 1], "a"),
                    "scan.pairs_pi.0.1", "'a' is not of type 'number'"),
    "enum": (_with(DIAGRAM, ["experiment"], "diagram"), "experiment",
             "'diagram' is not one of ['scan', 'phase-diagram', 'disorder', 'edge', "
             "'emulate', 'mc-errorbars']"),
    "required": ({"experiment": "scan", "scan": {"parametrization": "free"}},
                 "scan", "'t' is a required property"),
    "exclusive-minimum": (_with(DIAGRAM, ["phase_diagram", "tolerance"], 0),
                          "phase_diagram.tolerance",
                          "0 is less than or equal to the minimum of 0"),
    "maximum": (_with(DISORDER, ["disorder", "p_grid", 3], 1.5),
                "disorder.p_grid.3", "1.5 is greater than the maximum of 1"),
    "minimum-before-type": (_with(DIAGRAM, ["phase_diagram", "t"], 0.5),
                            "phase_diagram.t", "0.5 is less than the minimum of 1"),
}


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_walker_words_each_violation_as_jsonschema(case):
    cfg, path, message = HAND_WRITTEN[case]
    with pytest.raises(cfgmod.ConfigInvalid) as caught:
        cfgmod.validate(cfg)
    assert (caught.value.path, caught.value.reason) == (path, message)
    assert_parity(cfg)


def test_walker_implements_every_keyword_the_schema_uses():
    used = {key for node in _schema_nodes(cfgmod.SCHEMA) for key in node}
    assert used - {"$schema", "default"} <= set(cfgmod.KEYWORDS)
    for node in _schema_nodes(cfgmod.SCHEMA):  # `enum` compares strings only
        assert all(isinstance(option, str) for option in node.get("enum", ()))
