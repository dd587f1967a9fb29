"""Config defaults and dry-run estimates, checked against what `run` does.

`config.estimate` is what `qwtopo verify` prints; here every shipped
config is run with the engine's `real_steps` counted, so the printed
walker count, window and site-steps are the ones the engine really steps:
the site-steps are the sites each yielded step updated.
"""

import copy
import json
import os

import jsonschema
import pytest

import qwtopo.scattering
import qwtopo.walk
from qwtopo import RunManifest
from qwtopo import config as cfgmod
from qwtopo.cli import entrypoint
from qwtopo.dataio import config_hash

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = sorted(os.listdir(CONFIG_DIR))

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


@pytest.mark.parametrize("name", SHIPPED)
def test_resolve_is_idempotent_and_leaves_its_input_alone(name):
    cfg = cfgmod.load(os.path.join(CONFIG_DIR, name))
    written = copy.deepcopy(cfg)
    resolved = cfgmod.resolve(cfg)
    assert cfg == written
    assert cfgmod.resolve(resolved) == resolved


def test_resolve_maps_a_lone_p_to_a_grid_and_fills_nested_defaults():
    cfg = {"experiment": "disorder",
           "disorder": {"theta_a_pi": 1.68, "theta_b_pi": 1.36, "t": 11, "p": 0.3,
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
    rows, widths, site_steps, widest = [], [], [], {}

    def counting(real_steps):
        def counted(th1, th2, a, b, steps, read=None):
            widths.append(a.shape[0])
            rows.append(a.shape[1])
            widest[steps] = max(widest.get(steps, 0), a.shape[1])
            for lo, h, v in real_steps(th1, th2, a, b, steps, read):
                site_steps.append(h.size)  # the sites this step updated
                yield lo, h, v
        return counted

    for module in (qwtopo.walk, qwtopo.scattering):
        monkeypatch.setattr(module, "real_steps", counting(module.real_steps))
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", path, "--out", str(out),
                       "--threads", "1"]) == 0
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
    assert widest == batch  # the widest batch of each stage, keyed by its steps
    assert est["window_sites"] == max(widths)
    assert est["site_steps"] <= cfgmod.MAX_SITE_STEPS
    if "transition" in cfg.get("disorder", {}):
        assert sum(rows) <= est["simulations"]
        assert sum(site_steps) <= est["site_steps"]
    else:
        assert sum(rows) == est["simulations"]
        assert sum(site_steps) == est["site_steps"]
    manifest = RunManifest.read(str(out / "manifest.json"))
    assert manifest.config_sha256 == config_hash(cfg)


def resolved_steps(cfg, field):
    """The value of a dotted steps field of a config, defaults filled in."""
    node = cfgmod.resolve(cfg)
    for key in field.split("."):
        node = node[key]
    return node


def test_manifest_hashes_the_config_as_written(tmp_path):
    cfg = {"experiment": "disorder",
           "disorder": {"theta_a_pi": 1.68, "theta_b_pi": 1.36, "t": 5, "p": 0.5,
                        "n_configs": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert entrypoint(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = RunManifest.read(str(tmp_path / "out" / "manifest.json"))
    assert manifest.config_sha256 == config_hash(cfg)
    assert manifest.config_sha256 != config_hash(cfgmod.resolve(cfg))


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
    and builds no `walk.cone` of the oversized t."""
    cone = qwtopo.walk.cone

    def small_cone(lo, hi, sites, steps, read=None):
        assert steps <= 10**5, f"the cost guard built a cone of {steps} steps"
        return cone(lo, hi, sites, steps, read)

    for module in (qwtopo.walk, qwtopo.scattering):
        monkeypatch.setattr(module, "cone", small_cone)
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


def test_the_longest_emulation_under_the_held_cap_is_valid():
    t = 5780
    cfg = {"experiment": "emulate", "emulate": {"theta1_pi": 0.47, "theta2_pi": 1.21, "t": t}}
    cfgmod.validate(cfg)
    cfg["emulate"]["t"] = t + 1
    with pytest.raises(cfgmod.ConfigInvalid, match="MAX_HELD"):
        cfgmod.validate(cfg)
