"""Experiment configuration: schema, defaults, warnings, dry-run estimates.

A configuration is one JSON object with an "experiment" kind, an
optional master "seed", and exactly one kind-specific block.  All
angles are given in units of pi with a "_pi" key suffix; values of
magnitude 2 or more are accepted but flagged as mod-2 reductions by
`config_warnings`.

Optional keys take their defaults from `SCHEMA` alone, filled in by
`resolve`, whose output is all that the runners and `estimate` read.
`validate` also rejects keys the runner would ignore (`p` next to `p_grid`),
an emulate mixing angle the read-out cannot use, and a config whose
predicted cost exceeds `MAX_SITE_STEPS`, `MAX_HELD` or `MAX_CELLS`.
"""

from __future__ import annotations

import copy
import json
import math

import jsonschema

from .apparatus import ALPHA_GUARD, within_guard
from .dataio import IoFailure
from .disorder import DEFAULT_P_GRID
from .scattering import reflection_site_steps, reflection_window
from .walk import batch_walkers, held, record_site_steps, record_window

EXPERIMENTS = ("scan", "phase-diagram", "disorder", "edge", "emulate",
               "mc-errorbars")

#: JSON key of each kind's block.
BLOCK_KEY = {
    "scan": "scan",
    "phase-diagram": "phase_diagram",
    "disorder": "disorder",
    "edge": "edge",
    "emulate": "emulate",
    "mc-errorbars": "mc_errorbars",
}


#: Largest predicted light-cone site-steps (`estimate`) that `validate`, and so
#: `verify` and `run`, accept: tens of seconds on one core.  A cone holds half
#: its window at large t, so this accepts the large runs 10**9 window ones did.
MAX_SITE_STEPS = 5 * 10**8
#: Most float64 elements one walker may hold in the engine (`walk.held`), 1 GiB:
#: `walk.record`'s history grows as t * t, so an emulation stops at t = 5 780.
MAX_HELD = 2**27
#: Most cells of a phase diagram: about 1.3 GB of tables and SVG, whatever t is.
MAX_CELLS = 1360**2


class ConfigInvalid(ValueError):
    """Schema violation, carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)


_ANGLE = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 1}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_P_GRID = {"type": "array", "items": _PROB, "minItems": 1,
           "default": list(DEFAULT_P_GRID)}
_ENSEMBLE = {**_COUNT, "default": 50}


def _number(low, high, default, low_bound="minimum"):
    return {"type": "number", low_bound: low, "maximum": high, "default": default}


def _optional_block(**properties):
    return {"type": "object", "additionalProperties": False, "default": {},
            "properties": properties}


_MODEL = _optional_block(
    efficiency_h=_number(0, 1, 1.0, "exclusiveMinimum"),
    efficiency_v=_number(0, 1, 1.0, "exclusiveMinimum"),
    loss_asymmetry=_number(-0.1, 0.1, 0.0),
    eom_error_deg=_number(-10, 10, 0.0),
    sbc_error_deg=_number(-10, 10, 0.0))

_RANGES = _optional_block(
    loss_asymmetry=_number(0, 0.1, 0.03),
    eom_error_deg=_number(0, 10, 1.0),
    sbc_error_deg=_number(0, 10, 1.0),
    efficiency_span=_number(0, 0.5, 0.02))

#: The schema of every config.  An optional key without a "default" is
#: conditional: the block kind, the scan line or free keys, `disorder.p`
#: (resolved into `p_grid`) and the optional `disorder.transition`.
SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "scan": {
            "type": "object",
            "additionalProperties": False,
            "required": ["parametrization", "t"],
            "properties": {
                "parametrization": {"enum": ["theta1=2*theta2", "theta2=2*theta1",
                                             "free"]},
                "start_pi": _ANGLE,
                "stop_pi": _ANGLE,
                "count": {"type": "integer", "minimum": 2},
                "pairs_pi": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": _ANGLE,
                              "minItems": 2, "maxItems": 2},
                },
                "t": _COUNT,
            },
        },
        "phase_diagram": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "resolution": {"type": "integer", "minimum": 8, "default": 64},
                "t": {**_COUNT, "default": 30},
                "tolerance": _number(0, 0.5, 0.05, "exclusiveMinimum"),
            },
        },
        "disorder": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta_a_pi", "theta_b_pi", "t"],
            "properties": {
                "theta_a_pi": _ANGLE,
                "theta_b_pi": _ANGLE,
                "p": _PROB,
                "p_grid": _P_GRID,
                "t": _COUNT,
                "n_configs": _ENSEMBLE,
                "transition": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "t": {"type": "integer", "minimum": 101, "default": 201},
                        "n_configs": {**_COUNT, "default": 200},
                        "resolution": _number(0, 0.5, 0.025, "exclusiveMinimum"),
                    },
                },
            },
        },
        "edge": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta_left_pi", "theta_a_pi", "theta_b_pi"],
            "properties": {
                "theta_left_pi": _ANGLE,
                "theta_a_pi": _ANGLE,
                "theta_b_pi": _ANGLE,
                "p_grid": _P_GRID,
                "t": {**_COUNT, "default": 13},
                "n_configs": _ENSEMBLE,
            },
        },
        "emulate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta1_pi", "theta2_pi", "t"],
            "properties": {
                "theta1_pi": _ANGLE,
                "theta2_pi": _ANGLE,
                "t": _COUNT,
                "alpha_pi": {**_ANGLE, "default": 0.25},
                "model": _MODEL,
                "mode": {"enum": ["exact", "shots"], "default": "exact"},
                "shots": {**_COUNT, "default": 1_000_000},
            },
        },
        "mc_errorbars": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta1_pi", "theta2_pi", "t"],
            "properties": {
                "theta1_pi": _ANGLE,
                "theta2_pi": _ANGLE,
                "t": {"type": "integer", "minimum": 7},
                "truth_model": _MODEL,
                "n_sets": {**_COUNT, "default": 1000},
                "horizon": {**_COUNT, "default": 7},
                "ranges": _RANGES,
            },
        },
    },
}


def _reject_non_finite(node, path: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{path}.{i}" if path else str(i))
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigInvalid(path, f"{node} is not a finite number")


def load(path: str) -> dict:
    """Parse a configuration file.

    Only the JSON syntax is checked here, plus one rule the schema cannot
    state: every number must be finite (json accepts NaN, Infinity and
    overflowing literals such as 1e999).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("", f"not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("", "top level must be an object")
    _reject_non_finite(cfg, "")
    return cfg


# JSON Schema's "integer" admits integral floats such as 5.0, which the
# runners cannot use as counts; here an integer must be a JSON integer.
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)),
)(SCHEMA)


def validate(cfg: dict) -> None:
    """Raise ConfigInvalid (with a dotted field path) on any violation."""
    errors = sorted(_VALIDATOR.iter_errors(cfg),
                    key=lambda e: (-len(e.absolute_path), e.message))
    if errors:
        err = errors[0]
        path = ".".join(str(part) for part in err.absolute_path)
        raise ConfigInvalid(path, err.message)
    kind = cfg["experiment"]
    block = BLOCK_KEY[kind]
    if block not in cfg:
        raise ConfigInvalid(block, f"experiment {kind!r} needs a {block!r} block")
    for other in set(BLOCK_KEY.values()) - {block}:
        if other in cfg:
            raise ConfigInvalid(other,
                                f"block does not belong to experiment {kind!r}")
    blk = cfg[block]
    ignored, why = set(), ""
    if kind == "scan":
        keys = ({"pairs_pi"}, {"start_pi", "stop_pi", "count"})
        needed, ignored = keys if blk["parametrization"] == "free" else keys[::-1]
        why = f"the {blk['parametrization']} parametrization does not use it"
        missing = sorted(needed - blk.keys())
        if missing:
            raise ConfigInvalid(f"scan.{missing[0]}", f"the {blk['parametrization']} "
                                f"parametrization needs {', '.join(sorted(needed))}")
    elif kind == "disorder" and "p_grid" in blk:
        ignored, why = {"p"}, "p and p_grid exclude each other"
    elif kind == "emulate" and blk.get("mode") != "shots":
        ignored, why = {"shots"}, "only shots mode draws shots"
    unused = sorted(ignored & blk.keys())
    if unused:
        raise ConfigInvalid(f"{block}.{unused[0]}", f"run would ignore this key: {why}")
    if kind == "emulate" and "alpha_pi" in blk and within_guard(blk["alpha_pi"] * math.pi):
        raise ConfigInvalid("emulate.alpha_pi",
                            f"{blk['alpha_pi']}*pi is within {math.degrees(ALPHA_GUARD):.0f} "
                            "degrees of a multiple of pi/2, where interference reads no sign")
    est = estimate(cfg)
    if est["site_steps"] > MAX_SITE_STEPS:
        raise ConfigInvalid(est["cost_field"],
                            f"run would step at least {est['site_steps']} light-cone "
                            f"site-steps, more than MAX_SITE_STEPS = {MAX_SITE_STEPS}")
    if est["held"] > MAX_HELD:
        raise ConfigInvalid(est["held_field"], f"one walker would hold {est['held']} "
                            f"float64 elements, more than MAX_HELD = {MAX_HELD}")
    if kind == "phase-diagram" and est["simulations"] > MAX_CELLS:
        raise ConfigInvalid("phase_diagram.resolution", f"run would tabulate "
                            f"{est['simulations']} cells, more than MAX_CELLS = {MAX_CELLS}")


def _fill(node: dict, schema: dict) -> None:
    for key, sub in schema.get("properties", {}).items():
        if key not in node and "default" in sub:
            node[key] = copy.deepcopy(sub["default"])
        if isinstance(node.get(key), dict):
            _fill(node[key], sub)


def resolve(cfg: dict) -> dict:
    """A copy of a validated config with every `SCHEMA` default filled in.

    A lone disorder `p` becomes `p_grid: [p]`.  The runners and `estimate`
    read only resolved configs; `config_hash` hashes the config as written.
    """
    out = copy.deepcopy(cfg)
    disorder = out.get("disorder", {})
    if "p" in disorder:
        disorder["p_grid"] = [disorder.pop("p")]
    _fill(out, SCHEMA)
    return out


def _walk_angles(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if key.endswith("_pi") and isinstance(value, (int, float)):
                yield sub, value
            elif key.endswith("_pi") and isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, list):
                        for j, v in enumerate(item):
                            yield f"{sub}.{i}.{j}", v
                    elif isinstance(item, (int, float)):
                        yield f"{sub}.{i}", item
            else:
                yield from _walk_angles(value, sub)


def config_warnings(cfg: dict) -> list[str]:
    """Non-fatal notes, currently mod-2 reductions of angle values."""
    out = []
    for path, value in _walk_angles(cfg, ""):
        if abs(value) >= 2.0:
            out.append(f"{path}: angle {value}*pi is reduced to "
                       f"{math.fmod(value, 2.0)}*pi (mod 2)")
    return out


def _stages(cfg: dict) -> list[tuple[int, int, str, str, int]]:
    """(walkers, steps, walkers field, steps field, group) of each stepping
    stage of a resolved config: the fields are dotted paths, and group is
    the most walkers that one `walk.batches` call splits."""
    kind = cfg["experiment"]
    key = BLOCK_KEY[kind]
    block = cfg[key]
    extra = []
    if kind == "scan":
        free = block["parametrization"] == "free"
        field, sims = ("pairs_pi", len(block["pairs_pi"])) if free \
            else ("count", block["count"])
        group = sims
    elif kind == "phase-diagram":
        field, sims = "resolution", block["resolution"] ** 2
        group = sims
    elif kind == "disorder":  # batches of one p
        field, group = "n_configs", block["n_configs"]
        sims = len(block["p_grid"]) * group
        tr = block.get("transition")
        if tr is not None:  # an upper bound: the bisection may stop early
            probes = 2 + math.ceil(math.log2(1.0 / tr["resolution"]))
            extra.append((probes * tr["n_configs"], tr["t"], f"{key}.transition.n_configs",
                          f"{key}.transition.t", tr["n_configs"]))
    elif kind == "edge":  # one walker at p = 0 and 1, plus the intensity map
        n = block["n_configs"]
        field = "n_configs"
        counts = [1 if p in (0.0, 1.0) else n for p in block["p_grid"]]
        sims, group = sum(counts) + 1, max(counts)
    elif kind == "emulate":  # one walker: its steps are all of its cost
        field, sims, group = "t", 1, 1
    else:  # one walker per apparatus model, plus the emulated data
        field, sims, group = "n_sets", block["n_sets"] + 1, block["n_sets"]
    return [(sims, block["t"], f"{key}.{field}", f"{key}.t", group)] + extra


def estimate(cfg: dict) -> dict:
    """Dry-run cost of a validated config, in the engine's units.

    "simulations" counts the walkers `run` steps through `walk.real_steps`
    (with a disorder `transition`, an upper bound: the bisection may stop
    early), "window_sites" is the widest window it steps them on, and
    "site_steps" sums walkers x the sites of the engine's `walk.cone` over the
    stages, or x the cone's floor t * t // 4 where that is over MAX_SITE_STEPS.
    "cost_field" names the field that drives the cost: of the costliest
    stage, its walker count or, where a walker's site-steps are more, its steps.
    "batch_walkers" pairs each stage's steps field with the walkers of its
    widest `walk.batches` batch, and "held" is the most float64 elements
    (`walk.held`) one walker holds, in the stage whose steps field is "held_field".
    """
    cfg = resolve(cfg)
    kind = cfg["experiment"]
    history = kind in ("edge", "emulate", "mc-errorbars")
    window, per_walker = (record_window, record_site_steps) if history \
        else (reflection_window, reflection_site_steps)
    stages = _stages(cfg)
    per = [t * t // 4 if w * (t * t // 4) > MAX_SITE_STEPS else per_walker(t)
           for w, t, *_ in stages]
    cost = [stage[0] * sites for stage, sites in zip(stages, per)]
    i = cost.index(max(cost))
    walkers, _, walkers_field, steps_field, _ = stages[i]
    holds = [held(window(t), t, history) for _, t, *_ in stages]
    j = holds.index(max(holds))
    return {"simulations": sum(stage[0] for stage in stages),
            "window_sites": window(max(stage[1] for stage in stages)),
            "site_steps": sum(cost),
            "cost_field": walkers_field if walkers >= per[i] else steps_field,
            "batch_walkers": [(field, batch_walkers(group, h))
                              for (_, _, _, field, group), h in zip(stages, holds)],
            "held": holds[j],
            "held_field": stages[j][3]}
