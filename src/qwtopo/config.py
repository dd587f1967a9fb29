"""Experiment configuration: schema validation, warnings, dry-run estimates.

A configuration is one JSON object with an "experiment" kind, an
optional master "seed", and exactly one kind-specific block.  All
angles are given in units of pi with a "_pi" key suffix; values of
magnitude 2 or more are accepted but flagged as mod-2 reductions by
`config_warnings`.
"""

from __future__ import annotations

import json
import math

import jsonschema

from .dataio import IoFailure

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


class ConfigInvalid(ValueError):
    """Schema violation, carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)


_ANGLE = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 1}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}

_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "efficiency_h": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "efficiency_v": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "loss_asymmetry": {"type": "number", "minimum": -0.1, "maximum": 0.1},
        "eom_error_deg": {"type": "number", "minimum": -10, "maximum": 10},
        "sbc_error_deg": {"type": "number", "minimum": -10, "maximum": 10},
    },
}

_RANGES = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "loss_asymmetry": {"type": "number", "minimum": 0, "maximum": 0.1},
        "eom_error_deg": {"type": "number", "minimum": 0, "maximum": 10},
        "sbc_error_deg": {"type": "number", "minimum": 0, "maximum": 10},
        "efficiency_span": {"type": "number", "minimum": 0, "maximum": 0.5},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
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
                "gauge": {"enum": ["auto", "canonical"]},
            },
        },
        "phase_diagram": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "resolution": {"type": "integer", "minimum": 8},
                "t": _COUNT,
                "tolerance": {"type": "number", "exclusiveMinimum": 0,
                              "maximum": 0.5},
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
                "p_grid": {"type": "array", "items": _PROB, "minItems": 1},
                "t": _COUNT,
                "n_configs": _COUNT,
                "transition": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "t": {"type": "integer", "minimum": 101},
                        "n_configs": _COUNT,
                        "resolution": {"type": "number", "exclusiveMinimum": 0,
                                       "maximum": 0.5},
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
                "p_grid": {"type": "array", "items": _PROB, "minItems": 1},
                "t": _COUNT,
                "n_configs": _COUNT,
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
                "alpha_pi": _ANGLE,
                "model": _MODEL,
                "mode": {"enum": ["exact", "shots"]},
                "shots": _COUNT,
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
                "n_sets": _COUNT,
                "horizon": _COUNT,
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


def validate(cfg: dict) -> None:
    """Raise ConfigInvalid (with a dotted field path) on any violation."""
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(cfg),
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
    if kind == "scan":
        scan = cfg[block]
        if scan["parametrization"] == "free":
            if "pairs_pi" not in scan:
                raise ConfigInvalid("scan.pairs_pi",
                                    "free parametrization needs explicit pairs")
        elif not {"start_pi", "stop_pi", "count"} <= scan.keys():
            raise ConfigInvalid("scan",
                                "line parametrization needs start_pi, stop_pi, count")


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


def estimate(cfg: dict) -> dict:
    """Dry-run resource estimate: simulation count and window size."""
    kind = cfg["experiment"]
    block = cfg[BLOCK_KEY[kind]]
    if kind == "scan":
        sims = len(block["pairs_pi"]) if block["parametrization"] == "free" \
            else block["count"]
        t = block["t"]
    elif kind == "phase-diagram":
        sims = block.get("resolution", 64) ** 2
        t = block.get("t", 30)
    elif kind == "disorder":
        grid = block.get("p_grid", [block["p"]] if "p" in block else
                         [i / 10 for i in range(11)])
        sims = len(grid) * block.get("n_configs", 50)
        t = block["t"]
        tr = block.get("transition")
        if tr is not None:
            probes = 2 + math.ceil(math.log2(1.0 / tr.get("resolution", 0.025)))
            sims += probes * tr.get("n_configs", 200)
            t = max(t, tr.get("t", 201))
    elif kind == "edge":
        grid = block.get("p_grid", [i / 10 for i in range(11)])
        n = block.get("n_configs", 50)
        sims = sum(1 if p in (0.0, 1.0) else n for p in grid) + 1
        t = block.get("t", 13)
    elif kind == "emulate":
        sims = 2
        t = block["t"]
    else:  # mc-errorbars
        sims = 2 * (block.get("n_sets", 1000) + 1)
        t = block["t"]
    return {"simulations": sims, "window_sites": 2 * t + 5}
