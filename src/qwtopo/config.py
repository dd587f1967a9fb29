"""Experiment configuration: schema, defaults, warnings, dry-run estimates.

A configuration is one JSON object with an "experiment" kind, an
optional master "seed", and exactly one kind-specific block.  All
angles are given in units of pi with a "_pi" key suffix, within +-2**20,
where v +- 0.5 is exact and 2 pi v finite; values of magnitude 2 or more
are flagged as mod-2 reductions by `config_warnings`.  `load` refuses as
invalid JSON a file that is not UTF-8 or is nested deeper than the decoder
recurses.

Optional keys take their defaults from `SCHEMA` alone, filled in by
`resolve`, whose output is all that the runners and `estimate` read; the
engine functions the runners call restate none of them.  `validate`
resolves a config once and returns it with its estimate, for `verify`
and `run` to read.
`validate` checks a config against `SCHEMA` with `schema_errors`, a walker
over the JSON Schema keywords `SCHEMA` uses and no others: `type` (object,
array, integer or number; a bool is neither number nor integer, and 5.0 is
no integer), `enum`, `minimum`, `exclusiveMinimum`, `maximum`, `minItems`,
`maxItems`, `items`, `properties`, `required` and `additionalProperties:
false`, worded as jsonschema words them.  `validate` also rejects keys the
runner would ignore (`p` next to `p_grid`), an emulate mixing angle the
read-out cannot use, a shots budget whose Poisson means may pass `LAM_MAX`,
an mc-errorbars horizon past its t, a disorder transition study whose two
bulks lie in one phase, and a config whose predicted cost exceeds
`MAX_SITE_STEPS`, `MAX_HELD` or, in the rows of its largest table,
`MAX_CELLS`.
"""

import json
import math
import operator

from .budget import (ALPHA_GUARD, batch_capacity, batch_walkers, cone_window, ensemble_held,
                     fit_held, interface_members, ploc_held, record_held, record_site_steps,
                     record_window, reflection_site_steps, reflection_window, scan_held,
                     within_guard)

#: The experiment kinds, each planned by `_plan`.
EXPERIMENTS = ("scan", "phase-diagram", "disorder", "edge", "emulate", "mc-errorbars")
#: JSON key of each kind's block.
BLOCK_KEY = {kind: kind.replace("-", "_") for kind in EXPERIMENTS}
#: The engine paths of a `_plan` stage, each its (window, site-steps per walker) of
#: t steps: `scattering.sample_rows` on the reflection window, `walk.record_cut`
#: and `record` on the cone.
_REFLECTION = (reflection_window, reflection_site_steps)
_CONE = (cone_window, record_site_steps)


#: Largest predicted light-cone site-steps (`estimate`) that `validate`, and so
#: `verify` and `run`, accept: tens of seconds on one core.  A cone holds half
#: its window at large t, so this accepts the large runs 10**9 window ones did.
MAX_SITE_STEPS = 5 * 10**8
#: Most float64 elements one walker may hold in the engine (`budget.held`), 1 GiB:
#: `walk.record`'s history grows as t * t, so an mc-errorbars run, which keeps
#: one whole walk and writes no table, stops at t = 5 781 (4 728 if horizon = t).
MAX_HELD = 2**27
#: Most rows of any table a run writes, which bounds its heatmap's cells too: a
#: phase diagram of this many cells needs about 1.3 GB of tables and SVG, and
#: an emulate or edge intensity map stops at t = 952.
MAX_CELLS = 1360**2
#: Largest mean numpy's `Generator.poisson` draws from, which shots mode must keep to.
LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10


class ConfigInvalid(ValueError):
    """Schema violation, carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)


_ANGLE = {"type": "number", "minimum": -2**20, "maximum": 2**20}
_COUNT = {"type": "integer", "minimum": 1}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_P_GRID = {"type": "array", "items": _PROB, "minItems": 1,
           "default": [i / 10 for i in range(11)]}
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
        # numpy keys a Philox through float64 from 2**63 on, so such seeds collide
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1, "default": 0},
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
                # r_1 is zero on every sample: the lead coin at x = -1 is the
                # identity, so nothing returns within one step to read a sign from
                "t": {"type": "integer", "minimum": 2},
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


_TYPES = {"object": dict, "array": list, "integer": int, "number": (int, float)}


def _is(value, kind: str) -> bool:
    # JSON Schema's "integer" admits integral floats such as 5.0, which the
    # runners cannot use as counts; here an integer must be a JSON integer,
    # and a bool is neither an integer nor a number.
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def _type(value, kind, schema, path):
    if not _is(value, kind):
        yield path, f"{value!r} is not of type {kind!r}"


def _enum(value, options, schema, path):
    if value not in options:  # string options, which equal no other JSON value
        yield path, f"{value!r} is not one of {options!r}"


def _bound(fails, words):
    def check(value, bound, schema, path):
        if _is(value, "number") and fails(value, bound):
            yield path, f"{value!r} {words} {bound!r}"
    return check


def _min_items(value, low, schema, path):
    if _is(value, "array") and len(value) < low:
        yield path, f"{value!r} " + ("should be non-empty" if low == 1 else "is too short")


def _max_items(value, high, schema, path):
    if _is(value, "array") and len(value) > high:
        yield path, f"{value!r} " + ("is expected to be empty" if high == 0 else "is too long")


def _items(value, sub, schema, path):
    if _is(value, "array"):
        for i, item in enumerate(value):
            yield from schema_errors(item, sub, path + (i,))


def _properties(value, subs, schema, path):
    if _is(value, "object"):
        for key, sub in subs.items():
            if key in value:
                yield from schema_errors(value[key], sub, path + (key,))


def _required(value, keys, schema, path):
    if _is(value, "object"):
        for key in keys:
            if key not in value:
                yield path, f"{key!r} is a required property"


def _closed(value, allowed, schema, path):
    if allowed is False and _is(value, "object"):
        extras = sorted(set(value) - set(schema.get("properties", {})))
        if extras:
            yield path, (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                         f"{'was' if len(extras) == 1 else 'were'} unexpected)")


#: The check of each JSON Schema keyword `SCHEMA` uses; `schema_errors`
#: passes over any other key, such as the annotations "$schema" and "default".
KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "maximum": _bound(operator.gt, "is greater than the maximum of"),
    "minItems": _min_items,
    "maxItems": _max_items,
    "items": _items,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _closed,
}


def schema_errors(value, schema: dict = SCHEMA, path: tuple = ()):
    """Yield (path, message) of every violation of `schema` in `value`.

    The path is a tuple of keys and list indices.  The violations come in
    jsonschema's order, keyword by keyword in schema order, and in its words.
    """
    for keyword, arg in schema.items():
        check = KEYWORDS.get(keyword)
        if check is not None:
            yield from check(value, arg, schema, path)


def _numbers(cfg: dict):
    """(dotted path, value, under a key that ends in _pi) of every number in
    a parsed config, in document order, over a stack of member iterators."""
    stack = [("", iter(cfg.items()), False)]
    while stack:
        path, members, angle = stack[-1]
        for key, value in members:
            sub, inside = f"{path}.{key}" if path else key, angle or str(key).endswith("_pi")
            if isinstance(value, (int, float)):
                yield sub, value, inside
            elif isinstance(value, (dict, list)):
                stack.append((sub, iter(value.items() if isinstance(value, dict)
                                        else enumerate(value)), inside))
                break  # the member's own members first
        else:
            stack.pop()


def load(path: str) -> dict:
    """Parse a configuration file.

    Only the JSON syntax is checked here, UTF-8 and nesting past the
    decoder's depth included, plus one rule the schema cannot state: every
    number must be finite (json accepts NaN, Infinity and overflowing
    literals such as 1e999).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.loads(fh.read())
    except OSError as exc:
        from .dataio import IoFailure  # the one use of `dataio` in checking a config

        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigInvalid("", f"not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("", "top level must be an object")
    for field, value, _ in _numbers(cfg):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigInvalid(field, f"{value} is not a finite number")
    return cfg


def validate(cfg: dict) -> tuple[dict, dict]:
    """`(resolve(cfg), estimate(cfg))` of a loaded config, resolved once, or
    ConfigInvalid with a dotted field path on any violation: of `SCHEMA`,
    which bounds every *_pi angle to +-2**20, or of the rules below.  A value
    nested too deeply to word a message about has the empty path."""
    try:
        error = min(schema_errors(cfg), key=lambda e: (-len(e[0]), e[1]), default=None)
    except RecursionError as exc:  # a message's repr of a value nested to the decoder's limit
        raise ConfigInvalid("", f"nested too deeply to report: {exc}") from exc
    if error:
        raise ConfigInvalid(".".join(map(str, error[0])), error[1])
    kind = cfg["experiment"]
    block = BLOCK_KEY[kind]
    if block not in cfg:
        raise ConfigInvalid(block, f"experiment {kind!r} needs a {block!r} block")
    stray = [key for key in BLOCK_KEY.values() if key != block and key in cfg]
    if stray:
        raise ConfigInvalid(stray[0], f"block does not belong to experiment {kind!r}")
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
    resolved = resolve(cfg)
    blk = resolved[block]  # defaults filled in from here on
    if kind == "emulate" and within_guard(blk["alpha_pi"] * math.pi):
        raise ConfigInvalid("emulate.alpha_pi",
                            f"{blk['alpha_pi']}*pi is within {math.degrees(ALPHA_GUARD):.0f} "
                            "degrees of a multiple of pi/2, where interference reads no sign")
    if kind == "disorder" and "transition" in blk:
        signs = q0_sign(blk["theta_a_pi"]), q0_sign(blk["theta_b_pi"])
        if signs[0] * signs[1] != -1:
            raise ConfigInvalid("disorder.theta_b_pi", "a transition needs bulks of opposite "
                                f"Q0 sign, but theta_a_pi = {blk['theta_a_pi']} and "
                                f"theta_b_pi = {blk['theta_b_pi']} give {signs[0]:+d} and "
                                f"{signs[1]:+d}: sign Q0 = -sign(sin theta)")
    if kind in ("emulate", "mc-errorbars"):
        # `apparatus.perturbed_angles` keeps 0 mod 2 pi exact and adds this to every other angle
        model = blk["model" if kind == "emulate" else "truth_model"]
        offset = math.radians(model["sbc_error_deg"]) + math.radians(model["eom_error_deg"])
        half_turns = [blk["theta1_pi"] % 2.0, blk["theta2_pi"] % 2.0]  # exact, as in q0_sign
        coin1, coin2 = (h == 0.0 or h == 1.0 and offset == 0.0 for h in half_turns)
        if coin2 and (coin1 or blk["t"] == 2):
            raise ConfigInvalid(f"{block}.theta2_pi", "nothing returns through the lead, so Q0 "
                                "has no sign: the apparatus realizes coin 2 as a multiple of pi, "
                                "and coin 1 too or t = 2, where r_2 ~ sin theta2 is all")
        # every Poisson mean is at most shots * (1 + max(loss, 0))**t, as eff <= 1 and
        # sum rho_j**2 <= 1; logs, since shots is any JSON integer and t is not yet bounded
        if kind == "emulate" and blk["mode"] == "shots" and math.log(blk["shots"]) \
                + blk["t"] * math.log1p(max(model["loss_asymmetry"], 0.0)) > math.log(LAM_MAX):
            raise ConfigInvalid("emulate.shots", f"{blk['shots']} shots times the V-path "
                                "gain (1 + max(loss_asymmetry, 0))**t may ask a Poisson draw "
                                f"for a mean above {LAM_MAX:.4g}, the largest numpy draws")
    if kind == "mc-errorbars" and blk["horizon"] > blk["t"]:
        raise ConfigInvalid("mc_errorbars.horizon", f"{blk['horizon']} is more than "
                            f"t = {blk['t']}, the recorded steps the fit compares")
    est = _estimate(resolved)
    if est["site_steps"] > MAX_SITE_STEPS:
        raise ConfigInvalid(est["cost_field"],
                            f"run would step at least {est['site_steps']} light-cone "
                            f"site-steps, more than MAX_SITE_STEPS = {MAX_SITE_STEPS}")
    if est["held"] > MAX_HELD:
        raise ConfigInvalid(est["held_field"], f"one walker would hold {est['held']} "
                            f"float64 elements, more than MAX_HELD = {MAX_HELD}")
    if est["table_rows"] > MAX_CELLS:
        raise ConfigInvalid(est["table_field"], f"run would tabulate "
                            f"{est['table_rows']} rows, more than MAX_CELLS = {MAX_CELLS}")
    return resolved, est


def q0_sign(theta_pi: float) -> int:
    """sign Q0 of a clean bulk whose coin 1 is the identity and whose coin 2
    rotates by theta_pi * pi, as in a disorder study: -sign(sin theta), and
    0 on a gap-closing line, where theta_pi is an integer.  Read from
    theta_pi mod 2, which is exact, not from the rounding of sin."""
    half_turns = theta_pi % 2.0
    return 0 if half_turns in (0.0, 1.0) else -1 if half_turns < 1.0 else 1


def _copied(value):
    """A copy of a JSON value: each of its objects and arrays new, its scalars shared."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    return [_copied(item) for item in value] if isinstance(value, list) else value


def _fill(node: dict, schema: dict) -> None:
    for key, sub in schema.get("properties", {}).items():
        if key not in node and "default" in sub:
            node[key] = _copied(sub["default"])
        if isinstance(node.get(key), dict):
            _fill(node[key], sub)


def resolve(cfg: dict) -> dict:
    """A copy of a validated config with every `SCHEMA` default filled in.

    A lone disorder `p` becomes `p_grid: [p]`.  The runners and `estimate`
    read only resolved configs; `config_hash` hashes the config as written.
    """
    out = _copied(cfg)
    disorder = out.get("disorder", {})
    if "p" in disorder:
        disorder["p_grid"] = [disorder.pop("p")]
    _fill(out, SCHEMA)
    return out


def config_warnings(cfg: dict) -> list[str]:
    """Non-fatal notes, currently mod-2 reductions of angle values."""
    out = []
    for path, value, angle in _numbers(cfg):
        if angle and abs(value) >= 2.0:
            out.append(f"{path}: angle {value}*pi is reduced to {value % 2.0}*pi (mod 2)")
    return out


def _plan(cfg: dict) -> tuple[bool, list, list]:
    """(exact, stages, tables) of a resolved config's run, all that `_estimate`
    reads.  A stage is (walkers, steps, walkers field, steps field, group,
    held, path, whole): the fields are dotted paths, group is the most walkers
    that one `budget.batches` call splits, each holding `held`, path is the
    engine path of `_REFLECTION` or `_CONE` that steps them, and whole is what
    the one whole walk of an edge or apparatus run holds, else 0.  A table is
    (rows, field): its rows, at most (t + 1) x `budget.record_window(t)` for
    an intensity map, whose window can end narrower, and the field that drives
    them.  exact is False where the run steps each distinct pattern once."""
    kind = cfg["experiment"]
    key = BLOCK_KEY[kind]
    block = cfg[key]
    t, steps = block["t"], f"{key}.t"
    if kind in ("scan", "phase-diagram"):  # a walker and a table row per point
        if kind == "phase-diagram":
            field, n = "resolution", block["resolution"] ** 2
        else:
            field = "pairs_pi" if block["parametrization"] == "free" else "count"
            n = len(block[field]) if field == "pairs_pi" else block[field]
        return True, [(n, t, f"{key}.{field}", steps, n, scan_held(t), _REFLECTION, 0)], \
            [(n, f"{key}.{field}")]
    if kind == "disorder":  # the whole curve in one call; a row per configuration at each p
        n, rows = block["n_configs"], len(block["p_grid"]) * block["n_configs"]
        stages = [(rows, t, f"{key}.n_configs", steps, rows, ensemble_held(t), _REFLECTION, 0)]
        tr = block.get("transition")
        if tr is not None:  # the bisection may stop early; its first call steps
            m = tr["n_configs"]  # both endpoints and the first midpoint
            probes = 2 + math.ceil(math.log2(1.0 / tr["resolution"]))
            stages.append((probes * m, tr["t"], f"{key}.transition.n_configs",
                           f"{key}.transition.t", m + max(m, 2), ensemble_held(tr["t"]),
                           _REFLECTION, 0))
        factor = "n_configs" if n >= len(block["p_grid"]) else "p_grid"
        return False, stages, [(rows, f"{key}.{factor}")]
    intensities = ((t + 1) * record_window(t), steps)  # a row per step and site
    if kind == "edge":  # one call over all p, a row per member, plus the intensity map
        counts = interface_members(block["n_configs"], block["p_grid"])
        factor = "n_configs" if max(counts) >= len(counts) else "p_grid"
        return False, [(sum(counts) + 1, t, f"{key}.n_configs", steps, sum(counts),
                        ploc_held(t), _CONE, record_held(t, identity_coin1=True))], \
            [(sum(counts), f"{key}.{factor}"), intensities]
    if kind == "emulate":  # one walker: its steps are all of its cost
        return True, [(1, t, steps, steps, 1, record_held(t), _CONE, record_held(t))], \
            [intensities]
    # one walker per apparatus model, plus the emulated data; no table
    n = block["n_sets"]
    return True, [(n + 1, t, f"{key}.n_sets", steps, n, fit_held(t, block["horizon"]), _CONE,
                   record_held(t))], []


def estimate(cfg: dict) -> dict:
    """Dry-run cost of a validated config, in the engine's units: the
    estimate `validate` returns, of the config as `resolve` fills it in.

    "simulations" counts the walkers `run` steps through `walk.real_steps`,
    "window_sites" is the widest window it steps them on, and "site_steps"
    sums walkers x the sites of the engine's `budget.cone` over the stages, or
    x the cone's floor t * t // 4 where that is over MAX_SITE_STEPS.
    "cost_field" names the field that drives the cost: of the costliest
    stage, its walker count or, where a walker's site-steps are more, its steps.
    "batch_walkers" pairs each stage's steps field with the walkers of its
    widest `budget.batches` batch, and "held" is the most float64 elements
    (`budget.held`) one walker holds, in the stage whose steps field is "held_field".
    "table_rows" bounds the rows of the largest table the run writes, 0 for
    none, and "table_field" names the field that drives them.  Every count
    is read from the `_plan` of the config's kind, which states each stage's
    walkers, steps, batches, engine path and whole walk, and each table's rows.

    Disorder and edge studies step each distinct disorder pattern once
    (`disorder.PatternStudy`), and a disorder `transition` may stop early, so
    for them "exact" is False: "simulations" and "site_steps" count every
    member as if its pattern were new, and "batch_walkers" is the widest batch
    any number of such walkers could make.  These worst cases are what the
    MAX_SITE_STEPS guard checks, so a config that passes it passes whatever
    patterns its seed draws.
    """
    return _estimate(resolve(cfg))


def _estimate(cfg: dict) -> dict:
    """`estimate` of a resolved config, read from its `_plan` alone."""
    exact, stages, tables = _plan(cfg)
    per = [t * t // 4 if w * (t * t // 4) > MAX_SITE_STEPS else path[1](t)
           for w, t, *_, path, _ in stages]
    cost = [stage[0] * sites for stage, sites in zip(stages, per)]
    i = cost.index(max(cost))
    walkers, _, walkers_field, steps_field, *_ = stages[i]
    holds = [max(held, whole) for *_, held, _, whole in stages]
    j = holds.index(max(holds))
    rows, rows_field = max(tables, key=lambda table: table[0], default=(0, ""))
    widest = batch_walkers if exact else lambda group, h: min(group, batch_capacity(h))
    return {"exact": exact,
            "simulations": sum(stage[0] for stage in stages),
            "window_sites": max(path[0](t) for _, t, *_, path, _ in stages),
            "site_steps": sum(cost),
            "cost_field": walkers_field if walkers >= per[i] else steps_field,
            "batch_walkers": [(field, widest(group, held))
                              for _, _, _, field, group, held, *_ in stages],
            "held": holds[j],
            "held_field": stages[j][3],
            "table_rows": rows,
            "table_field": rows_field}
