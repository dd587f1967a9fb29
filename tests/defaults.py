"""Run values at their `config.SCHEMA` defaults, read from the schema.

The engine functions a runner calls take every value a run uses, with no
default of their own.  A test that calls one as a config setting none of
its optional keys would run it takes the values from here, so the schema
stays the one place they are written.
"""

from qwtopo import config, runners
from qwtopo.apparatus import ErrorRanges


def resolved(kind: str, **block) -> dict:
    """The `kind` block of a config holding only `block`, resolved."""
    key = config.BLOCK_KEY[kind]
    return config.resolve({"experiment": kind, key: block})[key]


#: The disorder strengths of a disorder or edge study that sets no p_grid.
P_GRID = tuple(resolved("edge")["p_grid"])

#: A phase diagram's resolution, t and tolerance.
DIAGRAM = resolved("phase-diagram")

#: A disorder transition's t, n_configs and resolution.
TRANSITION = resolved("disorder", transition={})["transition"]

#: The mc-errorbars block: n_sets, horizon and the ranges in degrees.
MC = resolved("mc-errorbars")

#: The Monte-Carlo fit's draw ranges, in radians as the runner passes them.
RANGES = ErrorRanges(**runners._radians(MC["ranges"]))
