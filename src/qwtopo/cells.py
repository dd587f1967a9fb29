"""Table cells as text, for `dataio.write_table`: each cell is its `str()`.

A float64 column is formatted once per distinct bit pattern, so 0.0 and
-0.0 stay apart, and an integer or bool column once per distinct value;
the strings are gathered back by the inverse index.  Any other column is
formatted value by value.
"""

from __future__ import annotations

import json

import numpy as np

from .dataio import json_value

#: Data rows per block of CSV lines joined and written at once.
BLOCK = 1 << 14


def encode(header: list[str], columns, rows: int, fmt: str):
    """Format every cell of the columns now and return the file's text as
    parts to write: for CSV the header line and blocks of `BLOCK` data
    lines, joined as they are written; for JSON one strict `json.dumps` of
    records of the same cells, with null where a cell is NaN or infinite,
    which JSON cannot hold."""
    if len(columns) != len(header) or any(len(c) != rows for c in columns) \
            or any(getattr(c, "ndim", 1) != 1 for c in columns):
        raise ValueError(f"{len(header)} header names need as many flat columns of "
                         f"{rows} rows, got lengths {[len(c) for c in columns]}")
    if fmt == "json":  # float64 is a float subclass; `default` sees numpy ints and bools
        cells = [[json_value(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
                 for c in columns]
        return [json.dumps([dict(zip(header, row)) for row in zip(*cells)], indent=1,
                           allow_nan=False, default=lambda v: v.item()) + "\n"]
    head = ",".join(_strings(header).tolist())
    return _lines(head, [_strings(c) for c in columns], rows)


def _lines(head: str, cells: list, rows: int):
    yield head + "\n"
    for start in range(0, rows, BLOCK):
        block = [c[start:start + BLOCK].tolist() for c in cells]
        yield "\n".join(map(",".join, zip(*block))) + "\n"


def _strings(column) -> np.ndarray:
    """The str() of every cell of a flat column, as an object array; a
    column formatted value by value may hold no CSV delimiter, quote or line
    break."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "biu" or kind == "f" and column.itemsize == 8:
        keys = column.view(np.int64) if kind == "f" else column
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = np.array([str(v) for v in column[first].tolist()], dtype=object)
        return distinct[inverse]
    cells = [str(v) for v in column]
    text = "".join(cells)
    if any(mark in text for mark in ',"\r\n'):
        raise ValueError("a table cell holds a CSV delimiter, quote or line break")
    return np.array(cells, dtype=object)
