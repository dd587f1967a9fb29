"""Table cells as text, for `dataio.write_table`: each cell is its `str()`.

A float64 column is formatted once per distinct bit pattern, so 0.0 and
-0.0 stay apart, and an integer or bool column once per distinct value;
the strings are gathered back by the inverse index.  Any other column is
formatted value by value.  JSON frames the same strings as records.
"""

from __future__ import annotations

import json

import numpy as np

#: Data rows per block of lines or records joined and written at once.
BLOCK = 1 << 14

#: JSON's spelling of the cells whose str() strict JSON does not hold.
_JSON_WORDS = {"nan": "null", "inf": "null", "-inf": "null", "True": "true", "False": "false"}


def encode(header: list[str], columns, rows: int, fmt: str):
    """Format every cell of the columns now and return the file's text as
    parts to write, blocks of `BLOCK` rows joined as they are written: CSV
    lines, or JSON records in the layout of `json.dumps(records, indent=1)`."""
    if len(columns) != len(header) or any(len(c) != rows for c in columns) \
            or any(getattr(c, "ndim", 1) != 1 for c in columns):
        raise ValueError(f"{len(header)} header names need as many flat columns of "
                         f"{rows} rows, got lengths {[len(c) for c in columns]}")
    if fmt == "csv":
        head = ",".join(_strings(header).tolist()) + "\n"
        return _text(head, [_strings(c) for c in columns], rows, ",", "\n", "\n")
    if not rows:
        return ["[]\n"]
    frames = [[f"  {json.dumps(name)}: ", ""] for name in header]
    frames[0][0], frames[-1][1] = " {\n" + frames[0][0], "\n }"
    cells = [_strings(c, frame) for c, frame in zip(columns, frames)]
    return _text("[\n", cells, rows, ",\n", ",\n", "\n]\n")


def _text(head: str, cells: list, rows: int, sep: str, eol: str, tail: str):
    """head, then each row's cells joined by sep, rows joined by eol, then tail."""
    yield head
    for start in range(0, rows, BLOCK):
        block = [c[start:start + BLOCK].tolist() for c in cells]
        yield eol.join(map(sep.join, zip(*block))) + (eol if start + BLOCK < rows else tail)


def _strings(column, frame=None) -> np.ndarray:
    """The str() of every cell of a flat column, as an object array; a column
    formatted value by value may hold no CSV delimiter, quote or line break.
    A JSON `frame` is the pair of strings put around each cell as JSON spells it."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "biu" or kind == "f" and column.itemsize == 8:
        keys = column.view(np.int64) if kind == "f" else column
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        strings = [str(v) for v in column[first].tolist()]
    else:
        inverse, strings = None, [str(v) for v in column]
        text = "".join(strings)
        if any(mark in text for mark in ',"\r\n'):
            raise ValueError("a table cell holds a CSV delimiter, quote or line break")
    if frame:
        strings = [frame[0] + _JSON_WORDS.get(s, s) + frame[1] for s in strings]
    strings = np.array(strings, dtype=object)
    return strings if inverse is None else strings[inverse]
