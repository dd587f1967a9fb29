"""Table cells as text, for `dataio.write_table`: each cell is its `str()`.

Each distinct value of a table is formatted once, whichever columns hold
it: the float64 columns share one key array of their bit patterns, so 0.0
and -0.0 stay apart, and the integer and bool columns of each dtype share
one array of their values.  One `np.unique` per key array gives its
distinct keys, formatted once each, and the inverse index that gathers each
column's strings back.  Any other column is formatted value by value.  JSON
spells the same strings as JSON does and puts each row's in one record's frame.
"""

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
        head = ",".join(_strings([header])[0].tolist()) + "\n"
        return _text(head, _strings(columns), rows, ",".join, "\n", "\n")
    if not rows:
        return ["[]\n"]
    names = [json.dumps(name).replace("%", "%%") for name in header]
    record = " {\n" + ",\n".join(f"  {name}: %s" for name in names) + "\n }"
    return _text("[\n", _strings(columns, spell=True), rows, record.__mod__, ",\n", "\n]\n")


def _text(head: str, cells: list, rows: int, row, eol: str, tail: str):
    """head, then the text `row` makes of each row's cells, rows joined by eol,
    then tail."""
    yield head
    for start in range(0, rows, BLOCK):
        block = [c[start:start + BLOCK].tolist() for c in cells]
        yield eol.join(map(row, zip(*block))) + (eol if start + BLOCK < rows else tail)


def _strings(columns, spell: bool = False) -> list:
    """The str() of every cell of each flat column, an object array per column,
    each spelled as JSON spells it when `spell` is set; a column formatted value
    by value may hold no CSV delimiter, quote or line break."""
    shared = {}  # native dtype -> the columns keyed in one array
    cells = [None] * len(columns)
    for k, column in enumerate(columns):
        kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
        if kind in "biu" or kind == "f" and column.itemsize == 8:
            shared.setdefault(column.dtype.newbyteorder("="), []).append(k)
        else:
            strings = [str(v) for v in column]
            text = "".join(strings)
            if any(mark in text for mark in ',"\r\n'):
                raise ValueError("a table cell holds a CSV delimiter, quote or line break")
            cells[k] = _spelled(strings, spell)
    for dtype, ks in shared.items():
        # one key per cell, its bits in native byte order, freed when np.unique returns
        distinct, inverse = np.unique(
            np.concatenate([columns[k] for k in ks]).view(f"i{dtype.itemsize}"),
            return_inverse=True)
        strings = _spelled([str(v) for v in distinct.view(dtype).tolist()], spell)
        for k, part in zip(ks, np.split(inverse, len(ks))):
            cells[k] = strings[part]
    return cells


def _spelled(strings: list, spell: bool) -> np.ndarray:
    """strings as an object array, as JSON spells them when `spell` is set."""
    return np.array([_JSON_WORDS.get(s, s) for s in strings] if spell else strings,
                    dtype=object)
