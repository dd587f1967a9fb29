"""Deterministic data files: CSV/JSON tables, kind detection, manifests.

Tables are written from columns (`Columns`), never from Python row
objects, by one encoder (`encode`).  Each cell is its `str()`: a float,
numpy's float64 included, is its repr, the shortest round-trip form, so
identical runs yield identical bytes; a numpy int or bool is its item.
Each distinct value is formatted once per table: the float64 columns
share one key array of their bit patterns (0.0 and -0.0 apart), the
integer and bool columns of each dtype one of their values, and any
other column is formatted value by value.  Every JSON file is strict and
spells cells as JSON does: null for a NaN or infinite float, in tables
and in the run's other JSON files (`write_json`) alike.  Each table kind
has a fixed header, by which replot recognizes a file.  `write_text` is
the one place the package opens a file for writing, so each write that
fails raises `IoFailure` naming its file.

`verify` and every exit 2 load none of it: `cli` imports it once `run` has
checked its config and in `replot`, `config.load` only to raise `IoFailure`;
it imports numpy, `hashlib` and `csv` inside the functions that use them.
"""

import json
import math
import os

__all__ = [
    "IoFailure", "UnknownDataKind", "TABLE_KINDS", "Columns", "write_text", "write_table",
    "encode", "read_csv", "detect_kind", "RunManifest", "sha256_file", "config_hash", "json_value",
    "write_json",
]


class IoFailure(OSError):
    """A data file could not be read or written."""


class UnknownDataKind(ValueError):
    """A data file is no table qwtopo writes: its header is not recognized,
    its data rows are missing or do not fit the header, or a cell is no
    number, or is not finite where the table's plot needs it to be."""


#: Fixed column layout per table kind.
TABLE_KINDS = {
    "scan": ["theta1_pi", "theta2_pi", "Q0", "Qpi", "residual", "t"],
    "disorder_runs": ["p", "config", "half_r0", "t", "seed"],
    "disorder_summary": ["p", "mean_half_r0", "std_half_r0", "n_configs", "t"],
    "edge": ["p", "config", "P_loc", "t"],
    "intensity": ["step", "position", "intensity"],
}

#: Data rows per block of lines or records joined and written at once.
BLOCK = 1 << 14

#: JSON's spelling of the cells whose str() strict JSON does not hold.
_JSON_WORDS = {"nan": "null", "inf": "null", "-inf": "null", "True": "true", "False": "false"}


class Columns:
    """A table as its columns: equal-length sequences in header order.

    len() is the number of data rows, which the benchmark's tracer counts.
    """

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def write_text(path: str, parts) -> str:
    """Write the strings `parts` to `path` as UTF-8, newlines untranslated;
    returns the path.  An `OSError` becomes `IoFailure` naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def write_table(path: str, header: list[str], table: Columns, fmt: str = "csv") -> str:
    """Write the columns of `table` under a fixed header as CSV or JSON;
    returns the path.  `encode` formats every cell before the file is
    opened, so a table that cannot be written leaves no file."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format: {fmt!r}")
    text = encode(header, table.columns, len(table), fmt)
    base, _ = os.path.splitext(path)
    return write_text(f"{base}.{fmt}", text)


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
    import numpy as np

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
            cells[k] = np.array(_spelled(strings, spell), dtype=object)
    for dtype, ks in shared.items():
        # one key per cell, its bits in native byte order, freed when np.unique returns
        distinct, inverse = np.unique(
            np.concatenate([columns[k] for k in ks]).view(f"i{dtype.itemsize}"),
            return_inverse=True)
        strings = np.array(_spelled([str(v) for v in distinct.view(dtype).tolist()], spell),
                           dtype=object)
        for k, part in zip(ks, np.split(inverse, len(ks))):
            cells[k] = strings[part]
    return cells


def _spelled(strings: list, spell: bool) -> list:
    """strings, as JSON spells them when `spell` is set."""
    return [_JSON_WORDS.get(s, s) for s in strings] if spell else strings


def json_value(value):
    """value as strict JSON holds it: null for a NaN or infinite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path: str, payload: dict) -> str:
    """Write the mapping `payload` as strict JSON, keys sorted, each of its
    values through `json_value`; returns the path."""
    return write_text(path, [json.dumps({k: json_value(v) for k, v in payload.items()},
                                        indent=1, sort_keys=True, allow_nan=False), "\n"])


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    import csv

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnknownDataKind(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise UnknownDataKind(f"{path} is empty")
    return rows[0], rows[1:]


def detect_kind(header: list[str]) -> str:
    for kind, columns in TABLE_KINDS.items():
        if header == columns:
            return kind
    raise UnknownDataKind(f"unrecognized table header: {header}")


def sha256_file(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(65536), b""):
                digest.update(block)
    except OSError as exc:
        raise IoFailure(f"cannot hash {path}: {exc}") from exc
    return digest.hexdigest()


def config_hash(config: dict) -> str:
    """Stable hash of a configuration mapping."""
    import hashlib

    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class RunManifest:
    """What a run produced; data hashes exclude the timestamp field."""

    def __init__(self, version: str, seed: int, config_sha256: str, created: str,
                 outputs: dict | None = None):
        self.version = version
        self.seed = seed
        self.config_sha256 = config_sha256
        self.created = created
        self.outputs = {} if outputs is None else outputs  # file name -> sha256

    def add(self, path: str):
        self.outputs[os.path.basename(path)] = sha256_file(path)

    def write(self, path: str) -> str:
        """Every field as JSON, keys sorted, outputs included."""
        return write_json(path, vars(self))
