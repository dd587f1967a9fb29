"""Deterministic data files: CSV/JSON tables, kind detection, manifests.

Tables are written from columns (`Columns`), never from Python row
objects, by one encoder (`cells`): each cell is written as its `str()`,
which for a float, numpy's float64 included, is its repr, the shortest
round-trip form, so a value read back compares bit-equal and identical
runs yield identical bytes; a numpy int or bool is written as its item.
Each table kind has a fixed header; replotting recognizes a file purely
by that header row.  Every JSON file is strict: a float that is NaN or
infinite is written as null, in tables and in the run's other JSON files
(`write_json`) alike.  Tables, JSON files and plots are all written by
`write_text`, the one place the package opens a file for writing, so
each write that fails raises `IoFailure` naming its file.

`verify` and every exit 2 load none of it: `cli` imports it once `run` has
checked its config and in `replot`, `config.load` only to raise `IoFailure`,
and it imports `hashlib` and `csv` inside the functions that hash and read.
"""

import json
import math
import os

__all__ = [
    "IoFailure", "UnknownDataKind", "TABLE_KINDS", "Columns", "write_text", "write_table",
    "read_csv", "detect_kind", "RunManifest", "sha256_file", "config_hash", "json_value",
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
    returns the path.

    `cells` formats every cell before the file is opened, so a table that
    cannot be written leaves no file; the text is then written in blocks of
    rows, CSV lines or JSON records of the same cells, NaN as null.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format: {fmt!r}")
    from . import cells  # the numpy half of the writer: `verify` never loads it
    text = cells.encode(header, table.columns, len(table), fmt)
    base, _ = os.path.splitext(path)
    return write_text(f"{base}.{fmt}", text)


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
