"""Deterministic data files: CSV/JSON tables, kind detection, manifests.

Floats are serialized with repr (shortest round-trip form), so a value
read back compares bit-equal and identical runs yield identical bytes.
Each table kind has a fixed header; replotting recognizes a file purely
by that header row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

__all__ = [
    "IoFailure", "UnknownDataKind", "TABLE_KINDS", "write_table", "read_csv",
    "detect_kind", "RunManifest", "sha256_file", "config_hash",
]


class IoFailure(OSError):
    """A data file could not be read or written."""


class UnknownDataKind(ValueError):
    """No recognized table header was found."""


#: Fixed column layout per table kind.
TABLE_KINDS = {
    "scan": ["theta1_pi", "theta2_pi", "Q0", "Qpi", "residual", "t"],
    "disorder_runs": ["p", "config", "half_r0", "t", "seed"],
    "disorder_summary": ["p", "mean_half_r0", "std_half_r0", "n_configs", "t"],
    "edge": ["p", "config", "P_loc", "t"],
    "intensity": ["step", "position", "intensity"],
}


def _cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, bool):
        return str(value)
    if hasattr(value, "item"):  # numpy scalar
        return _cell(value.item())
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path: str, header: list[str], rows, fmt: str = "csv") -> str:
    """Write rows under a fixed header as CSV or JSON; returns the path."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format: {fmt!r}")
    base, _ = os.path.splitext(path)
    path = f"{base}.{fmt}"
    try:
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(_cell, row) for row in rows)
            payload = buf.getvalue()
        else:
            records = [{k: (v.item() if hasattr(v, "item") else v)
                        for k, v in zip(header, row)} for row in rows]
            payload = json.dumps(records, indent=1) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise UnknownDataKind(f"{path} is empty")
    return rows[0], rows[1:]


def detect_kind(header: list[str]) -> str:
    for kind, columns in TABLE_KINDS.items():
        if header == columns:
            return kind
    raise UnknownDataKind(f"unrecognized table header: {header}")


def sha256_file(path: str) -> str:
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
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """What a run produced; data hashes exclude the timestamp field."""

    version: str
    seed: int
    config_sha256: str
    created: str
    outputs: dict = field(default_factory=dict)  # file name -> sha256

    def add(self, path: str):
        self.outputs[os.path.basename(path)] = sha256_file(path)

    def write(self, path: str) -> str:
        body = {
            "version": self.version,
            "seed": self.seed,
            "config_sha256": self.config_sha256,
            "created": self.created,
            "outputs": dict(sorted(self.outputs.items())),
        }
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        return path

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                body = json.load(fh)
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        return cls(body["version"], body["seed"], body["config_sha256"],
                   body["created"], body.get("outputs", {}))
