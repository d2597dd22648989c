"""Dataset ingestion: delimited text plus a JSON schema, uniform binning.

Schema format (JSON): a list of field objects, each with
``name``, ``kind`` ("categorical" or "continuous"), and for continuous
fields ``min``, ``max`` and optionally ``bins`` (default 32).  Categorical
fields may pin ``categories``; otherwise values are mapped in first-seen
order.  Bounds are treated as public knowledge.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .domain import DiscreteDataset, Domain

DEFAULT_BINS = 32


@dataclass
class SchemaField:
    name: str
    kind: str  # "categorical" | "continuous"
    min: float | None = None
    max: float | None = None
    bins: int = DEFAULT_BINS
    categories: list[str] | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "continuous"):
            raise ValueError(f"unknown field kind {self.kind!r} for {self.name!r}")
        if self.kind == "continuous":
            if self.min is None or self.max is None:
                raise ValueError(f"continuous field {self.name!r} needs min and max")
            if not self.min < self.max:
                raise ValueError(f"field {self.name!r} requires min < max")
            if self.bins < 1:
                raise ValueError(f"field {self.name!r} requires bins >= 1")


@dataclass
class Schema:
    fields: list[SchemaField]

    @classmethod
    def from_json(cls, path: str) -> "Schema":
        with open(path) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            raw = raw["fields"]
        return cls([SchemaField(**entry) for entry in raw])


@dataclass
class DiscretizeReport:
    """Out-of-range continuous values clamped to a boundary bin, per field."""

    clamped_low: dict[str, int] = field(default_factory=dict)
    clamped_high: dict[str, int] = field(default_factory=dict)

    def total_clamped(self) -> int:
        return sum(self.clamped_low.values()) + sum(self.clamped_high.values())


def discretize(
    columns: Sequence[Sequence], schema: Schema
) -> tuple[DiscreteDataset, DiscretizeReport]:
    """Encode raw columns into a DiscreteDataset under the schema.

    Continuous values map to uniform-width bins over [min, max] with the top
    edge inclusive; values outside the declared range are clamped to the
    boundary bin and counted in the report.
    """
    if len(columns) != len(schema.fields):
        raise ValueError(f"expected {len(schema.fields)} columns, got {len(columns)}")
    report = DiscretizeReport()
    encoded = []
    cards = []
    for raw, f in zip(columns, schema.fields):
        if f.kind == "continuous":
            values = np.asarray(raw, dtype=np.float64)
            width = (f.max - f.min) / f.bins
            idx = np.floor((values - f.min) / width).astype(np.int64)
            low = int((values < f.min).sum())
            high = int((values > f.max).sum())
            if low:
                report.clamped_low[f.name] = low
            if high:
                report.clamped_high[f.name] = high
            # top edge inclusive: value == max lands in the last bin
            idx = np.clip(idx, 0, f.bins - 1)
            encoded.append(idx)
            cards.append(f.bins)
        else:
            mapping: dict[str, int] = {}
            if f.categories is not None:
                mapping = {str(c): i for i, c in enumerate(f.categories)}
            codes = np.empty(len(raw), dtype=np.int64)
            for i, v in enumerate(raw):
                key = str(v)
                if key not in mapping:
                    if f.categories is not None:
                        raise ValueError(f"value {key!r} not in declared categories of {f.name!r}")
                    mapping[key] = len(mapping)
                codes[i] = mapping[key]
            encoded.append(codes)
            cards.append(max(len(mapping), 1))
    domain = Domain.make([f.name for f in schema.fields], cards)
    rows = np.stack(encoded, axis=1) if encoded else np.zeros((0, 0), dtype=np.int64)
    return DiscreteDataset(domain, rows), report


def load_csv(path: str, delimiter: str = ",") -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        rows = [row for row in reader if row]
    return header, rows


def prepare_dataset(
    csv_path: str, schema_path: str, delimiter: str = ","
) -> tuple[DiscreteDataset, DiscretizeReport]:
    """Load delimited text with a header row and encode it per the schema."""
    schema = Schema.from_json(schema_path)
    header, rows = load_csv(csv_path, delimiter)
    index = {name: i for i, name in enumerate(header)}
    missing = [f.name for f in schema.fields if f.name not in index]
    if missing:
        raise ValueError(f"{csv_path}: columns missing from header: {missing}")
    columns = [[row[index[f.name]] for row in rows] for f in schema.fields]
    return discretize(columns, schema)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8, atomically (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(path: str, data: DiscreteDataset) -> None:
    import io as _io

    buf = _io.BytesIO()
    np.savez(
        buf,
        rows=data.rows,
        attributes=np.array(data.domain.attributes, dtype=np.str_),
        cardinalities=np.array(data.domain.cardinalities, dtype=np.int64),
    )
    atomic_write_bytes(path, buf.getvalue())


def load_dataset(path: str) -> DiscreteDataset:
    """Load a dataset written by :func:`save_dataset`.

    Pickled (object) arrays are refused with ``ValueError``, so loading an
    untrusted file cannot run code.
    """
    with np.load(path, allow_pickle=False) as archive:
        domain = Domain.make(
            [str(a) for a in archive["attributes"]],
            [int(c) for c in archive["cardinalities"]],
        )
        return DiscreteDataset(domain, archive["rows"])


def save_partition(path: str, assignments: Iterable[int]) -> None:
    atomic_write_text(path, "\n".join(str(int(a)) for a in assignments) + "\n")


def load_partition(path: str) -> np.ndarray:
    with open(path) as fh:
        values = [int(line) for line in fh if line.strip()]
    return np.asarray(values, dtype=np.int64)
