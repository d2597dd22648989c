"""Discrete attribute domains, datasets, and marginal queries.

A marginal table for an attribute subset is laid out in mixed-radix order:
attributes sorted ascending by index, with the last attribute varying
fastest (C order).  Every module in the package relies on this single cell
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Domain:
    """Ordered attribute names with per-attribute cardinalities."""

    attributes: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.attributes) != len(self.cardinalities):
            raise ValueError("attributes and cardinalities must align")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute names must be unique")
        if any(c < 1 for c in self.cardinalities):
            raise ValueError("every cardinality must be >= 1")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))

    @classmethod
    def make(cls, attributes: Iterable[str], cardinalities: Iterable[int]) -> "Domain":
        return cls(tuple(attributes), tuple(cardinalities))

    def __len__(self) -> int:
        return len(self.attributes)

    def index_of(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def shape(self, attrs: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.cardinalities[i] for i in attrs)

    def size(self, attrs: Sequence[int] | None = None) -> int:
        if attrs is None:
            attrs = range(len(self))
        return math.prod(self.cardinalities[i] for i in attrs)


@dataclass(frozen=True)
class MarginalQuery:
    """A sorted, duplicate-free attribute subset together with its cell count."""

    attrs: tuple[int, ...]
    cardinality: int

    def __post_init__(self):
        if not self.attrs:
            raise ValueError("marginal query must name at least one attribute")
        if tuple(sorted(set(self.attrs))) != tuple(self.attrs):
            raise ValueError("query attributes must be sorted and duplicate-free")

    @classmethod
    def make(cls, domain: Domain, attrs: Iterable[int]) -> "MarginalQuery":
        attrs = tuple(sorted(set(int(a) for a in attrs)))
        for a in attrs:
            if not 0 <= a < len(domain):
                raise IndexError(f"attribute index {a} out of range for domain of size {len(domain)}")
        return cls(attrs, domain.size(attrs))

    def __len__(self) -> int:
        return len(self.attrs)


class DiscreteDataset:
    """Integer-encoded rows over a :class:`Domain`.

    The dataset's rows are read-only.  A validated dataset keeps its own
    copy of ``rows``; with ``validate=False`` an int64 array is taken as
    given and made read-only in place, for callers that have just built it.
    """

    def __init__(self, domain: Domain, rows: np.ndarray, validate: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, len(domain))
        if rows.ndim != 2 or rows.shape[1] != len(domain):
            raise ValueError(f"rows must have shape (N, {len(domain)})")
        if validate:
            if rows.shape[0] > 0:
                upper = np.asarray(domain.cardinalities, dtype=np.int64)
                if rows.min() < 0 or np.any(rows.max(axis=0) >= upper):
                    raise ValueError("row entries must lie in [0, cardinality) per attribute")
            rows = rows.copy()
        rows.flags.writeable = False
        self.domain = domain
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def n_records(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices: np.ndarray) -> "DiscreteDataset":
        return DiscreteDataset(self.domain, self.rows[np.asarray(indices)], validate=False)

    def marginal_counts(self, query: MarginalQuery) -> np.ndarray:
        return evaluate_marginal(self, query)


def evaluate_marginal(data: DiscreteDataset, query: MarginalQuery) -> np.ndarray:
    """Exact counts of ``data`` over the cells of ``query``.

    Cell ``j`` counts rows whose projection onto the query attributes equals
    the ``j``-th value combination in mixed-radix order (ascending attribute
    index, last attribute fastest).
    """
    for a in query.attrs:
        if not 0 <= a < len(data.domain):
            raise IndexError(f"attribute index {a} out of range")
    shape = data.domain.shape(query.attrs)
    if data.n_records == 0:
        return np.zeros(query.cardinality)
    flat = np.ravel_multi_index(tuple(data.rows[:, a] for a in query.attrs), dims=shape)
    return np.bincount(flat, minlength=query.cardinality).astype(np.float64)


def normalized_counts(counts: np.ndarray) -> np.ndarray:
    """Per-record frequencies along the last axis, so each row of a
    (clients x cells) block is normalized on its own; a row with no mass
    becomes zeros."""
    counts = np.array(counts, dtype=np.float64)  # a copy, normalized in place
    total = counts.sum(axis=-1, keepdims=True)
    empty = total <= 0
    np.divide(counts, total, out=counts, where=~empty)
    np.copyto(counts, 0.0, where=empty)
    return counts
