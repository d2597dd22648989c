"""Workloads of marginal queries: construction, completion, weighting, error."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .domain import Domain, MarginalQuery, normalized_counts
from .rng import fork


def _overlap_weights(attr_sets: Sequence[tuple[int, ...]]) -> list[float]:
    sets = [set(a) for a in attr_sets]
    return [float(sum(len(q & r) for r in sets)) for q in sets]


@dataclass(frozen=True)
class Workload:
    """Marginal queries with overlap weights w_q = sum_r |q ∩ r| (self included)."""

    queries: tuple[MarginalQuery, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.queries) != len(self.weights):
            raise ValueError("queries and weights must align")
        if not self.queries:
            raise ValueError("workload has no queries, so a protocol has nothing to select")

    @classmethod
    def make(cls, domain: Domain, attr_sets: Iterable[Sequence[int]]) -> "Workload":
        queries = tuple(MarginalQuery.make(domain, attrs) for attrs in attr_sets)
        seen = set()
        for q in queries:
            if q.attrs in seen:
                raise ValueError(f"duplicate query {q.attrs}")
            seen.add(q.attrs)
        weights = tuple(_overlap_weights([q.attrs for q in queries]))
        return cls(queries, weights)

    def __len__(self) -> int:
        return len(self.queries)

    def max_weight(self) -> float:
        return max(self.weights)


def complete_workload(domain: Domain, workload: Workload) -> Workload:
    """Close the workload under non-empty subsets and recompute weights."""
    closed: set[tuple[int, ...]] = set()
    for q in workload.queries:
        for r in range(1, len(q.attrs) + 1):
            closed.update(combinations(q.attrs, r))
    ordered = sorted(closed, key=lambda a: (len(a), a))
    return Workload.make(domain, ordered)


def random_workload(domain: Domain, arity: int, count: int, seed: int) -> Workload:
    """``count`` distinct attribute subsets of the given arity, uniform in ``seed``."""
    d = len(domain)
    if arity > d:
        raise ValueError(f"arity {arity} exceeds number of attributes {d}")
    available = math.comb(d, arity)
    if count > available:
        raise ValueError(f"cannot draw {count} distinct {arity}-subsets from {d} attributes")
    rng = fork(seed, "workload", arity, count)
    if available <= 1_000_000:
        universe = list(combinations(range(d), arity))
        picked = rng.choice(available, size=count, replace=False)
        chosen = [universe[i] for i in sorted(picked)]
    else:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < count:
            cand = tuple(sorted(rng.choice(d, size=arity, replace=False).tolist()))
            seen.add(cand)
        chosen = sorted(seen)
    return Workload.make(domain, chosen)


def workload_error(source_a, source_b, workload: Workload, normalize: bool = True) -> float:
    """Average L1 distance between the two answer sources over the workload.

    Sources are anything exposing ``marginal_counts(query)`` (datasets and
    fitted models both do).  With ``normalize`` each table is divided by its
    own total first, giving an O(1)-scale per-record error; otherwise raw
    count tables are compared.
    """
    total = 0.0
    for q in workload.queries:
        a = np.asarray(source_a.marginal_counts(q), dtype=np.float64)
        b = np.asarray(source_b.marginal_counts(q), dtype=np.float64)
        if normalize:
            a = normalized_counts(a)
            b = normalized_counts(b)
        total += float(np.abs(a - b).sum())
    return total / len(workload)
