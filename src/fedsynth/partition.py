"""Client partition generators, the feature-skew synthetic dataset, and
heterogeneity statistics.

Heterogeneity of client k at query q is the L1 distance between the
client's and the global per-record-normalized marginals, so values lie in
[0, 2] regardless of client size.  An empty client contributes the zero
vector (flagged in the report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .domain import DiscreteDataset, Domain, MarginalQuery, normalized_counts
from .rng import fork
from .workload import Workload


@dataclass(frozen=True)
class ClientPartition:
    """Per-row client assignment over K clients."""

    assignments: np.ndarray = field(compare=False)
    n_clients: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64).copy()
        if a.ndim != 1:
            raise ValueError("assignments must be one-dimensional")
        if a.size and (a.min() < 0 or a.max() >= self.n_clients):
            raise ValueError("client ids must lie in [0, K)")
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def __len__(self) -> int:
        return self.assignments.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_clients)

    @cached_property
    def client_ids(self) -> list[int]:
        """``0 .. K-1`` as one list of ints, so that every round log and
        ledger naming sampled clients shares these objects."""
        return list(range(self.n_clients))


def partition_iid(data: DiscreteDataset, n_clients: int, seed: int) -> ClientPartition:
    if n_clients < 1:
        raise ValueError("need at least one client")
    rng = fork(seed, "partition", "iid", n_clients)
    return ClientPartition(rng.integers(0, n_clients, size=data.n_records), n_clients)


def partition_label_skew(
    data: DiscreteDataset, n_clients: int, class_attr: int | str, beta: float, seed: int
) -> ClientPartition:
    """Dirichlet(beta) label-skew split: rows of each class value are spread
    across clients by a class-specific multinomial draw."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if isinstance(class_attr, str):
        class_attr = data.domain.index_of(class_attr)
    if not 0 <= class_attr < len(data.domain):
        raise KeyError(f"class attribute {class_attr} missing from domain")
    rng = fork(seed, "partition", "label_skew", n_clients)
    labels = data.rows[:, class_attr]
    assignments = np.zeros(data.n_records, dtype=np.int64)
    for value in np.unique(labels):
        idx = np.nonzero(labels == value)[0]
        p = rng.dirichlet(np.full(n_clients, beta))
        assignments[idx] = rng.choice(n_clients, size=idx.size, p=p)
    return ClientPartition(assignments, n_clients)


def _encode_rows(data: DiscreteDataset) -> np.ndarray:
    cards = np.asarray(data.domain.cardinalities, dtype=np.float64)
    denom = np.maximum(cards - 1.0, 1.0)
    return data.rows / denom


def partition_cluster_skew(data: DiscreteDataset, n_clients: int, seed: int) -> ClientPartition:
    """Feature-skew split: k-means (at most 50 iterations) over normalized
    value encodings, one cluster per client, empty clusters repaired by
    splitting the largest."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if n_clients > data.n_records:
        raise ValueError("more clients than rows")
    rng = fork(seed, "partition", "cluster", n_clients)
    points = _encode_rows(data)
    centroid_rows = rng.choice(data.n_records, size=n_clients, replace=False)
    centroids = points[centroid_rows].copy()
    assign = np.zeros(data.n_records, dtype=np.int64)
    point_sq = (points**2).sum(axis=1)
    for _ in range(50):
        dists = (
            point_sq[:, None] - 2.0 * points @ centroids.T + (centroids**2).sum(axis=1)[None, :]
        )
        new_assign = dists.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n_clients)
        for empty in np.nonzero(counts == 0)[0]:
            largest = int(counts.argmax())
            members = np.nonzero(new_assign == largest)[0]
            away = members[dists[members, largest].argmax()]
            new_assign[away] = empty
            centroids[empty] = points[away]
            counts = np.bincount(new_assign, minlength=n_clients)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(n_clients):
            members = assign == k
            if members.any():
                centroids[k] = points[members].mean(axis=0)
    return ClientPartition(assign, n_clients)


class SynthfsResult(NamedTuple):
    data: DiscreteDataset
    partition: ClientPartition
    holdout: DiscreteDataset


def synthfs(
    n_clients: int,
    rows_per_client: int,
    seed: int,
    n_features: int = 10,
    beta: float = 1.0,
    n_zipf: int = 40,
    bins: int = 32,
    holdout_fraction: float = 0.1,
) -> SynthfsResult:
    """Feature-skew synthetic data: per client and feature, a Gaussian whose
    mean is drawn from a finite Zipf(beta) over {1..n_zipf}; 10% of rows are
    held out as a test split and the rest keep their client assignment."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if rows_per_client < 1:
        raise ValueError("rows_per_client must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n_zipf < 1:
        raise ValueError("n_zipf must be >= 1")
    rng = fork(seed, "synthfs", n_clients, rows_per_client, n_features, bins)
    ranks = np.arange(1, n_zipf + 1, dtype=np.float64)
    zipf_p = ranks ** (-beta)
    zipf_p /= zipf_p.sum()
    n_total = n_clients * rows_per_client
    raw = np.empty((n_total, n_features))
    owners = np.repeat(np.arange(n_clients), rows_per_client)
    for k in range(n_clients):
        mus = rng.choice(n_zipf, size=n_features, p=zipf_p) + 1.0
        block = slice(k * rows_per_client, (k + 1) * rows_per_client)
        raw[block] = rng.normal(mus, 1.0, size=(rows_per_client, n_features))
    # shared uniform binning with public global bounds
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    width = (hi - lo) / bins
    codes = np.floor((raw - lo) / width).astype(np.int64)
    np.clip(codes, 0, bins - 1, out=codes)
    domain = Domain.make([f"f{m}" for m in range(n_features)], [bins] * n_features)
    n_hold = int(round(holdout_fraction * n_total))
    hold_idx = rng.choice(n_total, size=n_hold, replace=False)
    mask = np.ones(n_total, dtype=bool)
    mask[hold_idx] = False
    train = DiscreteDataset(domain, codes[mask], validate=False)
    holdout = DiscreteDataset(domain, codes[~mask], validate=False)
    partition = ClientPartition(owners[mask], n_clients)
    return SynthfsResult(train, partition, holdout)


@dataclass
class HeterogeneityReport:
    """Per-client, per-query heterogeneity and its aggregate."""

    per_client: np.ndarray  # shape (K, |Q|)
    queries: tuple[MarginalQuery, ...]
    empty_clients: tuple[int, ...]

    @property
    def aggregate(self) -> float:
        return float(self.per_client.sum(axis=1).mean())


def client_query_skew(
    client_counts: np.ndarray, global_counts: np.ndarray
) -> float | np.ndarray:
    """L1 gap between normalized client and global marginals (in [0, 2]):
    a float for one client's counts, a vector for (clients x cells) rows."""
    gap = normalized_counts(client_counts)
    gap -= normalized_counts(global_counts)
    gap = np.abs(gap, out=gap).sum(axis=-1)
    return float(gap) if gap.ndim == 0 else gap


def client_counts(
    data: DiscreteDataset, partition: ClientPartition, query: MarginalQuery
) -> np.ndarray:
    """(clients x cells) counts of ``query``: one ``bincount`` over
    ``client * cells + cell``; row ``k`` is client ``k``'s marginal."""
    cells = np.ravel_multi_index(
        tuple(data.rows[:, a] for a in query.attrs), dims=data.domain.shape(query.attrs)
    )
    flat = np.bincount(
        partition.assignments * query.cardinality + cells,
        minlength=partition.n_clients * query.cardinality,
    )
    return flat.reshape(partition.n_clients, query.cardinality)


def heterogeneity_report(
    data: DiscreteDataset, partition: ClientPartition, workload: Workload
) -> HeterogeneityReport:
    if len(partition) != data.n_records:
        raise ValueError("partition does not cover the dataset")
    skews = np.zeros((partition.n_clients, len(workload)))
    for j, q in enumerate(workload.queries):
        counts = client_counts(data, partition, q)
        skews[:, j] = client_query_skew(counts, counts.sum(axis=0))
    empty = tuple(int(k) for k in np.nonzero(partition.sizes() == 0)[0])
    return HeterogeneityReport(skews, workload.queries, empty)


def mixture_dataset(n_rows: int, seed: int) -> DiscreteDataset:
    """Bundled census-like surrogate: categorical features drawn from 6
    latent groups with a class attribute, ``income``, correlated with group
    membership.  Used by experiments that need realistic feature/label
    structure without shipping an external dataset."""
    n_groups = 6
    rng = fork(seed, "mixture", n_rows, n_groups)
    spec = [
        ("age", 16),
        ("workclass", 8),
        ("education", 12),
        ("marital", 7),
        ("occupation", 12),
        ("race", 5),
        ("sex", 2),
        ("hours", 16),
    ]
    group_w = rng.dirichlet(np.full(n_groups, 2.0))
    z = rng.choice(n_groups, size=n_rows, p=group_w)
    columns = []
    for _, card in spec:
        dists = rng.dirichlet(np.full(card, 0.25), size=n_groups)
        cdfs = np.cumsum(dists, axis=1)
        u = rng.random(n_rows)
        columns.append((u[:, None] > cdfs[z]).sum(axis=1).astype(np.int64))
    class_p = np.linspace(0.05, 0.9, n_groups)
    columns.append((rng.random(n_rows) < class_p[z]).astype(np.int64))
    domain = Domain.make([name for name, _ in spec] + ["income"], [c for _, c in spec] + [2])
    return DiscreteDataset(domain, np.stack(columns, axis=1), validate=False)
