import numpy as np
import pytest

from fedsynth.domain import DiscreteDataset, Domain, MarginalQuery, evaluate_marginal
from fedsynth.partition import (
    ClientPartition,
    client_query_skew,
    heterogeneity_report,
    mixture_dataset,
    partition_cluster_skew,
    partition_iid,
    partition_label_skew,
    synthfs,
)
from fedsynth.workload import Workload, random_workload


def toy_data(n=200, seed=0, cards=(4, 3, 2)):
    dom = Domain.make([f"a{i}" for i in range(len(cards))], cards)
    rng = np.random.default_rng(seed)
    return DiscreteDataset(dom, rng.integers(0, cards, size=(n, len(cards))))


# --- iid -----------------------------------------------------------------------------


def test_iid_single_client():
    data = toy_data()
    part = partition_iid(data, 1, seed=0)
    assert np.all(part.assignments == 0)


def test_iid_conservation_and_determinism():
    data = toy_data(n=150)
    part = partition_iid(data, 150, seed=3)
    assert part.sizes().sum() == 150
    again = partition_iid(data, 150, seed=3)
    np.testing.assert_array_equal(part.assignments, again.assignments)


def test_partition_marginals_sum_to_global():
    data = toy_data(n=300, seed=1)
    part = partition_iid(data, 7, seed=2)
    q = MarginalQuery.make(data.domain, [0, 2])
    total = np.zeros(q.cardinality)
    for k in range(7):
        total += evaluate_marginal(data.subset(np.nonzero(part.assignments == k)[0]), q)
    np.testing.assert_array_equal(total, evaluate_marginal(data, q))


# --- label skew ----------------------------------------------------------------------


def test_label_skew_conservation_and_determinism():
    data = toy_data(n=400, seed=5)
    part = partition_label_skew(data, 10, class_attr=2, beta=0.1, seed=9)
    assert part.sizes().sum() == 400
    again = partition_label_skew(data, 10, class_attr="a2", beta=0.1, seed=9)
    np.testing.assert_array_equal(part.assignments, again.assignments)


def test_label_skew_missing_class():
    data = toy_data()
    with pytest.raises(KeyError):
        partition_label_skew(data, 4, class_attr="nope", beta=0.5, seed=0)
    with pytest.raises(ValueError):
        partition_label_skew(data, 4, class_attr=0, beta=0.0, seed=0)


def test_label_skew_heterogeneity_decreases_in_beta():
    data = mixture_dataset(4000, seed=11)
    workload = random_workload(data.domain, 2, 8, seed=4)
    agg = {beta: [] for beta in (0.1, 1.0)}
    for seed in range(10):
        for beta in agg:
            part = partition_label_skew(data, 20, "income", beta, seed=seed)
            agg[beta].append(heterogeneity_report(data, part, workload).aggregate)
    assert np.mean(agg[0.1]) > np.mean(agg[1.0])


# --- cluster skew --------------------------------------------------------------------


def test_cluster_separated_blobs_pure():
    # two well-separated value blobs must map to distinct clients
    dom = Domain.make(["x", "y"], [20, 20])
    rng = np.random.default_rng(0)
    blob_a = np.clip(rng.normal(3, 1.0, size=(100, 2)), 0, 19).astype(int)
    blob_b = np.clip(rng.normal(16, 1.0, size=(100, 2)), 0, 19).astype(int)
    data = DiscreteDataset(dom, np.vstack([blob_a, blob_b]))
    part = partition_cluster_skew(data, 2, seed=1)
    labels = np.array([0] * 100 + [1] * 100)
    match = (part.assignments == labels).mean()
    purity = max(match, 1 - match)
    assert purity > 0.95


def test_cluster_single_client_and_determinism():
    data = toy_data(n=50)
    part = partition_cluster_skew(data, 1, seed=0)
    assert np.all(part.assignments == 0)
    a = partition_cluster_skew(data, 5, seed=4).assignments
    b = partition_cluster_skew(data, 5, seed=4).assignments
    np.testing.assert_array_equal(a, b)


def test_cluster_no_empty_clusters():
    data = toy_data(n=60, seed=2)
    part = partition_cluster_skew(data, 12, seed=7)
    assert np.all(part.sizes() > 0)


def test_cluster_exceeds_rows_rejected():
    data = toy_data(n=5)
    with pytest.raises(ValueError):
        partition_cluster_skew(data, 6, seed=0)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda data: partition_label_skew(data, 0, 2, beta=0.5, seed=0), "need at least one client"),
        (lambda data: partition_label_skew(data, -2, 2, beta=0.5, seed=0), "need at least one client"),
        (lambda data: partition_cluster_skew(data, 0, seed=0), "need at least one client"),
        (lambda data: synthfs(n_clients=0, rows_per_client=10, seed=0), "need at least one client"),
        (lambda data: synthfs(n_clients=3, rows_per_client=0, seed=0), "rows_per_client must be >= 1"),
    ],
    ids=["label_skew-0", "label_skew-negative", "cluster-0", "synthfs-clients-0", "synthfs-rows-0"],
)
def test_split_without_clients_or_rows_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make(toy_data())


# --- synthfs -------------------------------------------------------------------------


def test_synthfs_shapes_and_defaults():
    result = synthfs(n_clients=100, rows_per_client=500, seed=0, bins=8)
    assert result.data.n_records + result.holdout.n_records == 50_000
    assert result.holdout.n_records == 5_000
    assert len(result.partition) == result.data.n_records
    assert len(result.data.domain) == 10
    assert result.data.domain.cardinalities == (8,) * 10


def test_synthfs_bitwise_reproducible():
    a = synthfs(10, 50, seed=42, n_features=4, bins=6)
    b = synthfs(10, 50, seed=42, n_features=4, bins=6)
    np.testing.assert_array_equal(a.data.rows, b.data.rows)
    np.testing.assert_array_equal(a.partition.assignments, b.partition.assignments)
    np.testing.assert_array_equal(a.holdout.rows, b.holdout.rows)


def test_synthfs_large_beta_collapses_skew():
    workload = None
    hi = synthfs(10, 100, seed=3, n_features=4, beta=60.0, bins=6)
    lo = synthfs(10, 100, seed=3, n_features=4, beta=1.0, bins=6)
    workload = random_workload(hi.data.domain, 1, 4, seed=5)
    agg_hi = heterogeneity_report(hi.data, hi.partition, workload).aggregate
    agg_lo = heterogeneity_report(lo.data, lo.partition, workload).aggregate
    assert agg_hi < agg_lo


# --- heterogeneity -------------------------------------------------------------------


def test_skew_zero_for_identical_clients():
    data = toy_data(n=100, seed=8)
    # duplicate the dataset across two clients
    dom = data.domain
    doubled = DiscreteDataset(dom, np.vstack([data.rows, data.rows]))
    part = ClientPartition(np.array([0] * 100 + [1] * 100), 2)
    workload = Workload.make(dom, [(0,), (1, 2)])
    report = heterogeneity_report(doubled, part, workload)
    np.testing.assert_allclose(report.per_client, 0.0, atol=1e-12)
    assert report.aggregate == pytest.approx(0.0)


def test_skew_disjoint_supports_hand_value():
    # two clients with disjoint single-cell supports on a binary attribute:
    # each client's normalized one-way is L1 distance 1 from the global [.5,.5]
    dom = Domain.make(["b"], [2])
    data = DiscreteDataset(dom, np.array([[0]] * 50 + [[1]] * 50))
    part = ClientPartition(np.array([0] * 50 + [1] * 50), 2)
    workload = Workload.make(dom, [(0,)])
    report = heterogeneity_report(data, part, workload)
    np.testing.assert_allclose(report.per_client, 1.0)
    assert report.per_client.max() <= 2.0


def test_skew_empty_client_flagged():
    dom = Domain.make(["b"], [2])
    data = DiscreteDataset(dom, np.array([[0], [1]]))
    part = ClientPartition(np.array([0, 0]), 2)
    report = heterogeneity_report(data, dom and part, Workload.make(dom, [(0,)]))
    assert report.empty_clients == (1,)
    # empty client compares the zero vector against the global distribution
    assert report.per_client[1, 0] == pytest.approx(1.0)


def test_cluster_skew_exceeds_iid():
    data = mixture_dataset(4000, seed=13)
    workload = random_workload(data.domain, 2, 8, seed=6)
    iid = heterogeneity_report(data, partition_iid(data, 20, seed=1), workload).aggregate
    clustered = heterogeneity_report(
        data, partition_cluster_skew(data, 20, seed=1), workload
    ).aggregate
    assert clustered > iid


def test_client_query_skew_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(0, 10, 6), rng.uniform(0, 10, 6)
        assert 0.0 <= client_query_skew(a, b) <= 2.0


@pytest.mark.parametrize("cells", [1, 3, 9, 130])
def test_client_query_skew_rows_match_one_client_at_a_time(cells):
    rng = np.random.default_rng(cells)
    block = rng.integers(0, 20, size=(6, cells))
    block[1] = 0  # an empty client
    global_counts = block.sum(axis=0) + 1.0
    gaps = client_query_skew(block, global_counts)
    assert gaps.shape == (6,)
    for k in range(6):
        one = client_query_skew(block[k], global_counts)
        assert isinstance(one, float)
        assert gaps[k] == one


def test_heterogeneity_report_matches_per_client_loop():
    data = toy_data(n=120, seed=3)
    part = partition_label_skew(data, 30, 2, beta=0.3, seed=1)
    assert np.any(part.sizes() == 0)
    workload = random_workload(data.domain, 2, 3, seed=0)
    report = heterogeneity_report(data, part, workload)
    for j, q in enumerate(workload.queries):
        global_counts = evaluate_marginal(data, q)
        for k in range(part.n_clients):
            local = data.subset(np.nonzero(part.assignments == k)[0])
            assert report.per_client[k, j] == client_query_skew(evaluate_marginal(local, q), global_counts)
