import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsynth.domain import (
    DiscreteDataset,
    Domain,
    MarginalQuery,
    evaluate_marginal,
    normalized_counts,
)


def small_domain():
    return Domain.make(["a", "b", "c"], [2, 3, 2])


def test_domain_invariants():
    with pytest.raises(ValueError):
        Domain.make(["a", "a"], [2, 2])
    with pytest.raises(ValueError):
        Domain.make(["a"], [0])
    dom = small_domain()
    assert dom.size() == 12
    assert dom.shape((0, 2)) == (2, 2)


def test_query_validation():
    dom = small_domain()
    q = MarginalQuery.make(dom, [2, 0])
    assert q.attrs == (0, 2)
    assert q.cardinality == 4
    with pytest.raises(IndexError):
        MarginalQuery.make(dom, [5])
    with pytest.raises(ValueError):
        MarginalQuery(attrs=(), cardinality=1)


def test_unvalidated_dataset_takes_rows_as_given():
    dom = small_domain()
    rows = np.array([[0, 2, 1], [1, 0, 0]], dtype=np.int64)
    want = rows.copy()
    data = DiscreteDataset(dom, rows, validate=False)
    np.testing.assert_array_equal(data.rows, want)
    assert np.shares_memory(data.rows, rows)
    assert not data.rows.flags.writeable
    with pytest.raises(ValueError):
        data.rows[0, 0] = 1
    # a validated dataset keeps its own copy, also read-only
    checked = DiscreteDataset(dom, want)
    assert not np.shares_memory(checked.rows, want) and not checked.rows.flags.writeable
    subset = data.subset(np.array([1]))
    np.testing.assert_array_equal(subset.rows, want[[1]])
    assert not subset.rows.flags.writeable


def test_dataset_range_checks():
    dom = small_domain()
    with pytest.raises(ValueError):
        DiscreteDataset(dom, np.array([[0, 3, 0]]))
    with pytest.raises(ValueError):
        DiscreteDataset(dom, np.array([[0, 0]]))


def test_marginal_empty_dataset_is_zero():
    dom = small_domain()
    data = DiscreteDataset(dom, np.zeros((0, 3)))
    q = MarginalQuery.make(dom, [0, 1])
    counts = evaluate_marginal(data, q)
    assert counts.shape == (6,)
    assert np.all(counts == 0)


def test_marginal_single_row_cell_ordering():
    # one row x=[0,1] over a (2,2) domain lands in cell index 1
    dom = Domain.make(["x", "y"], [2, 2])
    data = DiscreteDataset(dom, np.array([[0, 1]]))
    q = MarginalQuery.make(dom, [0, 1])
    assert evaluate_marginal(data, q).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_marginal_linearity_under_replication():
    dom = small_domain()
    rng = np.random.default_rng(0)
    rows = rng.integers(0, [2, 3, 2], size=(40, 3))
    data = DiscreteDataset(dom, rows)
    doubled = DiscreteDataset(dom, np.vstack([rows, rows]))
    for attrs in [(0,), (1, 2), (0, 1, 2)]:
        q = MarginalQuery.make(dom, attrs)
        np.testing.assert_array_equal(
            2 * evaluate_marginal(data, q), evaluate_marginal(doubled, q)
        )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 60))
def test_marginal_total_and_consistency(seed, n_rows):
    dom = Domain.make(["a", "b", "c", "d"], [3, 2, 4, 2])
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, [3, 2, 4, 2], size=(n_rows, 4))
    data = DiscreteDataset(dom, rows)
    q = MarginalQuery.make(dom, [0, 2, 3])
    counts = evaluate_marginal(data, q)
    assert counts.sum() == n_rows
    # summing over dropped attributes reproduces the sub-marginal exactly
    sub = MarginalQuery.make(dom, [0, 3])
    projected = counts.reshape(dom.shape(q.attrs)).sum(axis=1).reshape(-1)  # drop attribute 2
    np.testing.assert_array_equal(projected, evaluate_marginal(data, sub))


def test_normalized_counts_zero_convention():
    assert normalized_counts(np.zeros(4)).tolist() == [0, 0, 0, 0]
    np.testing.assert_allclose(normalized_counts(np.array([1.0, 3.0])), [0.25, 0.75])


@pytest.mark.parametrize("cells", [1, 3, 9, 130, 300])
def test_normalized_counts_rows_match_one_row_at_a_time(cells):
    rng = np.random.default_rng(cells)
    block = rng.integers(0, 50, size=(7, cells)) * rng.random((7, cells))
    block[2] = 0.0  # a row with no mass
    block[5] = -block[5]  # negative mass counts as none
    rows = normalized_counts(block)
    assert rows.shape == block.shape
    for r in range(len(block)):
        np.testing.assert_array_equal(rows[r], normalized_counts(block[r]))
    assert not rows[2].any() and not rows[5].any()
