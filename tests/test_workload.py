import math

import numpy as np
import pytest

from fedsynth.domain import DiscreteDataset, Domain
from fedsynth.workload import Workload, complete_workload, random_workload, workload_error


def domain(d=5, card=3):
    return Domain.make([f"a{i}" for i in range(d)], [card] * d)


def test_weights_self_intersection():
    dom = domain()
    w = Workload.make(dom, [(0, 1), (1, 2)])
    # w_{0,1} = |{0,1}∩{0,1}| + |{0,1}∩{1,2}| = 2 + 1
    assert w.weights == (3.0, 3.0)
    assert all(wt >= len(q.attrs) for q, wt in zip(w.queries, w.weights))


def test_weights_permutation_invariant():
    dom = domain()
    w1 = Workload.make(dom, [(0, 1), (1, 2), (3,)])
    w2 = Workload.make(dom, [(3,), (1, 2), (0, 1)])
    m1 = {q.attrs: wt for q, wt in zip(w1.queries, w1.weights)}
    m2 = {q.attrs: wt for q, wt in zip(w2.queries, w2.weights)}
    assert m1 == m2


def test_completion_subset_enumeration():
    dom = domain()
    completed = complete_workload(dom, Workload.make(dom, [(1, 2)]))
    assert [q.attrs for q in completed.queries] == [(1,), (2,), (1, 2)]


def test_completion_fixpoint():
    dom = domain()
    base = Workload.make(dom, [(0,), (1,), (0, 1)])
    completed = complete_workload(dom, base)
    assert {q.attrs for q in completed.queries} == {q.attrs for q in base.queries}


def test_completion_weights_by_hand():
    dom = domain()
    completed = complete_workload(dom, Workload.make(dom, [(1, 2), (2, 3)]))
    attrs = [q.attrs for q in completed.queries]
    assert set(attrs) == {(1,), (2,), (3,), (1, 2), (2, 3)}
    weights = {q.attrs: wt for q, wt in zip(completed.queries, completed.weights)}
    # enumerate intersections over the completed set by hand
    assert weights[(2,)] == 0 + 1 + 0 + 1 + 1
    assert weights[(1, 2)] == 1 + 1 + 0 + 2 + 1
    assert weights[(1,)] == 1 + 0 + 0 + 1 + 0


def test_random_workload_basics():
    dom = domain(d=14)
    w = random_workload(dom, arity=3, count=64, seed=5)
    assert len(w) == 64
    assert len({q.attrs for q in w.queries}) == 64
    assert all(len(q.attrs) == 3 for q in w.queries)
    again = random_workload(dom, arity=3, count=64, seed=5)
    assert [q.attrs for q in again.queries] == [q.attrs for q in w.queries]


def test_random_workload_exhaustion_and_errors():
    dom = domain(d=5)
    full = random_workload(dom, arity=2, count=math.comb(5, 2), seed=0)
    assert {q.attrs for q in full.queries} == {
        (i, j) for i in range(5) for j in range(i + 1, 5)
    }
    with pytest.raises(ValueError):
        random_workload(dom, arity=2, count=math.comb(5, 2) + 1, seed=0)
    with pytest.raises(ValueError):
        random_workload(dom, arity=6, count=1, seed=0)


def test_workload_error_identity_and_symmetry():
    dom = domain(d=3)
    rng = np.random.default_rng(1)
    data = DiscreteDataset(dom, rng.integers(0, 3, size=(50, 3)))
    other = DiscreteDataset(dom, rng.integers(0, 3, size=(30, 3)))
    w = Workload.make(dom, [(0, 1), (2,)])
    assert workload_error(data, data, w) == 0.0
    assert workload_error(data, other, w) == pytest.approx(workload_error(other, data, w))


def test_workload_error_hand_value():
    # two rows in one cell vs two rows in another: raw error 4, normalized 2
    dom = Domain.make(["a"], [3])
    d1 = DiscreteDataset(dom, np.array([[0], [0]]))
    d2 = DiscreteDataset(dom, np.array([[1], [1]]))
    w = Workload.make(dom, [(0,)])
    assert workload_error(d1, d2, w, normalize=False) == 4.0
    assert workload_error(d1, d2, w, normalize=True) == 2.0


def test_empty_workload_refused():
    with pytest.raises(ValueError, match="no queries"):
        Workload(queries=(), weights=())
    with pytest.raises(ValueError, match="no queries"):
        random_workload(domain(), arity=2, count=0, seed=0)
