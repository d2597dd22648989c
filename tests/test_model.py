import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedsynth.model as model_module
from fedsynth.domain import DiscreteDataset, Domain, MarginalQuery, evaluate_marginal
from fedsynth.model import (
    ComponentTooLargeError,
    Measurement,
    ModelState,
    estimate_total,
    fit,
    merged_components,
)
from fedsynth.rng import fork


def domain(cards):
    return Domain.make([f"a{i}" for i in range(len(cards))], cards)


def meas(dom, attrs, counts, sigma=1.0, weight=1.0, t=0):
    q = MarginalQuery.make(dom, attrs)
    return Measurement(t, q, np.asarray(counts, dtype=float), sigma, weight)


# --- independent oracle: projected gradient on the full joint ------------------------


def _simplex_project(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = total} (sorting method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def brute_force_fit(measurements, dom, total, iters=40_000):
    """Projected gradient descent on the flattened full joint table."""
    shape = tuple(dom.cardinalities)
    n = int(np.prod(shape))
    mats = []
    for m in measurements:
        # binary marginalization matrix: rows are query cells
        a = np.zeros((m.query.cardinality, n))
        grid = np.indices(shape).reshape(len(shape), n)
        flat_q = np.ravel_multi_index(
            tuple(grid[a_i] for a_i in m.query.attrs), dims=dom.shape(m.query.attrs)
        )
        a[flat_q, np.arange(n)] = 1.0
        mats.append((a, m.noisy_counts, m.weight))
    lipschitz = sum(2 * w * np.linalg.norm(a, 2) ** 2 for a, _, w in mats)
    step = 1.0 / lipschitz
    p = np.full(n, total / n)
    for _ in range(iters):
        grad = np.zeros(n)
        for a, y, w in mats:
            grad += 2 * w * a.T @ (a @ p - y)
        p = _simplex_project(p - step * grad, total)
    return p


def objective_value(measurements, dom, flat_joint):
    shape = tuple(dom.cardinalities)
    total = 0.0
    for m in measurements:
        table = flat_joint.reshape(shape)
        drop = tuple(i for i in range(len(shape)) if i not in m.query.attrs)
        marg = table.sum(axis=drop).reshape(-1)
        total += m.weight * float(np.square(marg - m.noisy_counts).sum())
    return total


def model_objective(measurements, model):
    total = 0.0
    for m in measurements:
        marg = model.marginal_counts(m.query)
        total += m.weight * float(np.square(marg - m.noisy_counts).sum())
    return total


# --- fit -----------------------------------------------------------------------------


def test_exact_fit_single_oneway():
    dom = domain([2])
    m = meas(dom, [0], [30.0, 70.0])
    model = fit([m], dom, iterations=500, tolerance=1e-14)
    np.testing.assert_allclose(model.marginal_counts(m.query), [30.0, 70.0], atol=1e-3)
    assert model.total == pytest.approx(100.0)


def test_overlapping_chain_matches_brute_force():
    dom = domain([2, 2, 2])
    m1 = meas(dom, [0, 1], [30.0, 10.0, 20.0, 40.0])
    m2 = meas(dom, [1, 2], [25.0, 25.0, 35.0, 15.0])
    model = fit([m1, m2], dom, iterations=3000, tolerance=1e-14)
    for m in (m1, m2):
        assert np.abs(model.marginal_counts(m.query) - m.noisy_counts).sum() < 1e-2
    oracle = brute_force_fit([m1, m2], dom, total=model.total)
    got = model_objective([m1, m2], model)
    want = objective_value([m1, m2], dom, oracle)
    scale = max(want, 1e-6 * sum(m.weight * np.square(m.noisy_counts).sum() for m in (m1, m2)))
    assert got <= want + 1e-3 * scale


def test_noisy_fit_matches_brute_force_objective():
    dom = domain([3, 2, 2])
    rng = fork(4, "noisy")
    rows = rng.integers(0, [3, 2, 2], size=(200, 3))
    data = DiscreteDataset(dom, rows)
    queries = [(0, 1), (1, 2), (0, 2)]
    measurements = []
    for attrs in queries:
        q = MarginalQuery.make(dom, attrs)
        noisy = evaluate_marginal(data, q) + rng.normal(0, 5.0, q.cardinality)
        measurements.append(Measurement(0, q, noisy, 5.0, 1.0 / 5.0))
    model = fit(measurements, dom, iterations=4000, tolerance=1e-14)
    oracle = brute_force_fit(measurements, dom, total=model.total)
    got = model_objective(measurements, model)
    want = objective_value(measurements, dom, oracle)
    assert got <= want * (1 + 1e-3) + 1e-9


def test_no_measurements_uniform():
    dom = domain([2, 3])
    model = fit([], dom, total=60.0)
    np.testing.assert_allclose(
        model.marginal_counts(MarginalQuery.make(dom, [0, 1])), np.full(6, 10.0)
    )


def test_objective_monotone_nonincreasing():
    dom = domain([4, 3, 2])
    rng = fork(9, "mono")
    measurements = [
        meas(dom, [0, 1], rng.normal(50, 20, 12), weight=0.3),
        meas(dom, [1, 2], rng.normal(50, 20, 6), weight=2.0),
        meas(dom, [0, 2], rng.normal(50, 20, 8), weight=1.1),
    ]
    model = fit(measurements, dom, iterations=300)
    for trace in model.meta["objective_traces"].values():
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-9)


def test_total_estimation_weighted_clipped():
    dom = domain([2])
    m1 = meas(dom, [0], [60.0, 60.0], weight=1.0)  # total 120
    m2 = meas(dom, [0], [-5.0, -7.0], weight=3.0)  # clipped to 0
    assert estimate_total([m1, m2]) == pytest.approx(120.0 / 4.0)


@pytest.mark.parametrize("field, value", [
    ("counts", [1.0, np.nan]), ("counts", [np.inf, 1.0]), ("counts", [1.0, -np.inf]),
    ("sigma", np.nan), ("sigma", np.inf),
    ("weight", np.nan), ("weight", np.inf), ("weight", 0.0), ("weight", -1.0),
])
def test_measurement_refuses_nonfinite_inputs(field, value):
    dom = domain([2])
    args = {"counts": [1.0, 2.0], "sigma": 1.0, "weight": 1.0, field: value}
    with pytest.raises(ValueError, match=field if field != "counts" else "finite"):
        meas(dom, [0], args["counts"], sigma=args["sigma"], weight=args["weight"])


@pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf])
def test_fit_refuses_nonfinite_total(total):
    dom = domain([2])
    with pytest.raises(ValueError, match="total"):
        fit([meas(dom, [0], [1.0, 2.0])], dom, total=total)


def test_component_cell_cap(monkeypatch):
    monkeypatch.setattr(model_module, "MAX_CELLS", 64**2)
    dom = domain([64, 64, 64])
    m = meas(dom, [0, 1], np.zeros(64 * 64))
    m2 = meas(dom, [1, 2], np.zeros(64 * 64))
    with pytest.raises(ComponentTooLargeError, match=r"\(0, 1, 2\)"):
        fit([m, m2], dom)


# --- answering -----------------------------------------------------------------------


def test_answer_consistency_within_component():
    dom = domain([2, 3, 2])
    rng = fork(5, "cons")
    m = meas(dom, [0, 1, 2], rng.uniform(1, 10, 12))
    model = fit([m], dom, iterations=300)
    full = model.marginal_counts(MarginalQuery.make(dom, [0, 1, 2])).reshape(2, 3, 2)
    sub = model.marginal_counts(MarginalQuery.make(dom, [0, 2]))
    np.testing.assert_allclose(full.sum(axis=1).reshape(-1), sub, atol=1e-9)


def test_answer_cross_component_product():
    dom = domain([2, 2])
    m = meas(dom, [0], [60.0, 40.0])
    model = fit([m], dom, total=100.0, iterations=500)
    # unmeasured attribute contributes a uniform factor
    np.testing.assert_allclose(
        model.marginal_counts(MarginalQuery.make(dom, [0, 1])), [30, 30, 20, 20], atol=1e-2
    )


def test_answers_conserve_total():
    dom = domain([3, 2, 2, 3])
    rng = fork(6, "cons2")
    measurements = [
        meas(dom, [0, 1], rng.uniform(0, 20, 6)),
        meas(dom, [2], rng.uniform(0, 20, 2)),
    ]
    model = fit(measurements, dom, iterations=200)
    for attrs in [(0,), (0, 3), (1, 2), (0, 1, 2, 3)]:
        answer = model.marginal_counts(MarginalQuery.make(dom, attrs))
        assert answer.sum() == pytest.approx(model.total, rel=1e-6)


def test_interleaved_component_axis_order():
    # components {0,2} and {1}: answer on (0,1,2) must follow ascending attrs
    dom = domain([2, 2, 2])
    rng = fork(7, "interleave")
    m = meas(dom, [0, 2], np.array([40.0, 10.0, 20.0, 30.0]))
    model = fit([m], dom, total=100.0, iterations=800, tolerance=1e-14)
    got = model.marginal_counts(MarginalQuery.make(dom, [0, 1, 2])).reshape(2, 2, 2)
    pair = model.marginal_counts(MarginalQuery.make(dom, [0, 2])).reshape(2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert got[i, j, k] == pytest.approx(pair[i, k] * 0.5, rel=1e-6)


# --- sampling ------------------------------------------------------------------------


def test_sample_zero_rows():
    dom = domain([2, 2])
    model = ModelState.uniform(dom, total=10)
    assert model.sample(0, fork(0)).n_records == 0


def test_sample_point_mass():
    dom = domain([3])
    m = meas(dom, [0], [0.0, 100.0, 0.0])
    model = fit([m], dom, iterations=2000, tolerance=1e-16)
    rows = model.sample(50, fork(1)).rows
    assert np.all(rows == 1)


def test_sample_matches_model_marginal():
    dom = domain([3, 4])
    rng = fork(8, "sample")
    m = meas(dom, [0, 1], rng.uniform(1, 10, 12))
    model = fit([m], dom, iterations=500)
    sample = model.sample(100_000, fork(2))
    q = MarginalQuery.make(dom, [0, 1])
    empirical = evaluate_marginal(sample, q) / 100_000
    expected = model.marginal_counts(q) / model.total
    assert 0.5 * np.abs(empirical - expected).sum() < 0.01


def test_sample_deterministic_in_seed():
    dom = domain([3, 2])
    model = ModelState.uniform(dom, total=5)
    a = model.sample(20, fork(3, "x")).rows
    b = model.sample(20, fork(3, "x")).rows
    np.testing.assert_array_equal(a, b)


# --- model size ----------------------------------------------------------------------


def test_model_size_empty_plus_query():
    dom = domain([4, 4, 4])
    model = ModelState.uniform(dom, total=1.0)
    q = MarginalQuery.make(dom, [0, 1, 2])
    assert model.size_bytes(q) == 64 * 8


def test_model_size_inside_existing_component():
    dom = domain([2, 2, 2])
    m = meas(dom, [0, 1], np.ones(4))
    model = fit([m], dom)
    base = model.size_bytes()
    assert model.size_bytes(MarginalQuery.make(dom, [0])) == base
    assert model.size_bytes(MarginalQuery.make(dom, [0, 1])) == base


def test_model_size_merge_arithmetic():
    dom = domain([2, 2, 3, 2])
    m1 = meas(dom, [0, 1], np.ones(4))
    m2 = meas(dom, [2], np.ones(3))
    model = fit([m1, m2], dom)
    base = model.size_bytes()
    assert base == (4 + 3) * 8
    merged = model.size_bytes(MarginalQuery.make(dom, [1, 2]))
    # components (0,1) and (2,) merge into (0,1,2): 12 cells
    assert merged == base - (4 + 3) * 8 + 12 * 8
    assert merged >= base


@pytest.mark.parametrize(
    "extra,expected",
    [
        ((1, 2), [(0, 1, 2), (5, 6)]),  # touches two components
        ((3, 4), [(0, 1), (2,), (3, 4), (5, 6)]),  # disjoint from all
        ((5,), [(0, 1), (2,), (5, 6)]),  # inside one
        (None, [(0, 1), (2,), (5, 6)]),
    ],
)
def test_merged_components_helper(extra, expected):
    assert merged_components([(5, 6), (0, 1), (2,)], extra) == expected


def _co_measurement_components(sets):
    """Connected components of the graph joining attributes measured together (BFS)."""
    neighbours = {}
    for s in sets:
        for a in s:
            neighbours.setdefault(a, set()).update(s)
    seen, comps = set(), []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for a in queue:  # the list grows while it is read: breadth-first
            for b in neighbours[a] - seen:
                seen.add(b)
                queue.append(b)
        comps.append(tuple(sorted(queue)))
    return sorted(comps)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=3), max_size=8))
def test_merge_rule_gives_co_measurement_components(sets):
    attr_sets = [tuple(sorted(s)) for s in sets]
    expected = _co_measurement_components(attr_sets)
    comps = []
    for attrs in attr_sets:
        comps = merged_components(comps, attrs)
    assert comps == expected
    dom = domain([2] * 7)
    measurements = [meas(dom, attrs, np.ones(2 ** len(attrs))) for attrs in attr_sets]
    assert list(fit(measurements, dom, iterations=1).measured_components) == expected


# --- nll -----------------------------------------------------------------------------


def test_nll_uniform_model():
    dom = domain([2] * 10)
    model = ModelState.uniform(dom, total=1.0)
    holdout = DiscreteDataset(dom, np.zeros((5, 10), dtype=int))
    assert model.nll(holdout) == pytest.approx(10 * np.log(2), rel=1e-9)


def test_nll_point_mass_near_zero():
    dom = domain([4])
    m = meas(dom, [0], [0.0, 0.0, 200.0, 0.0])
    model = fit([m], dom, iterations=3000, tolerance=1e-16)
    holdout = DiscreteDataset(dom, np.full((10, 1), 2))
    assert model.nll(holdout) == pytest.approx(0.0, abs=1e-3)


def test_model_save_load_roundtrip(tmp_path):
    dom = domain([3, 2, 2])
    rng = fork(11, "save")
    measurements = [
        meas(dom, [0, 1], rng.uniform(1, 20, 6)),
        meas(dom, [2], rng.uniform(1, 20, 2)),
    ]
    model = fit(measurements, dom, iterations=200)
    # a model is fully determined by (domain, total, measured components, tables)
    path = tmp_path / "model.npz"
    np.savez(path, **{f"table_{i}": model.tables[c] for i, c in enumerate(model.components)})
    with np.load(path, allow_pickle=False) as archive:
        tables = {c: archive[f"table_{i}"] for i, c in enumerate(model.components)}
    back = ModelState(dom, model.total, model.measured_components, tables)
    assert back.components == model.components
    assert back.total == pytest.approx(model.total)
    assert back.measured_components == model.measured_components
    q = MarginalQuery.make(dom, [0, 1, 2])
    np.testing.assert_allclose(back.marginal_counts(q), model.marginal_counts(q))


def test_nll_floor_guards_unseen_cells():
    dom = domain([2])
    m = meas(dom, [0], [100.0, 0.0])
    model = fit([m], dom, iterations=2000, tolerance=1e-16)
    holdout = DiscreteDataset(dom, np.array([[1]]))
    assert model.nll(holdout) <= -np.log(1e-9) + 1e-6


# --- fit plan and warm starts --------------------------------------------------------


def _nested_measurements(rng, dom, comp):
    """Random measured sets inside ``comp``: a few tops, subsets of each, a
    repeated query, and singletons for attributes no set covers."""
    sets = set()
    for _ in range(rng.integers(1, 4)):
        top = tuple(sorted(rng.choice(comp, size=rng.integers(1, len(comp) + 1), replace=False)))
        sets.add(top)
        for _ in range(rng.integers(0, 4)):
            sets.add(tuple(sorted(rng.choice(top, size=rng.integers(1, len(top) + 1), replace=False))))
    covered = {a for s in sets for a in s}
    sets.update((a,) for a in comp if a not in covered)
    chosen = sorted(sets)
    chosen.append(chosen[0])  # merged with its first copy
    return [
        meas(dom, attrs, rng.normal(10, 3, dom.size(attrs)), weight=float(rng.uniform(0.1, 2)))
        for attrs in chosen
    ]


def _rooted_measurements(rng, dom, comp, n_roots):
    """``n_roots`` measured sets of arity 2 to k-2, none inside another, with
    a subset of each, a repeated query, and singletons for attributes no set
    covers: a component whose plan needs intermediates."""
    roots = []
    while len(roots) < n_roots:
        s = {int(a) for a in rng.choice(comp, size=rng.integers(2, len(comp) - 1), replace=False)}
        if not any(s <= r or r <= s for r in roots):
            roots.append(s)
    sets = {tuple(sorted(r)) for r in roots}
    for r in roots:
        sets.add(tuple(sorted(rng.choice(sorted(r), size=rng.integers(1, len(r)), replace=False))))
    covered = {a for s in sets for a in s}
    sets.update((a,) for a in comp if a not in covered)
    chosen = sorted(sets)
    chosen.append(chosen[-1])  # merged with its first copy
    return [
        meas(dom, attrs, rng.normal(10, 3, dom.size(attrs)), weight=float(rng.uniform(0.1, 2)))
        for attrs in chosen
    ]


def _roots(measurements):
    sets = {m.query.attrs for m in measurements}
    return [s for s in sets if not any(set(s) < set(t) for t in sets)]


def _check_plan_against_direct_reduction(plan, comp, shape, rng):
    """Every node's marginal and the gradient match direct full-table sums."""
    p = rng.uniform(0, 1, size=shape)
    flat = np.empty(plan.size)
    views = plan.views(flat)
    plan.marginals(plan.clique_views(p.reshape(-1)), views)
    drops = [tuple(i for i in range(len(comp)) if i not in keep) for _, keep in plan.reductions]
    for marginal, drop in zip(views, drops):
        np.testing.assert_allclose(marginal, p.sum(axis=drop), rtol=1e-12, atol=0)

    residual = np.empty(plan.size)
    residual[:] = np.nan  # intermediates' cells must be overwritten
    residual[plan.measured_cells] = rng.normal(0, 1, size=plan.y.size)
    residuals = plan.views(residual)
    want = np.zeros(shape)
    for i, drop in enumerate(drops):
        if i not in plan.intermediates:
            want = want + np.expand_dims(residuals[i], drop)
    got = np.empty(shape)
    plan.gradient(residuals, plan.clique_views(got.reshape(-1)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("seed", range(12))
def test_fit_plan_matches_direct_reduction(seed):
    from fedsynth.model import _FitPlan

    rng = fork(seed, "plan")
    n_attrs = int(rng.integers(2, 7))
    dom = domain(list(rng.integers(2, 6, size=n_attrs + 2)))
    comp = tuple(sorted(int(a) for a in rng.choice(n_attrs + 2, size=n_attrs, replace=False)))
    shape = dom.shape(comp)
    plan = _FitPlan(comp, shape, _nested_measurements(rng, dom, comp))
    _check_plan_against_direct_reduction(plan, comp, shape, rng)


@pytest.mark.parametrize("seed", range(6))
def test_fit_plan_with_intermediates_matches_direct_reduction(seed):
    from fedsynth.model import _FitPlan

    rng = fork(seed, "intermediates")
    k = 5 + seed % 2
    dom = domain(list(rng.integers(2, 5, size=k + 1)))
    comp = tuple(sorted(int(a) for a in rng.choice(k + 1, size=k, replace=False)))
    shape = dom.shape(comp)
    measurements = _rooted_measurements(rng, dom, comp, 3 + seed % 3)
    assert sum(len(r) <= k - 2 for r in _roots(measurements)) >= 3
    plan = _FitPlan(comp, shape, measurements)
    assert plan.intermediates, "roots of arity k-2 or less must share intermediates"
    assert all(len(plan.reductions[i][1]) == k - 1 and plan.parents[i] is None for i in plan.intermediates)
    _check_plan_against_direct_reduction(plan, comp, shape, rng)


def test_fit_plan_reduces_a_benchmark_component_from_three_nodes():
    # a 32,768-cell component of the fed-trend workload, whose six roots each
    # reduced from the full table before intermediates
    from fedsynth.model import _FitPlan

    dom = domain([8] * 10)
    comp = (0, 1, 6, 7, 9)
    rng = fork(0, "benchmark-component")
    roots = [(0, 1, 7), (1, 6, 9), (0, 6), (0, 9), (6, 7), (7, 9)]
    measurements = [meas(dom, r, rng.normal(50, 5, dom.size(r))) for r in roots]
    measurements += [meas(dom, (a,), rng.normal(400, 5, 8)) for a in comp]
    assert sorted(_roots(measurements)) == sorted(roots)
    plan = _FitPlan(comp, dom.shape(comp), measurements)
    assert len(plan.tops) <= 3
    _check_plan_against_direct_reduction(plan, comp, dom.shape(comp), rng)
    # every pair of its attributes is measured together, so its junction tree
    # is the full table itself
    assert plan.cliques == [tuple(range(5))]


def reference_fit(comp, shape, measurements, total, iterations, tolerance, init):
    """The fitter with every marginal summed from the full table and the
    objective summed per (merged) measurement."""
    merged = sorted(model_module._merge_same_query(measurements),
                    key=lambda m: (-len(m.query.attrs), -m.query.cardinality, m.query.attrs))
    drops = [tuple(i for i, a in enumerate(comp) if a not in m.query.attrs) for m in merged]

    def softmax(theta):
        theta = theta - theta.max()
        p = np.exp(theta)
        return theta, p * (total / p.sum())

    def evaluate(p):
        diffs = [p.sum(axis=drop).reshape(-1) - m.noisy_counts for drop, m in zip(drops, merged)]
        return sum(m.weight * float(np.vdot(d, d)) for m, d in zip(merged, diffs)), diffs

    theta, p = softmax(np.zeros(shape) if init is None else init)
    obj, diffs = evaluate(p)
    trace, step = [obj], 2.0 / sum(m.weight for m in merged)
    for _ in range(iterations):
        grad = np.zeros(shape)
        for m, d, drop in zip(merged, diffs, drops):
            grad = grad + np.expand_dims((2.0 * m.weight * d).reshape(p.sum(axis=drop).shape), drop)
        for tries in range(80):
            theta_new, p_new = softmax(theta - step * grad)
            obj_new, diffs_new = evaluate(p_new)
            if obj_new <= obj and obj - obj_new >= 0.5 * float(np.vdot(grad, p - p_new)):
                break
            step *= 0.5
        else:
            break
        if tries == 0:
            step *= 2.0
        decrease = obj - obj_new
        theta, p, obj, diffs = theta_new, p_new, obj_new, diffs_new
        trace.append(obj)
        if decrease <= tolerance * max(trace[-2], 1e-300):
            break
    return p, trace


@pytest.mark.parametrize("seed", range(12))
def test_fit_component_matches_direct_reduction_reference(seed):
    from fedsynth.model import _fit_component

    rng = fork(seed, "reference-fit")
    k = 4 + seed % 3
    dom = domain(list(rng.integers(2, 5, size=k)))
    comp = tuple(range(k))
    shape = dom.shape(comp)
    if seed % 2:
        measurements = _rooted_measurements(rng, dom, comp, 3)
    else:
        measurements = _nested_measurements(rng, dom, comp)
    # noisy measurements of one table, so the fit has a sensible optimum
    data = DiscreteDataset(dom, rng.integers(0, dom.cardinalities, size=(500, k)))
    measurements = [
        meas(dom, m.query.attrs, evaluate_marginal(data, m.query) + rng.normal(0, 4, m.query.cardinality),
             weight=m.weight)
        for m in measurements
    ]
    total = estimate_total(measurements)
    previous = init = None
    if seed % 4 < 2:  # warm-started from a random full table
        table = np.exp(rng.normal(0, 1, size=shape))
        previous = ModelState(dom, total, [comp], {comp: table * (total / table.sum())})
        init = np.log(previous.tables[comp])
    tolerance = 1e-4 if seed < 6 else 1e-5
    want_p, want_trace = reference_fit(comp, shape, measurements, total, 300, tolerance, init)
    got, got_trace = _fit_component(comp, shape, measurements, total, 300, tolerance, previous)
    got_p = got.table()
    assert len(got_trace) == len(want_trace)
    np.testing.assert_allclose(got_trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got_p, want_p, rtol=1e-10, atol=0)


def test_warm_start_from_tables_matches_stored_logits():
    dom = domain([3, 2, 4, 2])
    rng = fork(12, "warm")
    total = 250.0
    theta_a = rng.normal(0, 1, size=(3, 2))
    theta_b = rng.normal(0, 1, size=(4, 2))

    def table(theta):
        p = np.exp(theta)
        return p * (total / p.sum())

    previous = ModelState(dom, total, [(0, 1), (2, 3)], {(0, 1): table(theta_a), (2, 3): table(theta_b)})
    measurements = [
        meas(dom, [0, 1], rng.uniform(5, 30, 6)),
        meas(dom, [2, 3], rng.uniform(5, 30, 8)),
        meas(dom, [1, 2], rng.uniform(5, 30, 8)),
    ]
    # 20 iterations stay clear of the flat optimum, where rounding alone
    # decides when the line search gives up
    model = fit(measurements, dom, iterations=20, tolerance=0.0, total=total, warm_start=previous)
    init = theta_a[:, :, None, None] + theta_b[None, None, :, :]
    want_p, want_trace = reference_fit((0, 1, 2, 3), (3, 2, 4, 2), measurements, total, 20, 0.0, init)
    assert len(model.meta["objective_traces"][(0, 1, 2, 3)]) == len(want_trace)
    np.testing.assert_allclose(model.tables[(0, 1, 2, 3)], want_p, rtol=1e-10, atol=0)


def test_logits_derived_from_tables():
    dom = domain([3, 2, 2])
    rng = fork(13, "logits")
    model = fit([meas(dom, [0, 1], rng.uniform(1, 20, 6))], dom, iterations=100)
    assert list(model.logits) == [(0, 1)]
    assert (2,) not in model.logits
    logits = model.logits[(0, 1)]
    p = np.exp(logits - logits.max())
    np.testing.assert_allclose(p / p.sum(), model.tables[(0, 1)] / model.total, rtol=1e-12)


def test_warm_start_reuse_needs_exact_inputs(monkeypatch):
    import fedsynth.model as model_module

    dom = domain([3, 3])
    first = meas(dom, [0, 1], np.arange(9.0) + 1.0)
    second = meas(dom, [0, 1], np.arange(9.0)[::-1] + 1.0)
    previous = fit([first], dom, iterations=200)
    want = fit([second], dom, iterations=200, warm_start=previous)
    # every Python hash collides: reuse must still compare the inputs exactly
    monkeypatch.setattr(model_module, "hash", lambda value: 0, raising=False)
    collided = fit([first], dom, iterations=200)
    got = fit([second], dom, iterations=200, warm_start=collided)
    np.testing.assert_array_equal(got.tables[(0, 1)], want.tables[(0, 1)])


# --- junction trees ------------------------------------------------------------------


def _random_sets(rng, k):
    """Seeded measured sets over ``k`` axes: a cycle through every axis (so
    triangulation must add fill), a few random pairs and triples, and
    singletons."""
    order = [int(a) for a in rng.permutation(k)]
    sets = {tuple(sorted((order[i], order[(i + 1) % k]))) for i in range(k)}
    for _ in range(int(rng.integers(0, 3))):
        sets.add(tuple(sorted(int(a) for a in rng.choice(k, size=int(rng.integers(2, 4)), replace=False))))
    sets.update((a,) for a in range(k))
    return sorted(sets)


def _check_junction_tree(sets, cliques, parents):
    assert parents[0] is None and all(p is not None and p < c for c, p in enumerate(parents) if c)
    # every measured set inside a clique, every clique maximal
    assert all(any(set(s) <= set(c) for c in cliques) for s in sets)
    assert not any(set(a) <= set(b) for i, a in enumerate(cliques) for j, b in enumerate(cliques) if i != j)
    # running intersection: the cliques holding an axis form one subtree,
    # so exactly one of them has a parent that does not hold it
    for a in {a for s in sets for a in s}:
        holding = [c for c, clique in enumerate(cliques) if a in clique]
        tops = [c for c in holding if parents[c] is None or a not in cliques[parents[c]]]
        assert len(tops) == 1, (a, cliques, parents)


@pytest.mark.parametrize("seed", range(10))
def test_junction_tree_covers_sets_with_running_intersection(seed):
    from fedsynth.model import _junction_tree

    rng = fork(seed, "junction-tree")
    k = int(rng.integers(4, 9))
    shape = tuple(int(n) for n in rng.integers(2, 6, size=k))
    sets = _random_sets(rng, k)
    cliques, parents = _junction_tree(sets, shape)
    _check_junction_tree(sets, cliques, parents)
    # a cycle of four or more axes has no clique of two: fill was added
    assert max(len(c) for c in cliques) >= 3
    # deterministic, and independent of the order the sets come in
    assert _junction_tree(list(reversed(sets)), shape) == (cliques, parents)
    assert _junction_tree([sets[i] for i in rng.permutation(len(sets))], shape) == (cliques, parents)


def test_junction_tree_of_a_cycle_is_pinned():
    from fedsynth.model import _junction_tree

    # every axis needs one fill edge; axis 1 (24 cells with its neighbours)
    # goes first and adds 0-2, then axis 2 (40 cells) adds 0-3
    five_cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    assert _junction_tree(five_cycle, (2, 3, 4, 5, 6)) == (
        [(0, 3, 4), (0, 2, 3), (0, 1, 2)], [None, 0, 1]
    )


CHAIN = [(0, 1), (1, 2), (2, 3), (0,), (3,)]
STAR = [(0, 1), (0, 2), (0, 3), (1,), (2,), (3,)]
CYCLE = [(0, 1), (1, 2), (2, 3), (0, 3), (0,), (2,)]
FIVE_CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]


def _tree_case(seed, sets, cards):
    rng = fork(seed, "tree-fit")
    dom = domain(cards)
    data = DiscreteDataset(dom, rng.integers(0, dom.cardinalities, size=(2000, len(cards))))
    measurements = []
    for attrs in sets:
        q = MarginalQuery.make(dom, attrs)
        noisy = evaluate_marginal(data, q) + rng.normal(0, 3, q.cardinality)
        measurements.append(Measurement(0, q, noisy, 3.0, float(rng.uniform(0.2, 1.5))))
    return dom, measurements


@pytest.mark.parametrize("sets, cards, n_cliques", [
    (CHAIN, [12] * 4, 3), (STAR, [12] * 4, 3), (CYCLE, [12] * 4, 2), (FIVE_CYCLE, [8] * 5, 3),
])
@pytest.mark.parametrize("seed", range(2))
def test_tree_fit_matches_reference_cold(sets, cards, n_cliques, seed):
    from fedsynth.model import _fit_component

    dom, measurements = _tree_case(seed, sets, cards)
    comp, shape = tuple(range(len(cards))), dom.shape(range(len(cards)))
    total = estimate_total(measurements)
    tolerance = 1e-5 if seed else 1e-7
    want_p, want_trace = reference_fit(comp, shape, measurements, total, 300, tolerance, None)
    got, got_trace = _fit_component(comp, shape, measurements, total, 300, tolerance, None)
    assert len(got.cliques) == n_cliques
    assert len(got_trace) == len(want_trace)
    np.testing.assert_allclose(got_trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got.table(), want_p, rtol=1e-10, atol=0)


@pytest.mark.parametrize("sets, cards, parts", [
    (CHAIN, [12] * 4, [[(0, 1), (0,)], [(2, 3), (3,)]]),
    (STAR, [12] * 4, [[(0, 1), (1,)], [(2,)], [(0, 3), (3,)]]),
    (CYCLE, [12] * 4, [[(0, 1), (1, 2), (0,), (2,)], [(3,)]]),
    (FIVE_CYCLE, [8] * 5, [[(0, 1), (1, 2), (0, 2)], [(3, 4)]]),
    # the earlier part is itself a three-clique tree, read across its cliques
    (CHAIN + [(3, 4), (4,)], [12] * 5, [CHAIN]),
])
def test_tree_fit_matches_reference_warm_started_from_fitted_parts(sets, cards, parts):
    """Warm starts are products of earlier fitted components, whose measured
    sets are among the new fit's, so the projection onto the tree is the
    earlier model itself and the fit stays on the tree."""
    from fedsynth.model import _fit_component

    dom, measurements = _tree_case(7, sets + [a for part in parts for a in part], cards)
    by_attrs = {m.query.attrs: m for m in measurements}
    total = estimate_total(measurements)
    previous = fit([by_attrs[a] for part in parts for a in part], dom, iterations=40, total=total)
    comp, shape = tuple(range(len(cards))), dom.shape(range(len(cards)))
    init = np.zeros(shape)
    for old in previous.measured_components:
        init = init + np.log(previous.tables[old]).reshape(tuple(n if a in old else 1 for a, n in zip(comp, shape)))
    want_p, want_trace = reference_fit(comp, shape, measurements, total, 100, 1e-6, init)
    got, got_trace = _fit_component(comp, shape, measurements, total, 100, 1e-6, previous)
    assert len(got.cliques) > 1
    assert got_trace[0] == pytest.approx(model_objective(model_module._merge_same_query(measurements), previous),
                                         rel=1e-12, abs=0)
    assert len(got_trace) == len(want_trace)
    np.testing.assert_allclose(got_trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got.table(), want_p, rtol=1e-10, atol=0)


def test_warm_start_is_the_previous_models_projection_onto_the_tree():
    """A previous model measured on a set the new fit does not measure is
    not Markov on the new tree: the fit stays on the tree and starts from
    the projection prod mu_C / prod mu_S of the previous model's clique and
    separator marginals."""
    from fedsynth.model import _fit_component

    dom, measurements = _tree_case(3, CHAIN + [(0, 2)], [12] * 4)
    chain, (pair,) = measurements[:-1], measurements[-1:]
    comp, shape = (0, 1, 2, 3), dom.shape((0, 1, 2, 3))
    total = estimate_total(chain)
    previous = fit([pair], dom, iterations=40, total=total)
    full = previous.marginal_counts(MarginalQuery.make(dom, comp)).reshape(shape)

    def marginal(axes):
        return np.einsum(full, list(comp), list(axes)).reshape(tuple(n if a in axes else 1 for a, n in enumerate(shape)))

    projection = marginal((0, 1)) * marginal((1, 2)) * marginal((2, 3)) / (marginal((1,)) * marginal((2,)))
    projection *= total / projection.sum()
    assert not np.allclose(projection, full, rtol=1e-3, atol=0)
    want_p, want_trace = reference_fit(comp, shape, chain, total, 50, 1e-6, np.log(projection))
    got, got_trace = _fit_component(comp, shape, chain, total, 50, 1e-6, previous)
    assert got.cliques == [(0, 1), (1, 2), (2, 3)]
    assert got_trace[0] == pytest.approx(objective_value(chain, dom, projection.reshape(-1)), rel=1e-12, abs=0)
    assert len(got_trace) == len(want_trace)
    np.testing.assert_allclose(got_trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got.table(), want_p, rtol=1e-10, atol=0)


def test_tree_component_answers_like_its_full_table():
    dom, measurements = _tree_case(5, CHAIN, [12] * 4 + [3])
    model = fit(measurements, dom, iterations=60)
    assert [len(model.trees[c].cliques) for c in model.components] == [3, 1]
    full = ModelState(dom, model.total, model.measured_components, dict(model.tables))
    assert [len(full.trees[c].cliques) for c in full.components] == [1, 1]
    # inside one clique, across two and across all, and with the other component
    for attrs in [(1, 2), (0,), (0, 2), (0, 3), (1, 3, 4), (0, 1, 2, 3)]:
        q = MarginalQuery.make(dom, attrs)
        np.testing.assert_allclose(model.marginal_counts(q), full.marginal_counts(q), rtol=1e-12, atol=0)
    holdout = DiscreteDataset(dom, fork(5, "holdout").integers(0, dom.cardinalities, size=(300, 5)))
    assert model.nll(holdout) == full.nll(holdout)
    np.testing.assert_array_equal(model.sample(500, fork(5, "s")).rows, full.sample(500, fork(5, "s")).rows)
    # signature reuse rescales the tree
    again = fit(measurements, dom, iterations=60, total=2 * model.total, warm_start=model)
    q = MarginalQuery.make(dom, (0, 3))
    np.testing.assert_allclose(again.marginal_counts(q), 2 * model.marginal_counts(q), rtol=1e-12)
    assert len(again.trees[(0, 1, 2, 3)].cliques) == 3


def _full_shapes(plan, shape):
    """Each clique's shape inside the full table (ones on the other axes)."""
    return [tuple(n if a in clique else 1 for a, n in enumerate(shape)) for clique in plan.cliques]


def test_fit_plan_splits_a_benchmark_component_into_two_cliques():
    # a 32,768-cell fed-trend component whose measured sets triangulate into
    # two 4,096-cell cliques
    from fedsynth.model import _FitPlan

    dom = domain([8] * 8)
    comp = (0, 1, 3, 5, 7)
    rng = fork(1, "benchmark-tree")
    sets = [(0, 3, 5), (1, 3, 5), (0, 1), (0, 5), (0, 7), (1, 3), (1, 5), (3, 5), (3, 7), (5, 7)]
    measurements = [meas(dom, s, rng.normal(50, 5, dom.size(s))) for s in sets]
    measurements += [meas(dom, (a,), rng.normal(400, 5, 8)) for a in comp]
    shape = dom.shape(comp)
    plan = _FitPlan(comp, shape, measurements)
    assert [tuple(comp[a] for a in c) for c in plan.cliques] == [(0, 1, 3, 5), (0, 3, 5, 7)]
    assert [int(np.prod(s)) for s in plan.clique_shapes] == [4096, 4096]
    # node marginals from the clique marginals of a full table, and the
    # gradient broadcast back over the cliques, match direct full-table sums
    p = rng.uniform(0, 1, size=shape)
    full = list(range(len(comp)))
    beliefs = np.empty(plan.clique_size)
    for view, clique in zip(plan.clique_views(beliefs), plan.cliques):
        view[...] = np.einsum(p, full, list(clique))
    flat = np.empty(plan.size)
    views = plan.views(flat)
    plan.marginals(plan.clique_views(beliefs), views)
    for view, (_, keep) in zip(views, plan.reductions):
        drop = tuple(i for i in full if i not in keep)
        np.testing.assert_allclose(view, p.sum(axis=drop), rtol=1e-12, atol=0)
    residual = np.empty(plan.size)
    residual[plan.measured_cells] = rng.normal(0, 1, size=plan.y.size)
    residuals = plan.views(residual)
    want = np.zeros(shape)
    for i, (_, keep) in enumerate(plan.reductions):
        if i not in plan.intermediates:
            want = want + np.expand_dims(residuals[i], tuple(a for a in full if a not in keep))
    grads = np.empty(plan.clique_size)
    plan.gradient(residuals, plan.clique_views(grads))
    got = sum(g.reshape(s) for g, s in zip(plan.clique_views(grads), _full_shapes(plan, shape)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_calibration_keeps_a_separator_slice_far_below_its_clique_maximum():
    # one value of the leaf's separator sits 1,000 nats below the rest of
    # the leaf, and its neighbour clique lifts it back, so the full table
    # holds real mass there; one shift per clique would underflow that slice
    from fedsynth.model import _FitPlan

    dom, measurements = _tree_case(4, CHAIN, [12] * 4)
    comp, shape = (0, 1, 2, 3), dom.shape((0, 1, 2, 3))
    plan = _FitPlan(comp, shape, measurements)
    assert plan.cliques == [(0, 1), (1, 2), (2, 3)] and plan.clique_parents == [None, 0, 1]
    rng = fork(4, "far-slice")
    theta = rng.normal(0, 1, size=plan.clique_size)
    thetas = plan.clique_views(theta)
    thetas[2][0, :] -= 1000.0
    thetas[1][:, 0] += 1000.0
    full = sum(t.reshape(s) for t, s in zip(thetas, _full_shapes(plan, shape)))
    want = np.exp(full - full.max())
    want *= 500.0 / want.sum()
    beliefs = plan.clique_views(np.empty(plan.clique_size))
    plan.calibrate(thetas, 500.0, beliefs)
    for belief, clique in zip(beliefs, plan.cliques):
        np.testing.assert_allclose(belief, np.einsum(want, list(comp), list(clique)), rtol=1e-12, atol=0)
    assert beliefs[2][0].sum() > 1.0
