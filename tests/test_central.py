import math

import numpy as np
import pytest

from fedsynth.central import FIT_TOLERANCE, AimConfig, ROOT_2_OVER_PI, _aim_utilities, filter_by_size, run_aim
from fedsynth.domain import Domain, MarginalQuery, evaluate_marginal, normalized_counts
from fedsynth.model import ModelState
from fedsynth.partition import synthfs
from fedsynth.privacy import exponential_cost, gaussian_cost
from fedsynth.workload import Workload, complete_workload, random_workload, workload_error


@pytest.fixture(scope="module")
def small_problem():
    result = synthfs(n_clients=8, rows_per_client=100, seed=1, n_features=4, beta=1.5, bins=5)
    workload = random_workload(result.data.domain, 2, 5, seed=2)
    return result.data, workload


def test_near_noiseless_convergence(small_problem):
    data, workload = small_problem
    cfg = AimConfig(epsilon=1e6, rounds=12, seed=3, max_model_size=1 << 16)
    res = run_aim(data, workload, cfg)
    assert workload_error(data, res.model, workload) < 0.01


def test_budget_consumed_exactly_fixed_rounds(small_problem):
    data, workload = small_problem
    cfg = AimConfig(epsilon=2.0, rounds=7, seed=4, max_model_size=1 << 16)
    res = run_aim(data, workload, cfg)
    acct = res.accountant
    assert acct.rho_used == pytest.approx(acct.rho_total, rel=1e-9)
    assert acct.rho_used <= acct.rho_total
    # replayed ledger equals the analytic round decomposition
    d = len(data.domain)
    sigma = math.sqrt((7 + d) / (2 * 0.9 * acct.rho_total))
    eps = math.sqrt(8 * 0.1 * acct.rho_total / 7)
    analytic = d * gaussian_cost(sigma) + 7 * (gaussian_cost(sigma) + exponential_cost(eps))
    assert sum(r["rho"] for r in acct.ledger()) == pytest.approx(analytic, rel=1e-9)


def test_ledger_replay_matches_round_log_annealing(small_problem):
    data, workload = small_problem
    cfg = AimConfig(epsilon=1.0, rounds=None, seed=5, max_model_size=1 << 16)
    res = run_aim(data, workload, cfg)
    acct = res.accountant
    assert acct.rho_used <= acct.rho_total
    assert acct.rho_used == pytest.approx(acct.rho_total, rel=1e-9)
    d = len(data.domain)
    analytic = 0.0
    for entry in res.rounds:
        if entry.get("phase") == "init":
            analytic += d * gaussian_cost(entry["sigma"])
        else:
            analytic += gaussian_cost(entry["sigma"]) + exponential_cost(entry["eps"])
    assert sum(r["rho"] for r in acct.ledger()) == pytest.approx(analytic, rel=1e-9)


def test_noiseless_hook_selects_exhaustive_argmax(small_problem):
    """Replays the noise-free loop by hand and checks every selection is the
    exhaustive utility argmax."""
    from fedsynth.model import Measurement, fit
    from fedsynth.domain import MarginalQuery

    data, workload = small_problem
    T = 4
    cfg = AimConfig(epsilon=3.0, rounds=T, seed=6, max_model_size=1 << 16, noiseless=True)
    res = run_aim(data, workload, cfg)
    logged = [tuple(e["query"]) for e in res.rounds if "query" in e]

    dom = data.domain
    completed = res.completed_workload
    exact = {q.attrs: evaluate_marginal(data, q).counts for q in completed.queries}
    d = len(dom)
    rho = res.accountant.rho_total
    sigma = math.sqrt((T + d) / (2 * 0.9 * rho))
    measurements = [
        Measurement(0, MarginalQuery.make(dom, (a,)), evaluate_marginal(data, MarginalQuery.make(dom, (a,))).counts, sigma, 1 / sigma)
        for a in range(d)
    ]
    model = fit(measurements, dom, iterations=cfg.fit_iters, tolerance=FIT_TOLERANCE)
    rho_used = d * gaussian_cost(sigma)
    eps = math.sqrt(8 * 0.1 * rho / T)
    expected = []
    for t in range(1, T + 1):
        candidates = filter_by_size(completed, model, rho_used, rho, cfg.max_model_size)
        scores = [
            completed.weights[i]
            * (
                np.abs(exact[completed.queries[i].attrs] - model.marginal_counts(completed.queries[i])).sum()
                - ROOT_2_OVER_PI * sigma * completed.queries[i].cardinality
            )
            for i in candidates
        ]
        best = candidates[int(np.argmax(scores))]
        chosen = completed.queries[best]
        expected.append(chosen.attrs)
        rho_used += gaussian_cost(sigma) + exponential_cost(eps)
        measurements.append(Measurement(t, chosen, exact[chosen.attrs], sigma, 1 / sigma))
        model = fit(
            measurements, dom, iterations=cfg.fit_iters, tolerance=FIT_TOLERANCE,
            warm_start=model,
        )
    assert logged == expected


def test_aim_utilities_hand_values():
    dom = Domain.make(["a", "b"], [2, 3])
    workload = Workload((MarginalQuery.make(dom, (0,)), MarginalQuery.make(dom, (0, 1))), (2.0, 0.5))
    answers = {(0,): np.array([6.0, 2.0]), (0, 1): np.array([1.0, 0.0, 2.0, 0.0, 3.0, 2.0])}
    raw = {0: np.array([4.0, 4.0]), 1: np.array([2.0, 2.0, 0.0, 0.0, 2.0, 2.0])}
    per_record = {i: normalized_counts(a) for i, a in raw.items()}
    sigma = 0.5 / ROOT_2_OVER_PI  # noise terms 1 and 3 for the 2- and 6-cell queries
    skew = {0: 0.5, 1: 2.0}

    def scores(model_answers, **kwargs):
        return _aim_utilities(answers.__getitem__, model_answers, workload, [1, 0], sigma, **kwargs)

    # raw counts: L1 gaps 6 and 4
    np.testing.assert_allclose(scores(raw), [0.5 * (6 - 3), 2.0 * (4 - 1)])
    # the skew penalty is weighted by w_q like the rest of the score
    np.testing.assert_allclose(scores(raw, skew=skew), [0.5 * (6 - 3 - 2), 2.0 * (4 - 1 - 0.5)])
    # per record: gaps 0.75 and 0.5, noise terms divided by the mass
    np.testing.assert_allclose(scores(per_record, mass=4), [0.5 * (0.75 - 3 / 4), 2.0 * (0.5 - 1 / 4)], atol=1e-12)
    np.testing.assert_allclose(
        scores(per_record, mass=4, skew=skew), [0.5 * (0.75 - 3 / 4 - 2), 2.0 * (0.5 - 1 / 4 - 0.5)]
    )
    # no mass at all counts as one record
    np.testing.assert_allclose(scores(per_record, mass=0), [0.5 * (0.75 - 3), 2.0 * (0.5 - 1)])


def test_perfectly_fit_query_has_negative_utility(small_problem):
    data, workload = small_problem
    # a model answering a query exactly scores -w_q sqrt(2/pi) sigma n_q < 0
    q = workload.queries[0]
    w = workload.weights[0]
    sigma = 2.0
    utility = w * (0.0 - ROOT_2_OVER_PI * sigma * q.cardinality)
    assert utility < 0


def test_fail_fast_when_model_cap_below_oneway(small_problem):
    data, workload = small_problem
    cfg = AimConfig(epsilon=1.0, rounds=3, seed=0, max_model_size=8)
    with pytest.raises(ValueError, match="max_model_size"):
        run_aim(data, workload, cfg)


def test_error_nonincreasing_in_epsilon(small_problem):
    data, workload = small_problem
    errs = {}
    for eps in (0.5, 5.0):
        runs = []
        for seed in range(10):
            cfg = AimConfig(epsilon=eps, rounds=6, seed=100 + seed, max_model_size=1 << 16)
            runs.append(workload_error(data, run_aim(data, workload, cfg).model, workload))
        errs[eps] = np.mean(runs)
    assert errs[5.0] <= errs[0.5]


# --- size filter ---------------------------------------------------------------------


def test_filter_admits_all_when_cap_huge(small_problem):
    data, workload = small_problem
    dom = data.domain
    completed = complete_workload(dom, workload)
    model = ModelState.uniform(dom, 1.0)
    admitted = filter_by_size(completed, model, rho_used=0.5, rho_total=1.0, max_model_size=1 << 40)
    assert admitted == list(range(len(completed)))


def test_filter_fallback_single_smallest(small_problem):
    data, workload = small_problem
    dom = data.domain
    completed = complete_workload(dom, workload)
    model = ModelState.uniform(dom, 1.0)
    admitted = filter_by_size(completed, model, rho_used=0.0, rho_total=1.0, max_model_size=1 << 40)
    assert len(admitted) == 1
    sizes = [model.size_bytes(q) for q in completed.queries]
    assert sizes[admitted[0]] == min(sizes)


def test_filter_monotone_in_rho_used(small_problem):
    data, workload = small_problem
    dom = data.domain
    completed = complete_workload(dom, workload)
    model = ModelState.uniform(dom, 1.0)
    small = set(filter_by_size(completed, model, 0.05, 1.0, 4000))
    large = set(filter_by_size(completed, model, 0.6, 1.0, 4000))
    assert small <= large
