import math

import numpy as np
import pytest

from fedsynth.central import FIT_TOLERANCE, AimConfig, ROOT_2_OVER_PI, _aim_utilities, filter_by_size, run_aim
from fedsynth.domain import Domain, MarginalQuery, evaluate_marginal
from fedsynth.federated import FedConfig, run_distaim, run_flaim
from fedsynth.model import ModelState
from fedsynth.partition import ClientPartition, synthfs
from fedsynth.privacy import exponential_cost, gaussian_cost
from fedsynth.rng import fork
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
    exact = {q.attrs: evaluate_marginal(data, q) for q in completed.queries}
    d = len(dom)
    rho = res.accountant.rho_total
    sigma = math.sqrt((T + d) / (2 * 0.9 * rho))
    measurements = [
        Measurement(0, MarginalQuery.make(dom, (a,)), evaluate_marginal(data, MarginalQuery.make(dom, (a,))), sigma, 1 / sigma)
        for a in range(d)
    ]
    model = fit(measurements, dom, iterations=cfg.fit_iters, tolerance=FIT_TOLERANCE)
    rho_used = d * gaussian_cost(sigma)
    eps = math.sqrt(8 * 0.1 * rho / T)
    expected = []
    for t in range(1, T + 1):
        candidates = filter_by_size(completed, model, (rho_used / rho) * cfg.max_model_size)
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


class _FixedModel:
    """Stands in for a ModelState: fixed answers by query attributes."""

    def __init__(self, answers: dict[tuple[int, ...], np.ndarray]):
        self.answers = answers

    def marginal_counts(self, query: MarginalQuery) -> np.ndarray:
        return self.answers[query.attrs]


def test_aim_utilities_hand_values():
    dom = Domain.make(["a", "b"], [2, 3])
    workload = Workload((MarginalQuery.make(dom, (0,)), MarginalQuery.make(dom, (0, 1))), (2.0, 0.5))
    answers = {(0,): np.array([6.0, 2.0]), (0, 1): np.array([1.0, 0.0, 2.0, 0.0, 3.0, 2.0])}
    model = _FixedModel({(0,): np.array([4.0, 4.0]), (0, 1): np.array([2.0, 2.0, 0.0, 0.0, 2.0, 2.0])})
    sigma = 0.5 / ROOT_2_OVER_PI  # noise terms 1 and 3 for the 2- and 6-cell queries
    skew = np.array([2.0, 0.5])  # per candidate, in candidate order: queries 1 and 0

    def scores(**kwargs):
        return _aim_utilities(answers.__getitem__, model, workload, [1, 0], sigma, **kwargs)

    # raw counts: L1 gaps 6 and 4
    np.testing.assert_allclose(scores(), [0.5 * (6 - 3), 2.0 * (4 - 1)])
    # the skew penalty is weighted by w_q like the rest of the score
    np.testing.assert_allclose(scores(skew=skew), [0.5 * (6 - 3 - 2), 2.0 * (4 - 1 - 0.5)])
    # per record (both sides normalized): gaps 0.75 and 0.5, noise terms divided by the mass
    np.testing.assert_allclose(scores(mass=4), [0.5 * (0.75 - 3 / 4), 2.0 * (0.5 - 1 / 4)], atol=1e-12)
    np.testing.assert_allclose(
        scores(mass=4, skew=skew), [0.5 * (0.75 - 3 / 4 - 2), 2.0 * (0.5 - 1 / 4 - 0.5)]
    )
    # no mass at all counts as one record
    np.testing.assert_allclose(scores(mass=0), [0.5 * (0.75 - 3), 2.0 * (0.5 - 1)])


@pytest.mark.parametrize("with_skew", [True, False])
@pytest.mark.parametrize("normalize", [True, False])
def test_aim_utilities_rows_match_one_row_at_a_time(normalize, with_skew):
    rng = fork(12, "utility-rows")
    dom = Domain.make(["a", "b", "c"], [3, 9, 20])
    queries = [MarginalQuery.make(dom, attrs) for attrs in [(0,), (1,), (0, 1), (1, 2), (0, 1, 2)]]
    workload = Workload(tuple(queries), tuple(rng.random(len(queries)) + 0.5))
    block = {q.attrs: rng.integers(0, 12, size=(5, q.cardinality)).astype(np.int32) for q in queries}
    for rows in block.values():
        rows[3] = 0  # an empty client
    sizes = block[(0,)].sum(axis=1)
    candidates = [4, 0, 2, 3]
    model = _FixedModel({queries[i].attrs: rng.random(queries[i].cardinality) * 10 for i in candidates})
    skew = rng.random((5, len(candidates))) if with_skew else None
    sigma = 1.3
    scores = _aim_utilities(block.__getitem__, model, workload, candidates, sigma,
                            sizes if normalize else None, skew)
    assert scores.shape == (5, len(candidates))
    for r in range(5):
        one = _aim_utilities(lambda attrs: block[attrs][r], model, workload, candidates, sigma,
                             int(sizes[r]) if normalize else None, None if skew is None else skew[r])
        assert one.shape == (len(candidates),)
        np.testing.assert_array_equal(scores[r], one)


def test_perfectly_fit_query_has_negative_utility(small_problem):
    data, workload = small_problem
    # a model answering a query exactly scores -w_q sqrt(2/pi) sigma n_q < 0
    q = workload.queries[0]
    w = workload.weights[0]
    sigma = 2.0
    utility = w * (0.0 - ROOT_2_OVER_PI * sigma * q.cardinality)
    assert utility < 0


@pytest.mark.parametrize("run", [run_aim, run_distaim, run_flaim], ids=lambda run: run.__name__)
def test_fail_fast_when_model_cap_below_oneway(small_problem, run):
    data, workload = small_problem
    if run is run_aim:
        args = (data, workload, AimConfig(epsilon=1.0, rounds=3, seed=0, max_model_size=8))
    else:
        partition = ClientPartition(np.arange(data.n_records) % 4, 4)
        args = (data, partition, workload, FedConfig(epsilon=1.0, rounds=3, seed=0, max_model_size=8))
    with pytest.raises(ValueError, match="max_model_size"):
        run(*args)


@pytest.mark.parametrize("config", [AimConfig, FedConfig])
@pytest.mark.parametrize("settings,match", [
    ({"rounds": 0}, "rounds"),
    ({"rounds": 5, "gauss_frac": 0.0}, "gauss_frac"),
    ({"rounds": 5, "gauss_frac": 1.0}, "gauss_frac"),
    ({"rounds": None, "gauss_frac": 0.8}, "gauss_frac"),
], ids=["rounds0", "gauss_frac0", "gauss_frac1", "annealing_gauss_frac0.8"])
def test_configs_reject_rounds_and_gauss_frac_no_schedule_can_spend(config, settings, match):
    with pytest.raises(ValueError, match=match):
        config(epsilon=1.0, **settings)


@pytest.mark.parametrize("config", [AimConfig, FedConfig])
def test_configs_accept_the_annealing_split(config):
    # annealing splits its budget 0.9/0.1, so that gauss_frac is the one it honours
    assert config(epsilon=1.0, rounds=None, gauss_frac=0.9).gauss_frac == 0.9
    assert config(epsilon=1.0, rounds=1, gauss_frac=0.35).rounds == 1


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
    admitted = filter_by_size(completed, model, limit=0.5 * (1 << 40))
    assert admitted == list(range(len(completed)))


def test_filter_fallback_single_smallest(small_problem):
    data, workload = small_problem
    dom = data.domain
    completed = complete_workload(dom, workload)
    model = ModelState.uniform(dom, 1.0)
    admitted = filter_by_size(completed, model, limit=0.0)
    assert len(admitted) == 1
    sizes = [model.size_bytes(q) for q in completed.queries]
    assert sizes[admitted[0]] == min(sizes)


def test_filter_monotone_in_rho_used(small_problem):
    data, workload = small_problem
    dom = data.domain
    completed = complete_workload(dom, workload)
    model = ModelState.uniform(dom, 1.0)
    # the limit is the spent share of the budget times the cap
    small = set(filter_by_size(completed, model, 0.05 * 4000))
    large = set(filter_by_size(completed, model, 0.6 * 4000))
    assert small <= large
