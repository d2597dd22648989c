import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsynth import central, federated
from fedsynth.central import AimConfig, run_aim
from fedsynth.domain import (
    DiscreteDataset,
    Domain,
    MarginalQuery,
    evaluate_marginal,
    normalized_counts,
)
from fedsynth.federated import (
    FedConfig,
    _client_answers,
    _FlaimLoop,
    heterogeneity_proxy,
    oracle_heterogeneity,
    run_distaim,
    run_flaim,
)
from fedsynth.partition import (
    ClientPartition,
    partition_cluster_skew,
    partition_iid,
    partition_label_skew,
    synthfs,
)
from fedsynth.privacy import exponential_probabilities, gaussian_cost
from fedsynth.rng import fork
from fedsynth.secagg import SHARE_BYTES
from fedsynth.workload import complete_workload, random_workload, workload_error


def client_data(partition, data, k):
    """Client ``k``'s rows of ``data``."""
    return data.subset(np.nonzero(partition.assignments == k)[0])


@pytest.fixture(scope="module")
def fed_problem():
    result = synthfs(n_clients=12, rows_per_client=90, seed=1, n_features=4, beta=1.0, bins=5)
    workload = random_workload(result.data.domain, 2, 5, seed=2)
    return result.data, result.partition, result.holdout, workload


# --- client answers -------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["iid", "label_skew"])
def test_client_answers_match_per_client_counts(kind):
    dom = Domain.make(["a", "b", "c"], [3, 4, 2])
    rows = fork(3, "answers").integers(0, [3, 4, 2], size=(60, 3))
    data = DiscreteDataset(dom, rows)
    # more clients than rows, so some clients hold nothing
    if kind == "iid":
        partition = partition_iid(data, 80, seed=4)
    else:
        partition = partition_label_skew(data, 80, "c", beta=0.3, seed=4)
    assert np.any(partition.sizes() == 0)
    queries = [MarginalQuery.make(dom, attrs) for attrs in [(0,), (1, 2), (0, 1, 2), (0, 2)]]
    answers = _client_answers(data, partition, queries)
    assert list(answers) == [q.attrs for q in queries]
    for q in queries:
        matrix = answers[q.attrs]
        assert matrix.shape == (partition.n_clients, q.cardinality)
        assert matrix.dtype == np.int16
        assert not matrix.flags.writeable
        for k in range(partition.n_clients):
            np.testing.assert_array_equal(matrix[k], evaluate_marginal(client_data(partition, data, k), q))
        # the column sums are the exact global marginal the oracle and the report use
        np.testing.assert_array_equal(matrix.sum(axis=0), evaluate_marginal(data, q))


def test_client_answers_widen_for_a_client_int16_cannot_count():
    dom = Domain.make(["a"], [2])
    rows = np.zeros((40_000, 1), dtype=np.int64)
    rows[:3] = 1
    data = DiscreteDataset(dom, rows)
    partition = ClientPartition(np.r_[np.zeros(39_000, dtype=int), np.ones(1_000, dtype=int)], 2)
    (matrix,) = _client_answers(data, partition, [MarginalQuery.make(dom, (0,))]).values()
    assert matrix.dtype == np.int32
    np.testing.assert_array_equal(matrix, [[38_997, 3], [1_000, 0]])


# --- distributed protocol -------------------------------------------------------------


def test_distaim_degenerate_matches_central(fed_problem):
    data, _, _, workload = fed_problem
    solo = partition_iid(data, 1, seed=0)
    central = run_aim(data, workload, AimConfig(epsilon=3.0, rounds=5, seed=7, max_model_size=1 << 16))
    dist = run_distaim(
        data, solo, workload,
        FedConfig(epsilon=3.0, rounds=5, sample_rate=1.0, seed=7,
                  normalize_scores=False, max_model_size=1 << 16),
    )
    sel_c = [tuple(e["query"]) for e in central.rounds if "query" in e]
    sel_d = [tuple(e["query"]) for e in dist.rounds if "query" in e]
    assert sel_c == sel_d
    assert workload_error(data, central.model, workload) == pytest.approx(
        workload_error(data, dist.model, workload), abs=1e-12
    )


def test_distaim_budget_exact_and_capped(fed_problem):
    data, partition, _, workload = fed_problem
    res = run_distaim(
        data, partition, workload,
        FedConfig(epsilon=1.0, rounds=6, sample_rate=0.4, seed=3, max_model_size=1 << 16),
    )
    acct = res.accountant
    assert acct.rho_used <= acct.rho_total
    assert acct.rho_used == pytest.approx(acct.rho_total, rel=1e-9)
    assert sum(r["rho"] for r in acct.ledger()) == pytest.approx(acct.rho_used, rel=1e-12)


def test_distaim_participation_once_byte_formula(fed_problem):
    data, partition, _, workload = fed_problem
    cfg = FedConfig(epsilon=1.0, rounds=8, sample_rate=0.5, seed=5, parties=3, max_model_size=1 << 16)
    res = run_distaim(data, partition, workload, cfg)
    completed = res.completed_workload
    per_client = sum(q.cardinality * SHARE_BYTES * cfg.parties for q in completed.queries)
    totals = res.comms.client_totals()
    assert totals  # someone participated
    for client, total in totals.items():
        assert total == per_client
    # a client never pays twice even if sampled in several rounds
    participants = [k for e in res.rounds for k in e.get("participants", [])]
    assert len(participants) > len(totals) or len(set(participants)) == len(participants)


def test_distaim_aggregate_approaches_global(fed_problem):
    data, partition, _, workload = fed_problem
    cfg = FedConfig(epsilon=1.0, rounds=40, sample_rate=0.3, seed=11, max_model_size=1 << 16)
    res = run_distaim(data, partition, workload, cfg)
    masses = [e["mass"] for e in res.rounds if "mass" in e]
    assert masses[-1] == data.n_records  # all clients eventually pooled
    gaps = []
    for seed in range(10):
        r = run_distaim(
            data, partition, workload,
            FedConfig(epsilon=1.0, rounds=40, sample_rate=0.3, seed=100 + seed, max_model_size=1 << 16),
        )
        gaps.append(r.rounds[-1].get("mass", 0) / data.n_records)
    assert np.mean(gaps) > 0.95


def test_distaim_zero_participant_round_skipped(fed_problem):
    data, _, _, workload = fed_problem
    # sample_rate so low that some rounds sample nobody
    tiny = ClientPartition(np.zeros(data.n_records, dtype=int), 1)
    cfg = FedConfig(epsilon=1.0, rounds=3, sample_rate=0.05, seed=2, max_model_size=1 << 16)
    res = run_distaim(data, tiny, workload, cfg)
    skipped = [e for e in res.rounds if e.get("phase") == "skipped"]
    executed = [e for e in res.rounds if e.get("phase") == "round"]
    assert len(executed) == 3  # skipped rounds do not consume the fixed budget
    assert res.accountant.rho_used == pytest.approx(res.accountant.rho_total, rel=1e-9)
    assert skipped, "expected at least one skipped round at this sampling rate"


# --- shared loop ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "method, local_rounds",
    [("aim", 1), ("distaim", 1)]
    + [(f"flaim-{v}", s) for v in ("naive", "oracle", "private") for s in (1, 2)],
)
def test_annealing_ends_on_one_final_round_spending_the_rest(fed_problem, method, local_rounds):
    data, partition, _, workload = fed_problem
    common = dict(epsilon=1.0, rounds=None, seed=8, max_model_size=1 << 16,
                  fit_iters=15, final_fit_iters=20)
    if method == "aim":
        res = run_aim(data, workload, AimConfig(**common))
    else:
        variant = method.split("-")[1] if method.startswith("flaim") else "naive"
        cfg = FedConfig(sample_rate=0.5, local_rounds=local_rounds, variant=variant, **common)
        res = (run_distaim if method == "distaim" else run_flaim)(data, partition, workload, cfg)
    executed = [e for e in res.rounds if e.get("phase", "round") == "round"]
    assert [e["final"] for e in executed] == [False] * (len(executed) - 1) + [True]
    assert res.accountant.rho_used == pytest.approx(res.accountant.rho_total, rel=1e-9)


# --- federated protocol ----------------------------------------------------------------


def test_flaim_private_charge_is_linear_in_rounds(fed_problem):
    data, partition, _, workload = fed_problem
    T = 5
    cfg = FedConfig(epsilon=1.0, rounds=T, sample_rate=1.0, seed=4, variant="private",
                    max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    acct = res.accountant
    assert acct.rho_used == pytest.approx(acct.rho_total, rel=1e-9)
    # per-round spend is exactly rho/T: cumulative ledger hits i*rho/T
    executed = [e for e in res.rounds if e.get("phase") == "round"]
    for i, entry in enumerate(executed, start=1):
        assert entry["rho_used"] == pytest.approx(i * acct.rho_total / T, rel=1e-9)


@pytest.mark.parametrize("variant", ["naive", "oracle"])
def test_flaim_initialized_variants_budget_exact(fed_problem, variant):
    data, partition, _, workload = fed_problem
    cfg = FedConfig(epsilon=2.0, rounds=4, sample_rate=0.5, seed=6, variant=variant,
                    max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    acct = res.accountant
    assert acct.rho_used <= acct.rho_total
    assert acct.rho_used == pytest.approx(acct.rho_total, rel=1e-9)
    d = len(data.domain)
    sigma = np.sqrt((4 * cfg.local_rounds + d) / (2 * 0.9 * acct.rho_total))
    assert res.rounds[0]["phase"] == "init"
    init_charge = [c for c in acct.ledger() if c["mechanism"] == "gaussian_init"]
    assert init_charge[0]["rho"] == pytest.approx(d * gaussian_cost(sigma), rel=1e-9)


def test_flaim_zero_participant_round_reserves_budget(fed_problem):
    data, _, _, workload = fed_problem
    tiny = ClientPartition(np.zeros(data.n_records, dtype=int), 1)
    cfg = FedConfig(epsilon=1.0, rounds=4, sample_rate=0.05, seed=29, variant="private",
                    max_model_size=1 << 16)
    res = run_flaim(data, tiny, workload, cfg)
    skipped = [e for e in res.rounds if e.get("phase") == "skipped"]
    executed = [e for e in res.rounds if e.get("phase") == "round"]
    assert len(skipped) + len(executed) == 4
    if skipped:
        expected = res.accountant.rho_total * len(executed) / 4
        assert res.accountant.rho_used == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("rounds", [5, None])
def test_flaim_oracle_skips_queries_only_empty_clients_chose(rounds):
    # more clients than a label-skew split fills: some hold no rows, and in
    # round 1 every client choosing two of the one-ways is empty, so oracle
    # weighting (public contributor sizes) would give those measurements zero
    # weight
    result = synthfs(n_clients=20, rows_per_client=50, seed=0, n_features=4, beta=1.0, bins=5)
    data = result.data
    partition = partition_label_skew(data, 40, 3, beta=0.3, seed=0)
    assert np.any(partition.sizes() == 0)
    workload = random_workload(data.domain, 2, 4, seed=0)
    cfg = FedConfig(epsilon=1.0, rounds=rounds, sample_rate=0.1, seed=1, variant="oracle",
                    max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    unmeasured = [e for e in res.rounds if "unmeasured" in e]
    assert unmeasured and all(e["unmeasured"] for e in unmeasured)
    for e in unmeasured:
        assert all(attrs in e["selected"] for attrs in e["unmeasured"])
    # every admitted query is measured except the unmeasured ones
    measured = len(data.domain) + sum(
        len(e.get("selected", [])) - len(e.get("unmeasured", [])) for e in res.rounds
    )
    assert res.model.meta["n_measurements"] == measured
    # the round's charge is kept: the budget is still spent exactly
    assert res.accountant.rho_used == pytest.approx(res.accountant.rho_total, rel=1e-9)


# --- the release rule -----------------------------------------------------------------


@pytest.fixture(scope="module")
def empty_client_problem():
    """A label-skew split with more clients than it fills, so some hold no rows."""
    data = synthfs(n_clients=20, rows_per_client=50, seed=0, n_features=4, beta=1.0, bins=5).data
    partition = partition_label_skew(data, 40, 3, beta=0.3, seed=0)
    assert np.any(partition.sizes() == 0)
    return data, partition, random_workload(data.domain, 2, 5, seed=0)


def _released(monkeypatch, run, *args) -> list:
    """Every measurement ``run`` released: those its final fit reads."""
    final, real_fit = [], central.fit

    def spy(measurements, *fit_args, **fit_kwargs):
        final[:] = measurements
        return real_fit(measurements, *fit_args, **fit_kwargs)

    monkeypatch.setattr(central, "fit", spy)
    run(*args)
    return final


def _pooled_answer(data, partition, clients, query) -> np.ndarray:
    """Exact answer to ``query`` over the rows ``clients`` hold."""
    rows = np.nonzero(np.isin(partition.assignments, list(clients)))[0]
    return evaluate_marginal(data.subset(rows), query)


def _expected_release(data, pooled, mass, normalize) -> np.ndarray:
    return pooled * (data.n_records / max(mass, 1)) if normalize else pooled


def test_aim_releases_exact_answers_at_unit_weight(monkeypatch, empty_client_problem):
    data, _, workload = empty_client_problem
    cfg = AimConfig(epsilon=1.0, rounds=3, seed=4, max_model_size=1 << 16, noiseless=True)
    released = _released(monkeypatch, run_aim, data, workload, cfg)
    assert len(released) == len(data.domain) + 3
    for m in released:
        np.testing.assert_array_equal(m.noisy_counts, evaluate_marginal(data, m.query))
        assert m.weight * m.sigma == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("normalize", [True, False])
def test_distaim_releases_the_pooled_sum_rescaled_by_pooled_mass(
    monkeypatch, empty_client_problem, normalize
):
    data, partition, workload = empty_client_problem
    cfg = FedConfig(epsilon=1.0, rounds=3, sample_rate=0.1, seed=4, max_model_size=1 << 16,
                    normalize_scores=normalize, noiseless=True)
    log = []
    real_run = federated.run_distaim

    def run(*args):
        log.extend(real_run(*args).rounds)

    released = _released(monkeypatch, run, data, partition, workload, cfg)
    assert released
    sizes = partition.sizes()
    for m in released:
        pooled_clients = {k for e in log if e["t"] <= m.round for k in e.get("participants", [])}
        mass = int(sizes[list(pooled_clients)].sum())
        pooled = _pooled_answer(data, partition, pooled_clients, m.query)
        np.testing.assert_allclose(m.noisy_counts, _expected_release(data, pooled, mass, normalize), rtol=1e-12)
        assert m.weight * m.sigma == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("variant", ["naive", "oracle", "private"])
def test_flaim_releases_the_contributors_sum_rescaled_by_their_mass(
    monkeypatch, empty_client_problem, variant, normalize
):
    data, partition, workload = empty_client_problem
    cfg = FedConfig(epsilon=1.0, rounds=3, sample_rate=0.1, seed=4, max_model_size=1 << 16,
                    variant=variant, normalize_scores=normalize, noiseless=True)
    contributors, real_secagg = [], federated.secagg_round

    def secagg_spy(contributions, *args, clients=None, **kwargs):
        contributors.append(list(clients))
        return real_secagg(contributions, *args, clients=clients, **kwargs)

    monkeypatch.setattr(federated, "secagg_round", secagg_spy)
    released = _released(monkeypatch, run_flaim, data, partition, workload, cfg)
    # one local round: every measurement is one secure aggregation, in order
    assert released and len(released) == len(contributors)
    sizes = partition.sizes()
    if variant == "private":  # covers the floor of its mass self-estimate: a sum over empty clients only
        assert any(sizes[clients].sum() == 0 for clients in contributors)
    for m, clients in zip(released, contributors):
        mass = int(sizes[clients].sum())
        pooled = _pooled_answer(data, partition, clients, m.query)
        np.testing.assert_allclose(m.noisy_counts, _expected_release(data, pooled, mass, normalize), rtol=1e-12)
        # private self-estimates the mass from the sum, floored at 1; oracle
        # never measures a contribution with no rows
        expected_weight = 1.0 if variant == "naive" else max(mass, 1)
        assert m.weight * m.sigma == pytest.approx(expected_weight, rel=1e-12)


@pytest.mark.parametrize("variant,factor", [("naive", 1.0), ("oracle", 2.0), ("private", 2.0)])
def test_flaim_selection_sensitivity_per_variant(fed_problem, variant, factor):
    # a skew penalty can move with the record added or removed, so the
    # skew-corrected variants select at twice the naive sensitivity
    data, partition, _, workload = fed_problem
    completed = complete_workload(data.domain, workload)
    loop = _FlaimLoop(data, partition, completed, FedConfig(epsilon=1.0, variant=variant))
    assert loop.sensitivity == factor * completed.max_weight()


def test_flaim_private_filters_oneways_from_local_selection(fed_problem):
    data, partition, _, workload = fed_problem
    cfg = FedConfig(epsilon=2.0, rounds=4, sample_rate=1.0, seed=10, variant="private",
                    max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    for entry in res.rounds:
        for attrs in entry.get("selected", []):
            assert len(attrs) > 1


def test_flaim_duplicate_selections_single_measurement(fed_problem):
    data, _, _, workload = fed_problem
    # clients with identical data: noise-free argmax selection coincides, so
    # the round aggregates all contributions into one measurement
    block = data.rows[:100]
    clones = DiscreteDataset(data.domain, np.vstack([block] * 4))
    partition = ClientPartition(np.repeat(np.arange(4), 100), 4)
    cfg = FedConfig(epsilon=1e6, rounds=1, sample_rate=1.0, seed=12, variant="naive",
                    max_model_size=1 << 16, noiseless=True)
    res = run_flaim(clones, partition, workload, cfg)
    entry = [e for e in res.rounds if e.get("phase") == "round"][0]
    assert len(entry["participants"]) == 4
    assert len(entry["selected"]) == 1
    chosen = tuple(entry["selected"][0])
    agg = sum(
        evaluate_marginal(client_data(partition, clones, k), MarginalQuery.make(clones.domain, chosen))
        for k in entry["participants"]
    )
    np.testing.assert_allclose(agg.sum(), clones.n_records)


def test_flaim_local_rounds_spend_identity(fed_problem):
    data, partition, _, workload = fed_problem
    cfg = FedConfig(epsilon=1.0, rounds=3, sample_rate=0.5, local_rounds=2, seed=13,
                    variant="private", max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    assert res.accountant.rho_used == pytest.approx(res.accountant.rho_total, rel=1e-9)


def test_flaim_private_client_round_bytes(fed_problem):
    data, partition, _, workload = fed_problem
    s = 1
    cfg = FedConfig(epsilon=1.0, rounds=1, sample_rate=1.0, local_rounds=s, seed=14,
                    variant="private", max_model_size=1 << 16)
    res = run_flaim(data, partition, workload, cfg)
    d = len(data.domain)
    oneway_bytes = sum(c * SHARE_BYTES for c in data.domain.cardinalities)
    entry = [e for e in res.rounds if e.get("phase") == "round"][0]
    selected = {tuple(a) for a in entry["selected"]}
    by_attrs = {q.attrs: q for q in res.completed_workload.queries}
    totals = res.comms.client_totals()
    for k in entry["participants"]:
        chosen_bytes = sum(
            by_attrs[attrs].cardinality * SHARE_BYTES
            for attrs in selected
            # each client pays only for queries it selected; with one round and
            # noise-free ties every client selects one query
        )
        assert totals[k] <= s * max(q.cardinality for q in by_attrs.values()) * SHARE_BYTES + oneway_bytes
        assert totals[k] >= oneway_bytes


# --- heterogeneity measures ------------------------------------------------------------


def test_oracle_heterogeneity_identity_and_bound():
    global_counts = np.array([10.0, 30.0, 60.0])
    assert oracle_heterogeneity(global_counts, global_counts) == 0.0
    rng = fork(0, "tau")
    for _ in range(50):
        a, b = rng.uniform(0, 5, 4), rng.uniform(0, 5, 4)
        assert 0.0 <= oracle_heterogeneity(a, b) <= 2.0


def test_oracle_heterogeneity_disjoint_hand_value():
    assert oracle_heterogeneity(np.array([50.0, 0.0]), np.array([50.0, 50.0])) == pytest.approx(1.0)


def test_proxy_zero_for_matching_client():
    client = {0: np.array([30.0, 70.0]), 1: np.array([10.0, 90.0])}
    global_est = {0: np.array([3.0, 7.0]), 1: np.array([1.0, 9.0])}
    q = MarginalQuery(attrs=(0, 1), cardinality=4)
    assert heterogeneity_proxy(client, global_est, q) == pytest.approx(0.0)


def test_proxy_hand_value_disjoint_feature():
    client = {0: np.array([40.0, 0.0])}
    global_est = {0: np.array([0.5, 0.5])}
    q = MarginalQuery(attrs=(0,), cardinality=2)
    assert heterogeneity_proxy(client, global_est, q) == pytest.approx(1.0)


def test_proxy_missing_estimate_rejected():
    q = MarginalQuery(attrs=(0, 1), cardinality=4)
    with pytest.raises(KeyError):
        heterogeneity_proxy({0: np.ones(2), 1: np.ones(2)}, {0: np.ones(2)}, q)


def test_proxy_rows_match_one_client_at_a_time():
    cards = [2, 3, 5, 9, 4, 130, 7]
    dom = Domain.make([f"a{i}" for i in range(len(cards))], cards)
    rng = fork(11, "proxy-rows")
    client = {a: rng.integers(0, 15, size=(6, c)) for a, c in enumerate(cards)}
    for rows in client.values():
        rows[4] = 0  # an empty client
    reference = {a: rng.random(c) for a, c in enumerate(cards)}
    for arity in range(1, len(cards) + 1):
        q = MarginalQuery.make(dom, range(len(cards) - arity, len(cards)))
        proxies = heterogeneity_proxy(client, reference, q)
        assert proxies.shape == (6,)
        for k in range(6):
            one = {a: rows[k] for a, rows in client.items()}
            assert proxies[k] == heterogeneity_proxy(one, reference, q)
            # the mean of a list of per-attribute gaps, as one client's proxy was once computed
            assert proxies[k] == float(np.mean([oracle_heterogeneity(one[a], reference[a]) for a in q.attrs]))


def test_proxy_correlates_with_exact_on_clustered_split(fed_problem):
    data, _, _, workload = fed_problem
    clustered = partition_cluster_skew(data, 8, seed=3)
    completed = complete_workload(data.domain, workload)
    global_oneways = {
        a: evaluate_marginal(data, MarginalQuery.make(data.domain, (a,)))
        for a in range(len(data.domain))
    }
    proxies, exacts = [], []
    for k in range(8):
        local = client_data(clustered, data, k)
        client_oneways = {
            a: evaluate_marginal(local, MarginalQuery.make(data.domain, (a,)))
            for a in range(len(data.domain))
        }
        for q in completed.queries:
            proxies.append(heterogeneity_proxy(client_oneways, global_oneways, q))
            exacts.append(
                oracle_heterogeneity(
                    evaluate_marginal(local, q), evaluate_marginal(data, q)
                )
            )
    corr = np.corrcoef(proxies, exacts)[0, 1]
    assert corr > 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12))
def test_skew_triangle_inequality_property(seed, cells):
    # normalized distributions a (client), g (global), m (model):
    # ||a - m||_1 <= ||g - m||_1 + ||a - g||_1
    rng = np.random.default_rng(seed)
    a, g, m = (normalized_counts(rng.uniform(0, 1, cells)) for _ in range(3))
    lhs = np.abs(a - m).sum()
    rhs = np.abs(g - m).sum() + np.abs(a - g).sum()
    assert lhs <= rhs + 1e-9


def test_triangle_inequality_for_skew_penalty(fed_problem):
    data, partition, _, workload = fed_problem
    rng = fork(17, "model-proxy")
    completed = complete_workload(data.domain, workload)
    # a stand-in model answer: normalized noisy global marginal
    for q in completed.queries:
        global_norm = normalized_counts(evaluate_marginal(data, q))
        model_norm = normalized_counts(
            np.maximum(evaluate_marginal(data, q) + rng.normal(0, 20, q.cardinality), 0)
        )
        for k in range(partition.n_clients):
            local = normalized_counts(
                evaluate_marginal(client_data(partition, data, k), q)
            )
            lhs = np.abs(local - model_norm).sum()
            tau = np.abs(local - global_norm).sum()
            rhs = np.abs(global_norm - model_norm).sum() + tau
            assert lhs <= rhs + 1e-9


def test_penalty_strictly_decreases_selection_probability():
    scores = np.array([3.0, 2.0, 1.0])
    base = exponential_probabilities(scores, eps=1.0, sensitivity=2.0)
    for bump in (0.5, 1.0, 3.0):
        penalized = scores.copy()
        penalized[0] -= bump
        shifted = exponential_probabilities(penalized, eps=1.0, sensitivity=2.0)
        assert shifted[0] < base[0]


def test_flaim_naive_matches_oracle_on_iid_control():
    # with IID clients large enough that finite-sample skew is negligible and
    # full participation, the skew penalty has nothing to correct: the
    # variants' mean errors should be statistically equal
    dom = Domain.make([f"a{i}" for i in range(4)], [3, 3, 3, 3])
    rows = fork(77, "iid-control").integers(0, 3, size=(2000, 4))
    data = DiscreteDataset(dom, rows)
    workload = random_workload(dom, 2, 4, seed=5)
    iid = partition_iid(data, 4, seed=0)
    errs = {"naive": [], "oracle": []}
    for variant in errs:
        for seed in range(10):
            cfg = FedConfig(epsilon=3.0, rounds=4, sample_rate=1.0, seed=60 + seed,
                            variant=variant, max_model_size=1 << 16)
            res = run_flaim(data, iid, workload, cfg)
            errs[variant].append(workload_error(data, res.model, workload))
    naive, oracle = np.array(errs["naive"]), np.array(errs["oracle"])
    diff = abs(naive.mean() - oracle.mean())
    spread = 2 * math.sqrt(naive.std() ** 2 / 10 + oracle.std() ** 2 / 10)
    assert diff <= spread


def test_flaim_oracle_beats_naive_on_skewed_split(fed_problem):
    data, partition, _, workload = fed_problem
    errs = {"naive": [], "oracle": []}
    for variant in errs:
        for seed in range(6):
            cfg = FedConfig(epsilon=3.0, rounds=5, sample_rate=0.4, seed=40 + seed,
                            variant=variant, max_model_size=1 << 16)
            res = run_flaim(data, partition, workload, cfg)
            errs[variant].append(workload_error(data, res.model, workload))
    assert np.mean(errs["oracle"]) < np.mean(errs["naive"]) * 1.25
