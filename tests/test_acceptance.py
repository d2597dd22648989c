"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities."""

import math
import time

import numpy as np
import pytest

from fedsynth.central import AimConfig, run_aim
from fedsynth.domain import DiscreteDataset, Domain, MarginalQuery, evaluate_marginal
from fedsynth.federated import (
    FedConfig,
    heterogeneity_proxy,
    oracle_heterogeneity,
    run_distaim,
    run_flaim,
)
from fedsynth.harness import ExperimentConfig, results_to_csv, run_experiment
from fedsynth.model import Measurement, fit
from fedsynth.partition import (
    mixture_dataset,
    partition_cluster_skew,
    partition_iid,
    partition_label_skew,
    synthfs,
)
from fedsynth.privacy import (
    exponential_cost,
    exponential_probabilities,
    gaussian_cost,
)
from fedsynth.partition import heterogeneity_report
from fedsynth.rng import fork
from fedsynth.secagg import SHARE_BYTES
from fedsynth.workload import complete_workload, random_workload, workload_error


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


# -------------------------------------------------------------------- 1 ----


def test_criterion_01_mechanism_correctness():
    start = time.perf_counter()
    scores = np.array([0.0, 1.0, 2.0, 0.5, -1.0])
    eps, sens = 1.5, 1.0
    target = exponential_probabilities(scores, eps, sens)
    rng = fork(101, "acceptance-exp")
    n = 1_000_000
    scaled = eps * (scores - scores.max()) / (2 * sens)
    draws = np.argmax(scaled[None, :] + rng.gumbel(size=(n, scores.size)), axis=1)
    tv = 0.5 * np.abs(np.bincount(draws, minlength=scores.size) / n - target).sum()

    sigma = 2.0
    noise = fork(101, "acceptance-gauss").normal(0.0, sigma, 100_000)
    folded = np.abs(noise).mean()
    expected = sigma * math.sqrt(2 / math.pi)
    gauss_rel = abs(folded - expected) / expected

    elapsed = time.perf_counter() - start
    report(
        "criterion-1 mechanism correctness",
        tv <= 0.005 and gauss_rel <= 0.02 and elapsed < 60,
        f"TV={tv:.5f} (<=0.005), folded-abs rel err={gauss_rel:.4f} (<=0.02), {elapsed:.1f}s",
    )


# -------------------------------------------------------------------- 2 ----


@pytest.fixture(scope="module")
def accounting_problem():
    result = synthfs(n_clients=12, rows_per_client=90, seed=1, n_features=4, beta=1.0, bins=5)
    workload = random_workload(result.data.domain, 2, 5, seed=2)
    return result.data, result.partition, workload


def _replay_vs_analytic(acct, rounds, d, s=1, private=False, init_count=None):
    analytic = 0.0
    for entry in rounds:
        phase = entry.get("phase", "round")
        if phase == "init":
            analytic += (init_count if init_count is not None else d) * gaussian_cost(entry["sigma"])
        elif phase == "round":
            gauss_apps = (s + d) if private else s
            analytic += gauss_apps * gaussian_cost(entry["sigma"]) + s * exponential_cost(entry["eps"])
    replay = sum(r["rho"] for r in acct.ledger())
    return replay, analytic


def test_criterion_02_accounting_exactness(accounting_problem):
    data, partition, workload = accounting_problem
    d = len(data.domain)
    checks = []

    for rounds in (6, None):  # fixed rounds and budget annealing
        res = run_aim(data, workload, AimConfig(epsilon=1.5, rounds=rounds, seed=3, max_model_size=1 << 16))
        # central logs carry sigma on the init entry; select rounds carry both
        replay, analytic = _replay_vs_analytic(res.accountant, res.rounds, d)
        checks.append(("aim", rounds, res.accountant, replay, analytic))

        fed = FedConfig(epsilon=1.5, rounds=rounds, sample_rate=0.6, seed=3, max_model_size=1 << 16)
        rd = run_distaim(data, partition, workload, fed)
        d_init = sum(1 for q in rd.completed_workload.queries if len(q) == 1)
        replay, analytic = _replay_vs_analytic(rd.accountant, rd.rounds, d, init_count=d_init)
        checks.append(("distaim", rounds, rd.accountant, replay, analytic))

    for variant in ("naive", "oracle", "private"):
        for rounds in ((5,) if variant != "private" else (5, None)):
            fed = FedConfig(epsilon=1.5, rounds=rounds, sample_rate=0.6, seed=4,
                            variant=variant, max_model_size=1 << 16)
            rf = run_flaim(data, partition, workload, fed)
            replay, analytic = _replay_vs_analytic(
                rf.accountant, rf.rounds, d, s=1, private=(variant == "private")
            )
            checks.append((f"flaim-{variant}", rounds, rf.accountant, replay, analytic))

    worst = 0.0
    for name, rounds, acct, replay, analytic in checks:
        assert acct.rho_used <= acct.rho_total * (1 + 1e-12), f"{name} rounds={rounds} exceeded budget"
        rel = abs(replay - analytic) / analytic
        worst = max(worst, rel)
        assert rel <= 1e-9, f"{name} rounds={rounds}: replay {replay} vs analytic {analytic}"
        if rounds is not None:
            rel_total = abs(acct.rho_used - acct.rho_total) / acct.rho_total
            assert rel_total <= 1e-9, f"{name} fixed-T should consume the whole budget"
    report(
        "criterion-2 accounting exactness",
        True,
        f"{len(checks)} protocol/mode runs, worst replay gap {worst:.2e} (<=1e-9), caps held",
    )


# -------------------------------------------------------------------- 3 ----


def _simplex_project(v, total):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    k = ks[u - css / ks > 0][-1]
    return np.maximum(v - css[k - 1] / k, 0.0)


def _accelerated_pgd(measurements, dom, total, iters):
    """Independent oracle: FISTA projected gradient on the full joint."""
    shape = tuple(dom.cardinalities)
    n = int(np.prod(shape))
    mats = []
    grid = np.indices(shape).reshape(len(shape), n)
    for m in measurements:
        a = np.zeros((m.query.cardinality, n))
        flat_q = np.ravel_multi_index(
            tuple(grid[ai] for ai in m.query.attrs), dims=dom.shape(m.query.attrs)
        )
        a[flat_q, np.arange(n)] = 1.0
        mats.append((a, m.noisy_counts, m.weight))
    lipschitz = sum(2 * w * np.linalg.norm(a @ a.T, 2) for a, _, w in mats)
    step = 1.0 / lipschitz
    x = np.full(n, total / n)
    y = x.copy()
    t_k = 1.0
    for _ in range(iters):
        grad = np.zeros(n)
        for a, targ, w in mats:
            grad += 2 * w * a.T @ (a @ y - targ)
        x_new = _simplex_project(y - step * grad, total)
        t_new = (1 + math.sqrt(1 + 4 * t_k * t_k)) / 2
        y = x_new + ((t_k - 1) / t_new) * (x_new - x)
        x, t_k = x_new, t_new
    return x


def _objective(measurements, dom, flat):
    shape = tuple(dom.cardinalities)
    total = 0.0
    for m in measurements:
        drop = tuple(i for i in range(len(shape)) if i not in m.query.attrs)
        marg = flat.reshape(shape).sum(axis=drop).reshape(-1)
        total += m.weight * float(np.square(marg - m.noisy_counts).sum())
    return total


def test_criterion_03_fitter_oracle_equivalence():
    start = time.perf_counter()
    cases = []

    def noiseless_case(cards, query_sets, n_rows, seed):
        dom = Domain.make([f"a{i}" for i in range(len(cards))], cards)
        rng = fork(seed, "acc3")
        data = DiscreteDataset(dom, rng.integers(0, cards, size=(n_rows, len(cards))))
        ms = []
        for attrs in query_sets:
            q = MarginalQuery.make(dom, attrs)
            ms.append(Measurement(0, q, evaluate_marginal(data, q), 1.0, 1.0))
        return dom, ms

    cases.append(noiseless_case((2, 2, 2), [(0, 1), (1, 2)], 100, 31))
    cases.append(noiseless_case((4, 4, 4, 2), [(0, 1), (1, 2), (2, 3), (0, 3)], 400, 32))
    cases.append(
        noiseless_case((8, 8, 8, 8), [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)], 800, 33)
    )
    # one noisy case: the oracle gap is then a genuine relative comparison
    dom = Domain.make(["x", "y", "z"], (4, 3, 2))
    rng = fork(34, "acc3-noisy")
    data = DiscreteDataset(dom, rng.integers(0, (4, 3, 2), size=(300, 3)))
    noisy = []
    for attrs in [(0, 1), (1, 2), (0, 2)]:
        q = MarginalQuery.make(dom, attrs)
        y = evaluate_marginal(data, q) + rng.normal(0, 8.0, q.cardinality)
        noisy.append(Measurement(0, q, y, 8.0, 1 / 8.0))
    cases.append((dom, noisy))

    worst_gap, worst_l1 = 0.0, 0.0
    for dom, ms in cases:
        model = fit(ms, dom, iterations=4000, tolerance=1e-14)
        md_val = sum(
            m.weight * float(np.square(model.marginal_counts(m.query) - m.noisy_counts).sum())
            for m in ms
        )
        oracle = _accelerated_pgd(ms, dom, model.total, iters=4000)
        pgd_val = _objective(ms, dom, oracle)
        uniform_val = _objective(ms, dom, np.full(dom.size(), model.total / dom.size()))
        gap = (md_val - pgd_val) / max(pgd_val, 1e-6 * uniform_val)
        worst_gap = max(worst_gap, gap)
        noiseless = all(m.sigma == 1.0 for m in ms)
        if noiseless:
            for m in ms:
                l1 = float(np.abs(model.marginal_counts(m.query) - m.noisy_counts).sum())
                worst_l1 = max(worst_l1, l1)
    elapsed = time.perf_counter() - start
    report(
        "criterion-3 fitter oracle equivalence",
        worst_gap <= 1e-3 and worst_l1 <= 1e-2 and elapsed < 120,
        f"worst objective gap {worst_gap:.2e} (<=1e-3), worst noiseless L1 {worst_l1:.2e} (<=1e-2), {elapsed:.0f}s",
    )


# -------------------------------------------------------------------- 4 ----


def test_criterion_04_central_convergence():
    start = time.perf_counter()
    passes, errs = 0, []
    for seed in range(10):
        result = synthfs(n_clients=20, rows_per_client=250, seed=seed, n_features=6,
                         beta=2.0, bins=8)
        workload = random_workload(result.data.domain, 3, 16, seed=seed + 100)
        cfg = AimConfig(epsilon=1e6, rounds=30, seed=seed + 200, max_model_size=3 * (1 << 20),
                        fit_iters=40, final_fit_iters=400)
        res = run_aim(result.data, workload, cfg)
        err = workload_error(result.data, res.model, workload)
        errs.append(err)
        passes += err < 0.02
    elapsed = time.perf_counter() - start
    report(
        "criterion-4 central convergence",
        passes >= 9 and elapsed < 300,
        f"{passes}/10 seeds below 0.02 (max err {max(errs):.4f}), {elapsed:.0f}s (<300)",
    )


# -------------------------------------------------------------------- 5 ----


def test_criterion_05_federated_trend():
    start = time.perf_counter()
    S = 1 << 20
    means = {}
    for beta in (1.0, 5.0):
        errs = {m: [] for m in ("aim", "distaim", "flaim-naive", "flaim-private")}
        for seed in range(10):
            result = synthfs(n_clients=100, rows_per_client=500, seed=seed,
                             n_features=10, beta=beta, bins=8)
            data, partition = result.data, result.partition
            workload = random_workload(data.domain, 3, 32, seed=1000 + seed)
            for method in errs:
                if method == "aim":
                    run = run_aim(data, workload, AimConfig(
                        epsilon=1.0, rounds=10, seed=seed, max_model_size=S,
                        final_fit_iters=300, final_fit_tolerance=1e-5))
                else:
                    cfg = FedConfig(
                        epsilon=1.0, rounds=10, sample_rate=0.1, seed=seed,
                        variant=method.split("-")[-1] if method.startswith("flaim") else "naive",
                        max_model_size=S, final_fit_iters=300, final_fit_tolerance=1e-5)
                    run = (run_distaim if method == "distaim" else run_flaim)(
                        data, partition, workload, cfg)
                errs[method].append(workload_error(data, run.model, workload))
        means[beta] = {m: float(np.mean(v)) for m, v in errs.items()}
    elapsed = time.perf_counter() - start
    b1 = means[1.0]
    ok = (
        b1["aim"] < b1["distaim"]
        and b1["flaim-private"] < b1["flaim-naive"]
        and b1["flaim-private"] <= 1.25 * b1["distaim"]
        and elapsed < 1800
    )
    report(
        "criterion-5 federated trend",
        ok,
        f"beta=1 means {b1}; beta=5 means {means[5.0]}; {elapsed:.0f}s (<1800)",
    )


# -------------------------------------------------------------------- 6 ----


def test_criterion_06_heterogeneity_ordering():
    data = mixture_dataset(20000, seed=3)
    workload = random_workload(data.domain, 2, 8, seed=4)
    agg = {"iid": [], "ls08": [], "ls01": [], "cluster": []}
    for seed in range(5):
        agg["iid"].append(heterogeneity_report(data, partition_iid(data, 100, seed), workload).aggregate)
        agg["ls08"].append(
            heterogeneity_report(data, partition_label_skew(data, 100, "income", 0.8, seed), workload).aggregate
        )
        agg["ls01"].append(
            heterogeneity_report(data, partition_label_skew(data, 100, "income", 0.1, seed), workload).aggregate
        )
        agg["cluster"].append(
            heterogeneity_report(data, partition_cluster_skew(data, 100, seed), workload).aggregate
        )
    m = {k: float(np.mean(v)) for k, v in agg.items()}
    gaps = (
        (m["ls08"] - m["iid"]) / m["iid"],
        (m["ls01"] - m["ls08"]) / m["ls08"],
        (m["cluster"] - m["iid"]) / m["iid"],
    )
    ok = all(g > 0.10 for g in gaps)
    report(
        "criterion-6 heterogeneity ordering",
        ok,
        f"iid={m['iid']:.2f} < ls(0.8)={m['ls08']:.2f} < ls(0.1)={m['ls01']:.2f}, "
        f"cluster={m['cluster']:.2f}; relative gaps {[round(g, 2) for g in gaps]} (all > 0.10)",
    )


# -------------------------------------------------------------------- 7 ----


def test_criterion_07_proxy_validity():
    result = synthfs(n_clients=12, rows_per_client=90, seed=1, n_features=4, beta=1.0, bins=5)
    data = result.data
    clustered = partition_cluster_skew(data, 8, seed=3)
    workload = complete_workload(data.domain, random_workload(data.domain, 2, 5, seed=2))
    global_oneways = {
        a: evaluate_marginal(data, MarginalQuery.make(data.domain, (a,)))
        for a in range(len(data.domain))
    }
    proxies, exacts = [], []
    for k in range(8):
        local = data.subset(np.nonzero(clustered.assignments == k)[0])
        client_oneways = {
            a: evaluate_marginal(local, MarginalQuery.make(data.domain, (a,)))
            for a in range(len(data.domain))
        }
        for q in workload.queries:
            proxies.append(heterogeneity_proxy(client_oneways, global_oneways, q))
            exacts.append(
                oracle_heterogeneity(evaluate_marginal(local, q),
                                     evaluate_marginal(data, q))
            )
    corr = float(np.corrcoef(proxies, exacts)[0, 1])

    # closed-form monotonicity of the skew penalty
    scores = np.array([2.0, 1.5, 0.5])
    base = exponential_probabilities(scores, 1.0, 2.0)[0]
    monotone = True
    last = base
    for bump in (0.2, 0.5, 1.0, 2.0):
        bumped = scores.copy()
        bumped[0] -= bump
        p = exponential_probabilities(bumped, 1.0, 2.0)[0]
        monotone &= p < last
        last = p
    report(
        "criterion-7 proxy validity",
        corr > 0.5 and monotone,
        f"Pearson corr {corr:.3f} (>0.5) over {len(proxies)} (client, query) pairs; "
        f"penalty strictly decreases selection probability: {monotone}",
    )


# -------------------------------------------------------------------- 8 ----


def test_criterion_08_throughput_trend():
    result = synthfs(n_clients=40, rows_per_client=100, seed=5, n_features=14, beta=2.0, bins=32)
    data, partition = result.data, result.partition
    workload = random_workload(data.domain, 3, 64, seed=55)
    fast = dict(epsilon=1.0, rounds=32, sample_rate=0.1, seed=6, max_model_size=1 << 20,
                final_fit_iters=100, final_fit_tolerance=1e-4)
    dist = run_distaim(data, partition, workload, FedConfig(**fast))
    flaim = run_flaim(data, partition, workload, FedConfig(variant="private", **fast))
    dist_bytes = sum(dist.comms.client_totals().values())
    flaim_bytes = sum(flaim.comms.client_totals().values())
    ratio = dist_bytes / flaim_bytes

    # hand-computed single-client formulas hold exactly
    per_client = sum(q.cardinality * SHARE_BYTES * 3 for q in dist.completed_workload.queries)
    dist_exact = all(v == per_client for v in dist.comms.client_totals().values())

    oneway_bytes = sum(c * SHARE_BYTES for c in data.domain.cardinalities)
    flaim_round = [e for e in flaim.rounds if e.get("phase") == "round"][0]
    by_attrs = {q.attrs: q for q in flaim.completed_workload.queries}
    first_round_entries = [
        e for e in flaim.comms.entries if e["round"] == flaim_round["t"] and e["client"] >= 0
    ]
    selected_bytes = {
        tuple(a): by_attrs[tuple(a)].cardinality * SHARE_BYTES for a in flaim_round["selected"]
    }
    flaim_exact = True
    per_client_round: dict[int, int] = {}
    for e in first_round_entries:
        per_client_round[e["client"]] = per_client_round.get(e["client"], 0) + e["bytes_sent"]
    for k, total in per_client_round.items():
        # every participant ships d one-way tables plus its selected marginals
        base = oneway_bytes
        extra = total - base
        flaim_exact &= extra >= 0 and extra <= sum(selected_bytes.values())
    report(
        "criterion-8 throughput trend",
        ratio > 10 and dist_exact and flaim_exact,
        f"distaim {dist_bytes:,}B vs flaim-private {flaim_bytes:,}B -> {ratio:.0f}x (>10x); "
        f"per-client byte formulas exact: {dist_exact and flaim_exact}",
    )


# -------------------------------------------------------------------- 9 ----


def test_criterion_09_determinism():
    config = ExperimentConfig(
        dataset={"kind": "synthfs", "clients": 8, "rows_per_client": 60,
                 "features": 4, "bins": 5, "seed": 1},
        partition={"kind": "builtin"},
        workload={"arity": 2, "count": 4, "seed": 2},
        protocol={"method": "flaim-private", "epsilon": 2.0, "rounds": 3,
                  "max_model_size": 1 << 16, "sample_rate": 0.5},
        repeats=2,
        seed=17,
    )
    first = results_to_csv(run_experiment(config))
    second = results_to_csv(run_experiment(config))
    report(
        "criterion-9 determinism",
        first == second,
        f"rerun CSV identical: {first == second} ({len(first)} bytes)",
    )


# ------------------------------------------------------------------- 10 ----


def test_criterion_10_paper_anchor_report():
    """Non-gating: reference anchor values for a central run at eps=1 on a
    census benchmark (error 0.2 / NLL 19.3) are reported against the bundled
    surrogate for orientation."""
    data = mixture_dataset(20000, seed=7)
    hold = mixture_dataset(2000, seed=8)
    workload = random_workload(data.domain, 3, 64, seed=9)
    cfg = AimConfig(epsilon=1.0, rounds=10, seed=10, max_model_size=1 << 20,
                    final_fit_iters=300, final_fit_tolerance=1e-5)
    res = run_aim(data, workload, cfg)
    err = workload_error(data, res.model, workload)
    nll = res.model.nll(hold)
    anchor_err, anchor_nll = 0.2, 19.3
    within = abs(err - anchor_err) / anchor_err <= 0.5
    print(
        f"ACCEPTANCE criterion-10 anchors: reported err={err:.3f} nll={nll:.2f} on the "
        f"bundled surrogate vs reference central anchors ({anchor_err}, {anchor_nll}); "
        f"err within +/-50%: {within} -- informational only, non-gating"
    )
    assert err >= 0 and nll >= 0
