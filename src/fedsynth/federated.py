"""Distributed and federated variants of the select-measure-estimate loop.

The distributed protocol pools secret-shared workload answers from sampled
clients across rounds and runs selection and measurement server-side on
the reconstructed aggregates.  The federated protocol moves selection and
measurement onto the clients, who run local steps against the broadcast
global model; their chosen marginals travel back through simulated secure
aggregation and receive a single central noise draw per unique query.

Client-local utility scores compare per-record-normalized marginals so
that client size does not dominate; the raw-count scoring of the central
loop is retained behind ``normalize_scores=False``.  Federated variants:

  naive    -- no skew correction,
  oracle   -- subtracts the exact client-vs-global marginal gap,
  private  -- subtracts a per-feature proxy built from noisy global
              one-way estimates, filters one-ways from local selection,
              and feeds every round's one-way aggregates back to the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import DiscreteDataset, MarginalQuery, evaluate_marginal, normalized_counts
from .model import Measurement, ModelState, component_bytes, fit, merged_components
from .partition import ClientPartition
from .privacy import (
    PrivacyAccountant,
    annealing_condition,
    anneal_step,
    central_schedule_init,
    exponential_cost,
    exponential_mechanism,
    final_round_adjust,
    final_round_triggered,
    flaim_schedule,
    gaussian_cost,
)
from .central import ROOT_2_OVER_PI, filter_by_size
from .rng import fork
from .secagg import CommsLedger, ShareAccumulator, secagg_round
from .workload import Workload, complete_workload

VARIANTS = ("naive", "oracle", "private")


@dataclass
class FedConfig:
    epsilon: float
    delta: float = 1e-9
    rounds: int | None = 10  # None selects budget annealing
    sample_rate: float = 0.1
    local_rounds: int = 1
    variant: str = "naive"  # federated only
    gauss_frac: float = 0.9
    max_model_size: int = 1 << 22
    parties: int = 3
    fit_iters: int = 100
    final_fit_iters: int = 1000
    fit_tolerance: float = 1e-4
    final_fit_tolerance: float = 1e-7
    max_cells: int = 1 << 26
    seed: int = 0
    normalize_scores: bool = True
    anneal_rounds_factor: int = 8
    # ablation/test hooks
    noiseless: bool = False
    force_zero_skew: bool = False
    plain_sensitivity: bool = False
    naive_weighting: bool = False

    def __post_init__(self):
        if not 0 < self.sample_rate <= 1:
            raise ValueError("sample_rate must lie in (0, 1]")
        if self.local_rounds < 1:
            raise ValueError("local_rounds must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class FedResult:
    model: ModelState
    accountant: PrivacyAccountant
    comms: CommsLedger
    rounds: list[dict] = field(default_factory=list)
    completed_workload: Workload | None = None


def oracle_heterogeneity(client_counts: np.ndarray, global_counts: np.ndarray) -> float:
    """Exact normalized L1 gap between client and global marginals."""
    return float(
        np.abs(normalized_counts(client_counts) - normalized_counts(global_counts)).sum()
    )


def heterogeneity_proxy(
    client_oneways: dict[int, np.ndarray],
    global_oneways: dict[int, np.ndarray],
    query: MarginalQuery,
) -> float:
    """Feature-level skew proxy: mean over the query's attributes of the L1
    gap between the client's exact normalized one-way and the (noisy)
    global estimate."""
    gaps = []
    for a in query.attrs:
        if a not in global_oneways:
            raise KeyError(f"no global one-way estimate for attribute {a}")
        gaps.append(
            float(np.abs(normalized_counts(client_oneways[a]) - normalized_counts(global_oneways[a])).sum())
        )
    return float(np.mean(gaps))


def _client_answers(
    data: DiscreteDataset, partition: ClientPartition, queries: list[MarginalQuery]
) -> list[dict[tuple[int, ...], np.ndarray]]:
    """Exact per-client counts of each query, as read-only integer rows.

    One ``bincount`` over ``client * cells + cell`` per query gives a
    (clients x cells) matrix; client ``k`` gets views of row ``k``.
    """
    n_clients = partition.n_clients
    matrices = {}
    for q in queries:
        shape = data.domain.shape(q.attrs)
        cells = np.ravel_multi_index(tuple(data.rows[:, a] for a in q.attrs), dims=shape)
        flat = np.bincount(
            partition.assignments * q.cardinality + cells, minlength=n_clients * q.cardinality
        )
        matrix = flat.astype(np.int32).reshape(n_clients, q.cardinality)
        matrix.flags.writeable = False
        matrices[q.attrs] = matrix
    return [{attrs: m[k] for attrs, m in matrices.items()} for k in range(n_clients)]


def _sample_participants(seed: int, round_index: int, n_clients: int, p: float) -> list[int]:
    rng = fork(seed, "sample", round_index)
    mask = rng.random(n_clients) < p
    return [int(k) for k in np.nonzero(mask)[0]]


def _normalized_model_answers(
    model: ModelState, workload: Workload, candidates: list[int]
) -> dict[int, np.ndarray]:
    return {
        i: normalized_counts(model.marginal_counts(workload.queries[i])) for i in candidates
    }


# ---------------------------------------------------------------------------
# distributed protocol


def run_distaim(
    data: DiscreteDataset,
    partition: ClientPartition,
    workload: Workload,
    config: FedConfig,
) -> FedResult:
    """Distributed loop over pooled secret-shared workload answers.

    Sampled clients contribute shares of every completed-workload answer
    exactly once; selection and measurement run on the running aggregate.
    """
    domain = data.domain
    completed = complete_workload(domain, workload)
    keys = [q.attrs for q in completed.queries]
    one_way_idx = [i for i, q in enumerate(completed.queries) if len(q) == 1]
    d_init = len(one_way_idx)
    n_global = data.n_records

    accountant = PrivacyAccountant.from_eps_delta(config.epsilon, config.delta)
    rho = accountant.rho_total
    fixed = config.rounds is not None
    if fixed:
        schedule = flaim_schedule(config.rounds, 1, d_init, rho, config.gauss_frac, "naive")
    else:
        schedule, _ = central_schedule_init(len(domain), rho, config.anneal_rounds_factor)

    answers = _client_answers(data, partition, list(completed.queries))
    sizes = partition.sizes()
    sensitivity = completed.max_weight()
    accumulator = ShareAccumulator(keys, parties=config.parties)
    ledger = CommsLedger()
    participated: set[int] = set()
    measurements: list[Measurement] = []
    model: ModelState | None = None
    rounds_log: list[dict] = []
    finishing = False

    executed = 0
    t = 0
    attempts_cap = 40 * (config.rounds or config.anneal_rounds_factor * len(domain)) + 400
    while t < attempts_cap:
        if fixed and executed >= config.rounds and model is not None:
            break
        if not fixed and model is not None and accountant.remaining <= 1e-15 * rho:
            break
        t += 1
        sampled = _sample_participants(config.seed, t, partition.n_clients, config.sample_rate)
        fresh = [k for k in sampled if k not in participated]
        for k in fresh:
            accumulator.add_client(answers[k], int(sizes[k]), ledger, k, t)
        participated.update(fresh)
        if not sampled or accumulator.n_contributors == 0:
            rounds_log.append({"t": t, "phase": "skipped", "participants": sampled})
            continue

        mass = accumulator.mass
        rescale = n_global / max(mass, 1.0)
        if model is None:
            # initialization: measure the completed workload's one-ways
            accountant.charge(
                d_init * gaussian_cost(schedule.sigma), "gaussian_init", t,
                sigma=schedule.sigma, count=d_init,
            )
            init_rng = fork(config.seed, "init")
            for i in one_way_idx:
                q = completed.queries[i]
                agg = accumulator.current(q.attrs)
                noisy = agg if config.noiseless else agg + init_rng.normal(0.0, schedule.sigma, q.cardinality)
                if config.normalize_scores:
                    noisy = noisy * rescale
                measurements.append(Measurement(t, q, noisy, schedule.sigma, 1.0 / schedule.sigma))
            model = fit(
                measurements, domain, iterations=config.fit_iters,
                tolerance=config.fit_tolerance, max_cells=config.max_cells,
            )
            rounds_log.append(
                {"t": t, "phase": "init", "participants": sampled,
                 "sigma": schedule.sigma, "rho_used": accountant.rho_used}
            )
            if not fixed and final_round_triggered(accountant.remaining, schedule):
                schedule = final_round_adjust(accountant.remaining, schedule)
                finishing = True
            continue

        candidates = filter_by_size(
            completed, model, accountant.rho_used, rho, config.max_model_size
        )
        scores = np.empty(len(candidates))
        for j, i in enumerate(candidates):
            q = completed.queries[i]
            agg = accumulator.current(q.attrs)
            if config.normalize_scores:
                gap = float(
                    np.abs(normalized_counts(agg) - normalized_counts(model.marginal_counts(q))).sum()
                )
                penalty = ROOT_2_OVER_PI * schedule.sigma * q.cardinality / max(mass, 1.0)
            else:
                gap = float(np.abs(agg - model.marginal_counts(q)).sum())
                penalty = ROOT_2_OVER_PI * schedule.sigma * q.cardinality
            scores[j] = completed.weights[i] * (gap - penalty)
        round_key = executed + 1  # rng path independent of skipped/init attempts
        accountant.charge(exponential_cost(schedule.eps), "exponential_select", t, eps=schedule.eps)
        if config.noiseless:
            pick = int(np.argmax(scores))
        else:
            pick = exponential_mechanism(
                scores, schedule.eps, sensitivity, fork(config.seed, "select", round_key)
            )
        chosen = completed.queries[candidates[pick]]

        accountant.charge(gaussian_cost(schedule.sigma), "gaussian_measure", t, sigma=schedule.sigma)
        agg = accumulator.current(chosen.attrs)
        noisy = (
            agg
            if config.noiseless
            else agg
            + fork(config.seed, "measure", round_key).normal(0.0, schedule.sigma, chosen.cardinality)
        )
        if config.normalize_scores:
            noisy = noisy * rescale
        measurements.append(Measurement(t, chosen, noisy, schedule.sigma, 1.0 / schedule.sigma))
        previous_answer = model.marginal_counts(chosen)
        model = fit(
            measurements, domain, iterations=config.fit_iters,
            tolerance=config.fit_tolerance, warm_start=model, max_cells=config.max_cells,
        )
        executed += 1
        change = float(np.abs(model.marginal_counts(chosen) - previous_answer).sum())
        rounds_log.append(
            {"t": t, "phase": "round", "participants": sampled, "query": list(chosen.attrs),
             "sigma": schedule.sigma, "eps": schedule.eps, "rho_used": accountant.rho_used,
             "mass": mass, "final": finishing}
        )
        if not fixed:
            if finishing:
                break
            effective_sigma = schedule.sigma * (rescale if config.normalize_scores else 1.0)
            if annealing_condition(change, effective_sigma, chosen.cardinality):
                schedule = anneal_step(schedule, True)
                rounds_log[-1]["annealed"] = True
            if final_round_triggered(accountant.remaining, schedule):
                schedule = final_round_adjust(accountant.remaining, schedule)
                finishing = True

    if model is None:
        raise RuntimeError("no clients ever participated; cannot initialize the model")
    model = fit(
        measurements, domain, iterations=config.final_fit_iters,
        tolerance=config.final_fit_tolerance, warm_start=model, max_cells=config.max_cells,
    )
    return FedResult(model, accountant, ledger, rounds_log, completed)


# ---------------------------------------------------------------------------
# federated protocol


def _local_utilities(
    client: dict[tuple[int, ...], np.ndarray],
    model_answers: dict[int, np.ndarray],
    workload: Workload,
    candidates: list[int],
    sigma: float,
    client_size: int,
    skew: dict[int, float],
    normalize: bool,
) -> np.ndarray:
    scores = np.empty(len(candidates))
    for j, i in enumerate(candidates):
        q = workload.queries[i]
        counts = client[q.attrs]
        if normalize:
            gap = float(np.abs(normalized_counts(counts) - model_answers[i]).sum())
            penalty = ROOT_2_OVER_PI * sigma * q.cardinality / max(client_size, 1)
        else:
            gap = float(np.abs(counts - model_answers[i]).sum())
            penalty = ROOT_2_OVER_PI * sigma * q.cardinality
        scores[j] = workload.weights[i] * (gap - penalty - skew.get(i, 0.0))
    return scores


def run_flaim(
    data: DiscreteDataset,
    partition: ClientPartition,
    workload: Workload,
    config: FedConfig,
) -> FedResult:
    """Federated loop with client-local selection and measurement."""
    domain = data.domain
    d = len(domain)
    variant = config.variant
    completed = complete_workload(domain, workload)
    one_ways = [MarginalQuery.make(domain, (a,)) for a in range(d)]
    n_global = data.n_records

    accountant = PrivacyAccountant.from_eps_delta(config.epsilon, config.delta)
    rho = accountant.rho_total
    fixed = config.rounds is not None
    if fixed:
        schedule = flaim_schedule(
            config.rounds, config.local_rounds, d, rho, config.gauss_frac,
            "private" if variant == "private" else "naive",
        )
    else:
        schedule, _ = central_schedule_init(d, rho, config.anneal_rounds_factor)

    all_queries = list(completed.queries) + [q for q in one_ways if q.attrs not in {c.attrs for c in completed.queries}]
    answers = _client_answers(data, partition, all_queries)
    sizes = partition.sizes()
    global_answers = {q.attrs: evaluate_marginal(data, q).counts for q in all_queries}
    base_sensitivity = completed.max_weight()
    augmented = variant in ("oracle", "private") and not config.plain_sensitivity
    sensitivity = (2.0 if augmented else 1.0) * base_sensitivity

    ledger = CommsLedger()
    measurements: list[Measurement] = []
    rounds_log: list[dict] = []
    oneway_estimates: dict[int, np.ndarray] = {}  # private proxy cache
    oracle_skew_cache: dict[int, dict[int, float]] = {}  # static per client
    s = config.local_rounds
    gauss_per_round = s + d if variant == "private" else s
    finishing = False

    def measure_aggregate(
        query: MarginalQuery, contributors: list[int], t: int, tag, protocol: str
    ) -> Measurement:
        vectors = [answers[k][query.attrs] for k in contributors]
        sigma = 0.0 if config.noiseless else schedule.sigma
        agg = secagg_round(
            vectors, sigma, fork(config.seed, "aggmeasure", t, *tag), ledger,
            clients=contributors, round_index=t, protocol=protocol,
        )
        true_size = float(sum(int(sizes[k]) for k in contributors))
        noisy_size = max(float(agg.sum()), 1.0)
        weighting = "naive" if config.naive_weighting else variant
        if weighting == "oracle":
            weight = true_size / schedule.sigma
        elif weighting == "private":
            weight = noisy_size / schedule.sigma
        else:
            weight = 1.0 / schedule.sigma
        # mass normalization: the private variant self-estimates contributor
        # mass from the noisy cells; the others may treat sizes as public
        size_est = noisy_size if weighting == "private" else true_size
        scaled = agg * (n_global / max(size_est, 1.0)) if config.normalize_scores else agg
        return Measurement(t, query, scaled, schedule.sigma, weight)

    # initialization round for variants that do not refresh one-ways each round
    model: ModelState | None = None
    if variant == "private":
        model = ModelState.uniform(domain, total=float(n_global))
    else:
        participants: list[int] = []
        for attempt in range(1000):
            rng = fork(config.seed, "sample-init", attempt)
            mask = rng.random(partition.n_clients) < config.sample_rate
            participants = [int(k) for k in np.nonzero(mask)[0]]
            if participants:
                break
        if not participants:
            raise RuntimeError("no clients ever sampled for initialization")
        accountant.charge(
            d * gaussian_cost(schedule.sigma), "gaussian_init", 0, sigma=schedule.sigma, count=d
        )
        for q in one_ways:
            measurements.append(measure_aggregate(q, participants, 0, ("init", q.attrs[0]), "flaim-init"))
        model = fit(
            measurements, domain, iterations=config.fit_iters,
            tolerance=config.fit_tolerance, max_cells=config.max_cells, total=float(n_global),
        )
        rounds_log.append(
            {"t": 0, "phase": "init", "participants": participants,
             "sigma": schedule.sigma, "eps": schedule.eps, "rho_used": accountant.rho_used}
        )
        if not fixed and final_round_triggered(
            accountant.remaining, schedule, gauss_per_round, s
        ):
            schedule = final_round_adjust(accountant.remaining, schedule, gauss_per_round, s)
            finishing = True

    t = 0
    hard_cap = 40 * d + 400
    while True:
        if fixed:
            if t >= config.rounds:
                break
        elif accountant.remaining <= 1e-15 * rho or t >= hard_cap:
            break
        t += 1
        participants = _sample_participants(config.seed, t, partition.n_clients, config.sample_rate)
        if not participants:
            rounds_log.append({"t": t, "phase": "skipped", "participants": []})
            continue

        pool = [
            i for i, q in enumerate(completed.queries)
            if not (variant == "private" and len(q) == 1)
        ]
        limit = (accountant.rho_used / rho) * config.max_model_size
        sizes_b = {i: model.size_bytes(completed.queries[i]) for i in pool}
        candidates = [i for i in pool if sizes_b[i] <= limit]
        if not candidates:
            candidates = [min(pool, key=lambda i: sizes_b[i])]
        model_answers = (
            _normalized_model_answers(model, completed, candidates)
            if config.normalize_scores
            else {i: model.marginal_counts(completed.queries[i]) for i in candidates}
        )
        model_oneways = {a: model.marginal_counts(q) for a, q in enumerate(one_ways)}

        accountant.charge(
            s * exponential_cost(schedule.eps), "exponential_select", t, eps=schedule.eps, count=s
        )
        accountant.charge(
            gauss_per_round * gaussian_cost(schedule.sigma), "gaussian_measure", t,
            sigma=schedule.sigma, count=gauss_per_round,
        )

        selected: dict[tuple[int, ...], list[int]] = {}
        skew_log: dict[int, dict] = {}
        for k in participants:
            client = answers[k]
            skew: dict[int, float] = {}
            if not config.force_zero_skew:
                if variant == "oracle":
                    cached = oracle_skew_cache.get(k)
                    if cached is None:
                        cached = {
                            i: oracle_heterogeneity(client[q.attrs], global_answers[q.attrs])
                            for i, q in enumerate(completed.queries)
                        }
                        oracle_skew_cache[k] = cached
                    for i in candidates:
                        skew[i] = cached[i]
                elif variant == "private":
                    reference = {
                        a: oneway_estimates.get(a, model_oneways[a]) for a in range(d)
                    }
                    client_oneways = {a: client[(a,)] for a in range(d)}
                    for i in candidates:
                        skew[i] = heterogeneity_proxy(
                            client_oneways, reference, completed.queries[i]
                        )
            skew_log[k] = {"mean_skew": float(np.mean(list(skew.values()))) if skew else 0.0}

            local_measurements: list[Measurement] = []
            local_model = model
            local_answers = model_answers
            chosen_here: list[MarginalQuery] = []
            for l in range(s):
                step_candidates = candidates
                if l > 0:
                    # local measurements may already have grown the model
                    local_sizes = {
                        i: local_model.size_bytes(completed.queries[i]) for i in candidates
                    }
                    step_candidates = [i for i in candidates if local_sizes[i] <= limit]
                    if not step_candidates:
                        step_candidates = [min(candidates, key=lambda i: local_sizes[i])]
                scores = _local_utilities(
                    client, local_answers, completed, step_candidates, schedule.sigma,
                    int(sizes[k]), skew, config.normalize_scores,
                )
                if config.noiseless:
                    pick = int(np.argmax(scores))
                else:
                    pick = exponential_mechanism(
                        scores, schedule.eps, sensitivity, fork(config.seed, "select", t, k, l)
                    )
                q = completed.queries[step_candidates[pick]]
                chosen_here.append(q)
                if l + 1 < s:
                    # local model update from the client's own noisy measurement
                    noise_rng = fork(config.seed, "localmeasure", t, k, l)
                    noisy = client[q.attrs] + (
                        0.0 if config.noiseless else noise_rng.normal(0.0, schedule.sigma, q.cardinality)
                    )
                    scale = n_global / max(int(sizes[k]), 1) if config.normalize_scores else 1.0
                    local_measurements.append(
                        Measurement(t, q, noisy * scale, schedule.sigma, 1.0 / schedule.sigma)
                    )
                    local_model = fit(
                        measurements + local_measurements, domain,
                        iterations=config.fit_iters, tolerance=config.fit_tolerance,
                        warm_start=local_model, max_cells=config.max_cells,
                        total=float(n_global),
                    )
                    local_answers = (
                        _normalized_model_answers(local_model, completed, candidates)
                        if config.normalize_scores
                        else {i: local_model.marginal_counts(completed.queries[i]) for i in candidates}
                    )
            for q in chosen_here:
                selected.setdefault(q.attrs, []).append(k)

        # server-side admission: each selection fit the size cap on its own,
        # but chained merges across clients could not be foreseen locally, so
        # queries are admitted in deterministic order against the same limit
        by_attrs = {q.attrs: q for q in completed.queries}
        admitted: list[tuple[int, ...]] = []
        rejected: list[tuple[int, ...]] = []
        current_comps = list(model.measured_components)
        for attrs in sorted(selected):
            merged = merged_components(current_comps, attrs)
            if admitted and component_bytes(domain, merged) > max(limit, 0.0):
                rejected.append(attrs)
                continue
            admitted.append(attrs)
            current_comps = merged
        for attrs in admitted:
            contributors = sorted(set(selected[attrs]))
            measurements.append(
                measure_aggregate(by_attrs[attrs], contributors, t, ("sel",) + attrs, "flaim")
            )
        if variant == "private":
            for a in range(d):
                m = measure_aggregate(one_ways[a], participants, t, ("oneway", a), "flaim-oneway")
                measurements.append(m)
                oneway_estimates[a] = normalized_counts(m.noisy_counts)

        previous = {attrs: model.marginal_counts(by_attrs[attrs]) for attrs in admitted}
        model = fit(
            measurements, domain, iterations=config.fit_iters,
            tolerance=config.fit_tolerance, warm_start=model, max_cells=config.max_cells,
        )
        rounds_log.append(
            {"t": t, "phase": "round", "participants": participants,
             "selected": sorted(list(a) for a in admitted),
             "rejected": sorted(list(a) for a in rejected),
             "skews": skew_log, "sigma": schedule.sigma, "eps": schedule.eps,
             "rho_used": accountant.rho_used, "final": finishing}
        )
        if not fixed:
            if finishing:
                break
            passed = False
            for attrs, prev_counts in previous.items():
                q = by_attrs[attrs]
                change = float(np.abs(model.marginal_counts(q) - prev_counts).sum())
                if annealing_condition(change, schedule.sigma, q.cardinality):
                    passed = True
                    break
            if passed:
                schedule = anneal_step(schedule, True)
                rounds_log[-1]["annealed"] = True
            if final_round_triggered(accountant.remaining, schedule, gauss_per_round, s):
                schedule = final_round_adjust(
                    accountant.remaining, schedule, gauss_per_round, s
                )
                finishing = True

    model = fit(
        measurements, domain, iterations=config.final_fit_iters,
        tolerance=config.final_fit_tolerance, warm_start=model, max_cells=config.max_cells,
    )
    return FedResult(model, accountant, ledger, rounds_log, completed)
