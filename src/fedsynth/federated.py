"""Distributed and federated variants of the select-measure-estimate loop.

Both run on ``central.Loop``, which owns the schedule, the fits, annealing
and the round log; this module supplies how each protocol initializes and
who selects and measures in a round.

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

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .central import AimConfig, AimLoop, Loop, filter_by_size
from .central import _aim_utilities as _local_utilities  # kept by name; perfbench traces client scoring here
from .domain import DiscreteDataset, MarginalQuery, normalized_counts
from .model import Measurement, ModelState, component_bytes, merged_components
from .model import fit  # noqa: F401  (kept as a module attribute; perfbench patches it here)
from .partition import ClientPartition, client_counts, client_query_skew
from .partition import client_query_skew as oracle_heterogeneity  # the oracle variant's exact skew
from .privacy import PrivacyAccountant, exponential_cost, gaussian_cost
from .rng import fork
from .secagg import CommsLedger, ShareAccumulator, secagg_round
from .workload import Workload, complete_workload

VARIANTS = ("naive", "oracle", "private")
_NO_SKEW = {"mean_skew": 0.0}  # the naive variant's round-log entry, shared by every participant; never mutated


@dataclass
class FedConfig(AimConfig):
    rounds: int | None = 10  # None selects budget annealing
    sample_rate: float = 0.1
    local_rounds: int = 1
    variant: str = "naive"  # federated only
    parties: int = 3
    normalize_scores: bool = True

    def __post_init__(self):
        super().__post_init__()
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


def heterogeneity_proxy(
    client_oneways: dict[int, np.ndarray],
    global_oneways: dict[int, np.ndarray],
    query: MarginalQuery,
) -> float | np.ndarray:
    """Feature-level skew proxy: mean over the query's attributes of the L1
    gap between the client's exact normalized one-way and the (noisy)
    global estimate.  One-ways given as (clients x cells) rows give one
    value per client."""
    gaps = []
    for a in query.attrs:
        if a not in global_oneways:
            raise KeyError(f"no global one-way estimate for attribute {a}")
        gaps.append(client_query_skew(client_oneways[a], global_oneways[a]))
    return np.mean(np.stack(gaps), axis=0)


def _client_answers(
    data: DiscreteDataset, partition: ClientPartition, queries: list[MarginalQuery]
) -> dict[tuple[int, ...], np.ndarray]:
    """Exact per-client counts of each query, as one read-only (clients x
    cells) matrix per query; row ``k`` is client ``k``'s.  A count never
    exceeds its client's size, so the matrices are int16 (half of int32's
    memory) unless some client holds more rows than int16 can count."""
    dtype = np.int16 if partition.sizes().max(initial=0) <= np.iinfo(np.int16).max else np.int32
    answers = {}
    for q in queries:
        matrix = client_counts(data, partition, q).astype(dtype)
        matrix.flags.writeable = False
        answers[q.attrs] = matrix
    return answers


def _sample_participants(config: FedConfig, partition: ClientPartition, *path) -> list[int]:
    mask = fork(config.seed, *path).random(partition.n_clients) < config.sample_rate
    return list(compress(partition.client_ids, mask))


# ---------------------------------------------------------------------------
# distributed protocol


class _DistAimLoop(AimLoop):
    """Sampled clients contribute shares of every completed-workload answer
    exactly once; selection and measurement run on the running aggregate.
    A round nobody joins is retried, and the first round with contributors
    initializes the model."""

    retries_empty = True
    anneal_rounds_factor = 8

    def __init__(self, data, partition, completed, config):
        self.one_ways = [q for q in completed.queries if len(q) == 1]
        attempts = config.rounds or self.anneal_rounds_factor * len(data.domain)
        super().__init__(data, completed, config, n_init=len(self.one_ways), cap=40 * attempts + 400)
        self.partition = partition
        self.answers = _client_answers(data, partition, list(completed.queries))
        self.sizes = partition.sizes()
        self.accumulator = ShareAccumulator([q.attrs for q in completed.queries], parties=config.parties)
        self.ledger = CommsLedger()
        self.participated: set[int] = set()

    def answer(self, attrs: tuple[int, ...]) -> np.ndarray:
        return self.accumulator.current(attrs)

    def join(self) -> list[int]:
        """Sample this attempt's clients; first-timers pool their answers
        as one block."""
        cfg = self.config
        sampled = _sample_participants(cfg, self.partition, "sample", self.t)
        fresh = [k for k in sampled if k not in self.participated]
        if fresh:
            answers = {attrs: matrix[fresh] for attrs, matrix in self.answers.items()}
            self.accumulator.add_client(answers, self.sizes[fresh], self.ledger, fresh, self.t)
            self.participated.update(fresh)
        if cfg.normalize_scores:
            self.mass = self.accumulator.mass
        return sampled

    def initialize(self) -> ModelState:
        while self.t < self.cap:
            self.t += 1
            sampled = self.join()
            if sampled:
                break
            self.rounds.append({"t": self.t, "phase": "skipped", "participants": []})
        else:
            raise RuntimeError("no clients ever participated; cannot initialize the model")
        rng = fork(self.config.seed, "init")
        model = self.measure_init(
            self.one_ways, lambda q: self.release(q, self.noised(self.answer(q.attrs), rng), self.mass)
        )
        self.rounds.append(
            {"t": self.t, "phase": "init", "participants": sampled,
             "sigma": self.schedule.sigma, "rho_used": self.accountant.rho_used}
        )
        return model

    def step(self) -> tuple[dict, list[MarginalQuery]] | None:
        sampled = self.join()
        if not sampled:
            return None
        chosen, _ = self.select_and_measure()
        fields = {"phase": "round", "participants": sampled, "query": list(chosen.attrs),
                  "mass": self.accumulator.mass}
        return fields, [chosen]


def run_distaim(
    data: DiscreteDataset,
    partition: ClientPartition,
    workload: Workload,
    config: FedConfig,
) -> FedResult:
    """Distributed loop over pooled secret-shared workload answers."""
    completed = complete_workload(data.domain, workload)
    loop = _DistAimLoop(data, partition, completed, config)
    model = loop.run()
    return FedResult(model, loop.accountant, loop.ledger, loop.rounds, completed)


# ---------------------------------------------------------------------------
# federated protocol


class _FlaimLoop(Loop):
    """Clients select (and, with several local rounds, measure) locally
    against the broadcast model; the server admits their selections under
    the size cap and measures each through secure aggregation.  A round
    nobody joins is forfeited; the private variant starts from a uniform
    model and refreshes every one-way each round."""

    anneal_rounds_factor = 8

    def __init__(self, data, partition, completed, config):
        d = len(data.domain)
        self.private = config.variant == "private"
        if self.private and all(len(q) == 1 for q in completed.queries):
            raise ValueError(
                "flaim-private selects only queries of two or more attributes, "
                "and the completed workload has none"
            )
        s = config.local_rounds
        # the private variant measures no init one-ways but refreshes all d each round
        self.gauss_per_round = s + d if self.private else s
        self.exp_per_round = s
        cap = math.inf if config.rounds is not None else 40 * d + 400
        super().__init__(data, completed, config, n_init=0 if self.private else d, cap=cap)
        self.partition = partition
        self.one_ways = [MarginalQuery.make(data.domain, (a,)) for a in range(d)]
        known = {q.attrs for q in completed.queries}
        all_queries = list(completed.queries) + [q for q in self.one_ways if q.attrs not in known]
        self.answers = _client_answers(data, partition, all_queries)
        self.sizes = partition.sizes()
        if config.variant == "oracle":  # (clients x queries) exact skew, fixed for the run
            self.oracle_skew = np.stack([
                oracle_heterogeneity(self.answers[q.attrs], self.answers[q.attrs].sum(axis=0))
                for q in completed.queries
            ], axis=1)
        if config.variant in ("oracle", "private"):
            self.sensitivity *= 2.0
        self.ledger = CommsLedger()
        self.oneway_estimates: dict[int, np.ndarray] = {}  # private proxy cache
        self.by_attrs = {q.attrs: q for q in completed.queries}
        self.unmeasured: list[list[int]] = []  # this round's queries left unmeasured

    def measure_aggregate(
        self, query: MarginalQuery, contributors: list[int], tag, protocol: str
    ) -> Measurement | None:
        """The contributors' securely aggregated answers to ``query``, noised
        once centrally; ``None`` (the query is noted in ``unmeasured``) when
        weights come from public sizes and every contributor holds no rows,
        so the measurement would carry no weight."""
        cfg, t = self.config, self.t
        # contributor mass: the private variant self-estimates it from the
        # noisy cells; the others may treat sizes as public.  It weights the
        # measurement (except for the naive variant) and normalizes its scale.
        if not self.private:
            size_est = float(sum(int(self.sizes[k]) for k in contributors))
            if cfg.variant == "oracle" and size_est == 0:
                self.unmeasured.append(list(query.attrs))
                return None
        total = secagg_round(
            self.answers[query.attrs][contributors], self.ledger,
            clients=contributors, round_index=t, protocol=protocol,
        )
        noisy = self.noised(total, fork(cfg.seed, "aggmeasure", t, *tag))
        if self.private:
            size_est = max(float(noisy.sum()), 1.0)
        weight = 1.0 if cfg.variant == "naive" else size_est
        return self.release(query, noisy, size_est if cfg.normalize_scores else None, weight)

    def initialize(self) -> ModelState:
        if self.private:
            return ModelState.uniform(self.domain, total=float(self.data.n_records))
        for attempt in range(1000):
            participants = _sample_participants(self.config, self.partition, "sample-init", attempt)
            if participants:
                break
        else:
            raise RuntimeError("no clients ever sampled for initialization")
        model = self.measure_init(
            self.one_ways,
            lambda q: self.measure_aggregate(q, participants, ("init", q.attrs[0]), "flaim-init"),
            total=float(self.data.n_records),
        )
        self.rounds.append(
            {"t": 0, "phase": "init", "participants": participants,
             "sigma": self.schedule.sigma, "eps": self.schedule.eps, "rho_used": self.accountant.rho_used,
             **self.take_unmeasured()}
        )
        return model

    def take_unmeasured(self) -> dict:
        """The round-log field ``unmeasured``, present only when non-empty."""
        unmeasured, self.unmeasured = self.unmeasured, []
        return {"unmeasured": unmeasured} if unmeasured else {}

    def candidate_skew(self, participants: list[int], candidates: list[int]) -> np.ndarray | None:
        """(participants x candidates) skew penalties; ``None`` for the naive variant."""
        if self.config.variant == "oracle":
            return self.oracle_skew[np.ix_(participants, candidates)]
        if not self.private:
            return None
        reference = {
            a: self.oneway_estimates[a] if a in self.oneway_estimates else self.model.marginal_counts(q)
            for a, q in enumerate(self.one_ways)
        }
        client_oneways = {a: self.answers[(a,)][participants] for a in reference}
        return np.stack([
            heterogeneity_proxy(client_oneways, reference, self.completed.queries[i]) for i in candidates
        ], axis=1)

    def local_selections(
        self, k: int, candidates: list[int], scores: np.ndarray, skew: np.ndarray | None, limit: float,
    ) -> list[MarginalQuery]:
        """Client ``k``'s local rounds, the first on its row of the round's
        ``scores`` (``skew`` is its row of penalties) and all under the
        round's size ``limit``; each but the last measures its pick with the
        client's own noise and refits a local model."""
        cfg, sigma, completed = self.config, self.schedule.sigma, self.completed
        mass = int(self.sizes[k]) if cfg.normalize_scores else None
        local_measurements: list[Measurement] = []
        local_model = self.model
        chosen: list[MarginalQuery] = []
        step_candidates = candidates
        for l in range(cfg.local_rounds):
            if l > 0:  # local measurements may already have grown the model
                step_candidates = filter_by_size(completed, local_model, limit, candidates)
                scores = _local_utilities(
                    lambda attrs: self.answers[attrs][k], local_model, completed, step_candidates, sigma, mass,
                    None if skew is None else skew[[candidates.index(i) for i in step_candidates]],
                )
            q = completed.queries[step_candidates[self.select(scores, self.t, k, l)]]
            chosen.append(q)
            if l + 1 < cfg.local_rounds:
                noisy = self.noised(self.answers[q.attrs][k], fork(cfg.seed, "localmeasure", self.t, k, l))
                local_measurements.append(self.release(q, noisy, mass))
                local_model = self.refit(
                    local_model, self.measurements + local_measurements, float(self.data.n_records)
                )
        return chosen

    def step(self) -> tuple[dict, list[MarginalQuery]] | None:
        cfg, completed, model = self.config, self.completed, self.model
        participants = _sample_participants(cfg, self.partition, "sample", self.t)
        if not participants:
            return None
        limit = self.size_limit()
        pool = [i for i, q in enumerate(completed.queries) if not (self.private and len(q) == 1)]
        candidates = filter_by_size(completed, model, limit, pool)
        n_exp, sigma, eps = self.exp_per_round, self.schedule.sigma, self.schedule.eps
        self.accountant.charge(n_exp * exponential_cost(eps), "exponential_select", self.t, eps=eps, count=n_exp)
        self.accountant.charge(
            self.gauss_per_round * gaussian_cost(sigma), "gaussian_measure", self.t,
            sigma=sigma, count=self.gauss_per_round,
        )

        # every participant's first local scores in one pass over its rows
        skew = self.candidate_skew(participants, candidates)
        scores = _local_utilities(
            lambda attrs: self.answers[attrs][participants], model, completed, candidates, sigma,
            self.sizes[participants] if cfg.normalize_scores else None, skew,
        )
        if skew is None:
            skew_log = dict.fromkeys(participants, _NO_SKEW)
        else:
            skew_log = {k: {"mean_skew": m} for k, m in zip(participants, skew.mean(axis=1).tolist())}
        selected: dict[tuple[int, ...], list[int]] = {}
        for row, k in enumerate(participants):
            skew_row = None if skew is None else skew[row]
            for q in self.local_selections(k, candidates, scores[row], skew_row, limit):
                selected.setdefault(q.attrs, []).append(k)

        # server-side admission: each selection fit the size cap on its own,
        # but chained merges across clients could not be foreseen locally, so
        # queries are admitted in deterministic order against the same limit
        admitted: list[tuple[int, ...]] = []
        rejected: list[tuple[int, ...]] = []
        current_comps = list(model.measured_components)
        for attrs in sorted(selected):
            merged = merged_components(current_comps, attrs)
            if admitted and component_bytes(self.domain, merged) > limit:
                rejected.append(attrs)
                continue
            admitted.append(attrs)
            current_comps = merged
        measured = []
        for attrs in admitted:
            contributors = sorted(set(selected[attrs]))
            m = self.measure_aggregate(self.by_attrs[attrs], contributors, ("sel",) + attrs, "flaim")
            if m is not None:
                self.measurements.append(m)
                measured.append(m.query)
        if self.private:
            for a, q in enumerate(self.one_ways):
                m = self.measure_aggregate(q, participants, ("oneway", a), "flaim-oneway")
                self.measurements.append(m)
                self.oneway_estimates[a] = normalized_counts(m.noisy_counts)
        fields = {"phase": "round", "participants": participants,
                  "selected": sorted(list(a) for a in admitted),
                  "rejected": sorted(list(a) for a in rejected), "skews": skew_log,
                  **self.take_unmeasured()}
        return fields, measured


def run_flaim(
    data: DiscreteDataset,
    partition: ClientPartition,
    workload: Workload,
    config: FedConfig,
) -> FedResult:
    """Federated loop with client-local selection and measurement."""
    completed = complete_workload(data.domain, workload)
    loop = _FlaimLoop(data, partition, completed, config)
    model = loop.run()
    return FedResult(model, loop.accountant, loop.ledger, loop.rounds, completed)
