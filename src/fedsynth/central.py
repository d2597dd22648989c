"""Central select-measure-estimate synthesis loop (reference implementation).

Each round the worst-approximated workload query is chosen by the
exponential mechanism, measured under Gaussian noise, and folded into the
maximum-entropy model.  The loop either runs a fixed number of rounds on a
constant schedule that consumes the budget exactly, or adapts the round
count by budget annealing with a final-round adjustment.

``Loop`` runs that control flow for AIM, DistAIM and FLAIM alike; a
protocol supplies only its initialization and one round's selection and
measurement.  ``AimLoop`` selects and measures on the server, over exact
answers here and over pooled client answers in ``federated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import DiscreteDataset, MarginalQuery, evaluate_marginal, normalized_counts
from .model import Measurement, ModelState, fit
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
    gaussian_mechanism,
)
from .rng import fork
from .workload import Workload, complete_workload

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)
FIT_TOLERANCE = 1e-4  # relative-decrease tolerance of the per-round fits


@dataclass
class AimConfig:
    epsilon: float
    delta: float = 1e-9
    max_model_size: int = 1 << 22  # bytes
    rounds: int | None = None  # fixed round count; None selects annealing
    gauss_frac: float = 0.9
    fit_iters: int = 100
    final_fit_iters: int = 1000
    final_fit_tolerance: float = 1e-7
    seed: int = 0
    noiseless: bool = False  # test hook: exact measurements, argmax selection


@dataclass
class AimResult:
    model: ModelState
    accountant: PrivacyAccountant
    rounds: list[dict] = field(default_factory=list)
    completed_workload: Workload | None = None


def filter_by_size(
    workload: Workload,
    model: ModelState,
    rho_used: float,
    rho_total: float,
    max_model_size: int,
    pool: list[int] | None = None,
) -> list[int]:
    """Indices of queries (of ``pool``, default all) whose hypothetical
    model stays within the budgeted share of the size cap; falls back to the
    single smallest candidate so a selection step always has one."""
    limit = (rho_used / rho_total) * max_model_size
    if pool is None:
        pool = list(range(len(workload.queries)))
    sizes = {i: model.size_bytes(workload.queries[i]) for i in pool}
    admitted = [i for i in pool if sizes[i] <= limit]
    if not admitted:
        admitted = [min(pool, key=sizes.__getitem__)]
    return admitted


def _model_answers(
    model: ModelState, workload: Workload, candidates: list[int], normalize: bool
) -> dict[int, np.ndarray]:
    """The model's answer to each candidate, per record with ``normalize``."""
    answers = {i: model.marginal_counts(workload.queries[i]) for i in candidates}
    return {i: normalized_counts(a) for i, a in answers.items()} if normalize else answers


def _aim_utilities(
    answer: Callable[[tuple[int, ...]], np.ndarray],
    model_answers: dict[int, np.ndarray],
    workload: Workload,
    candidates: list[int],
    sigma: float,
    mass: float | None = None,
    skew: dict[int, float] | None = None,
) -> np.ndarray:
    """AIM's quality score of each candidate: the weighted L1 gap between
    its answer and the model's, less the expected noise and the candidate's
    ``skew`` penalty.  With ``mass``, gaps compare per-record frequencies
    (``model_answers`` must be normalized too) and the noise term is divided
    by the mass, floored at 1."""
    skew = skew or {}
    scores = np.empty(len(candidates))
    for j, i in enumerate(candidates):
        q = workload.queries[i]
        counts = answer(q.attrs)
        penalty = ROOT_2_OVER_PI * sigma * q.cardinality
        if mass is not None:
            counts = normalized_counts(counts)
            penalty /= max(mass, 1.0)
        gap = float(np.abs(counts - model_answers[i]).sum())
        scores[j] = workload.weights[i] * (gap - penalty - skew.get(i, 0.0))
    return scores


class Loop:
    """The select-measure-estimate loop shared by AIM, DistAIM and FLAIM.

    The loop owns the noise schedule, the stopping rule, the warm-started
    fit after each round, the annealing check, the final-round budget
    adjustment, the round-log fields every protocol writes and the final
    fit.  A protocol supplies ``initialize`` (its first measurements and
    model) and ``step`` (one round's selections and measurements, returning
    the round's own log fields and the queries it measured, or ``None`` when
    nobody was sampled).  A fixed schedule budgets for ``n_init`` one-way
    measurements and ``local_rounds`` selections a round; ``cap`` bounds the
    attempted rounds.
    """

    retries_empty = False  # whether a round nobody joined is retried instead of counted
    gauss_per_round = exp_per_round = 1
    anneal_rounds_factor = 16  # an annealing start budgets for this many rounds per attribute

    def __init__(self, data: DiscreteDataset, completed: Workload, config: AimConfig, n_init: int,
                 cap: float, local_rounds: int = 1, mode: str = "naive"):
        self.data = data
        self.domain = data.domain
        self.completed = completed
        self.config = config
        self.cap = cap
        self.accountant = PrivacyAccountant.from_eps_delta(config.epsilon, config.delta)
        self.rho = self.accountant.rho_total
        self.fixed = config.rounds is not None
        if self.fixed:
            self.schedule = flaim_schedule(config.rounds, local_rounds, n_init, self.rho, config.gauss_frac, mode)
        else:
            self.schedule = central_schedule_init(len(self.domain), self.rho, self.anneal_rounds_factor)
        self.sensitivity = completed.max_weight()
        self.measurements: list[Measurement] = []
        self.rounds: list[dict] = []
        self.model: ModelState | None = None
        self.t = 0  # attempted rounds; charges and log entries carry it
        self.spent = 0  # rounds counted against ``config.rounds``
        self.finishing = False

    def initialize(self) -> ModelState:
        raise NotImplementedError

    def step(self) -> tuple[dict, list[MarginalQuery]] | None:
        raise NotImplementedError

    def refit(self, warm_start: ModelState | None = None, measurements: list[Measurement] | None = None,
              total: float | None = None, final: bool = False) -> ModelState:
        """Fit ``measurements`` (default: all so far) with the per-round or the final settings."""
        cfg = self.config
        return fit(
            self.measurements if measurements is None else measurements, self.domain,
            iterations=cfg.final_fit_iters if final else cfg.fit_iters,
            tolerance=cfg.final_fit_tolerance if final else FIT_TOLERANCE,
            total=total, warm_start=warm_start,
        )

    def measure(self, query: MarginalQuery, counts: np.ndarray, rng, scale: float = 1.0) -> Measurement:
        """Gaussian measurement of ``counts`` at the round's sigma, times ``scale``."""
        sigma = self.schedule.sigma
        noisy = counts if self.config.noiseless else gaussian_mechanism(counts, sigma, rng)
        return Measurement(self.t, query, noisy * scale, sigma, 1.0 / sigma)

    def measure_init(self, one_ways: list[MarginalQuery], measure, total: float | None = None) -> ModelState:
        """Measure every one-way with ``measure`` (``None`` leaves one
        unmeasured) and fit the first model."""
        sigma = self.schedule.sigma
        self.accountant.charge(
            len(one_ways) * gaussian_cost(sigma), "gaussian_init", self.t, sigma=sigma, count=len(one_ways)
        )
        self.measurements += [m for m in map(measure, one_ways) if m is not None]
        return self.refit(total=total)

    def annealing_sigma(self) -> float:
        """Noise scale the annealing check compares model movement against."""
        return self.schedule.sigma

    def schedule_final_round(self) -> None:
        """Under annealing, switch to parameters that spend the rest of the
        budget in one round once less than two rounds' worth remains."""
        remaining = self.accountant.remaining
        counts = (self.gauss_per_round, self.exp_per_round)
        if not self.fixed and final_round_triggered(remaining, self.schedule, *counts):
            self.schedule = final_round_adjust(remaining, *counts)
            self.finishing = True

    def stopped(self) -> bool:
        if self.t >= self.cap:
            return True
        if self.fixed:
            return self.spent >= self.config.rounds
        return self.accountant.remaining <= 1e-15 * self.rho

    def run(self) -> ModelState:
        """Run every round and return the final fit."""
        self.model = self.initialize()
        if self.measurements:  # a uniform start measured nothing to schedule from
            self.schedule_final_round()
        while not self.stopped():
            self.t += 1
            stepped = self.step()
            if stepped is None:
                self.rounds.append({"t": self.t, "phase": "skipped", "participants": []})
                self.spent += not self.retries_empty
                continue
            fields, measured = stepped
            annealing = not self.fixed and not self.finishing
            previous = [self.model.marginal_counts(q) for q in measured] if annealing else []
            self.model = self.refit(self.model)
            self.spent += 1
            entry = {"t": self.t, **fields, "sigma": self.schedule.sigma, "eps": self.schedule.eps,
                     "rho_used": self.accountant.rho_used, "final": self.finishing}
            self.rounds.append(entry)
            if self.finishing:
                break
            if not annealing:
                continue
            sigma = self.annealing_sigma()
            if any(
                annealing_condition(
                    float(np.abs(self.model.marginal_counts(q) - before).sum()), sigma, q.cardinality
                )
                for q, before in zip(measured, previous)
            ):
                self.schedule = anneal_step(self.schedule)
                entry["annealed"] = True
            self.schedule_final_round()
        self.model = self.refit(self.model, final=True)
        return self.model


class AimLoop(Loop):
    """Selection and measurement run by the server on answers it holds.

    AIM holds the exact answers and scores raw counts.  DistAIM subclasses
    this with pooled secret-shared answers and, when scores are normalized,
    sets ``mass`` to the pooled record count.
    """

    mass: float | None = None

    def answer(self, attrs: tuple[int, ...]) -> np.ndarray:
        return self.exact[attrs]

    @property
    def rescale(self) -> float:
        """Factor from pooled counts to the population's; 1 for raw scores."""
        return 1.0 if self.mass is None else self.data.n_records / max(self.mass, 1.0)

    def annealing_sigma(self) -> float:
        return self.schedule.sigma * self.rescale

    def initialize(self) -> ModelState:
        data, rng = self.data, fork(self.config.seed, "init")
        self.exact = {q.attrs: evaluate_marginal(data, q).counts for q in self.completed.queries}
        one_ways = [MarginalQuery.make(self.domain, (a,)) for a in range(len(self.domain))]
        model = self.measure_init(one_ways, lambda q: self.measure(q, evaluate_marginal(data, q).counts, rng))
        self.rounds.append(
            {"t": 0, "phase": "init", "sigma": self.schedule.sigma, "eps": self.schedule.eps,
             "rho_used": self.accountant.rho_used}
        )
        return model

    def select_and_measure(self) -> tuple[MarginalQuery, float]:
        """Size filter, scores, exponential selection and Gaussian
        measurement of one round; returns the chosen query and its score."""
        cfg, schedule, completed = self.config, self.schedule, self.completed
        key = self.spent + 1  # rng path of the round, whatever was retried before it
        candidates = filter_by_size(completed, self.model, self.accountant.rho_used, self.rho, cfg.max_model_size)
        model_answers = _model_answers(self.model, completed, candidates, self.mass is not None)
        scores = _aim_utilities(self.answer, model_answers, completed, candidates, schedule.sigma, self.mass)
        self.accountant.charge(exponential_cost(schedule.eps), "exponential_select", self.t, eps=schedule.eps)
        if cfg.noiseless:
            pick = int(np.argmax(scores))
        else:
            pick = exponential_mechanism(scores, schedule.eps, self.sensitivity, fork(cfg.seed, "select", key))
        chosen = completed.queries[candidates[pick]]
        self.accountant.charge(gaussian_cost(schedule.sigma), "gaussian_measure", self.t, sigma=schedule.sigma)
        counts = self.answer(chosen.attrs)
        self.measurements.append(self.measure(chosen, counts, fork(cfg.seed, "measure", key), self.rescale))
        return chosen, float(scores[pick])

    def step(self) -> tuple[dict, list[MarginalQuery]]:
        chosen, utility = self.select_and_measure()
        return {"query": list(chosen.attrs), "utility": utility, "annealed": False}, [chosen]


def run_aim(data: DiscreteDataset, workload: Workload, config: AimConfig) -> AimResult:
    """Run the central loop on one dataset and return the fitted model."""
    domain = data.domain
    d = len(domain)
    completed = complete_workload(domain, workload)
    largest_oneway = max(domain.cardinalities) * 8
    if config.max_model_size <= largest_oneway:
        raise ValueError(
            f"max_model_size={config.max_model_size} bytes cannot hold the largest "
            f"one-way table ({largest_oneway} bytes)"
        )
    cap = math.inf if config.rounds is not None else 200 * d + 200
    loop = AimLoop(data, completed, config, n_init=d, cap=cap)
    model = loop.run()
    return AimResult(model=model, accountant=loop.accountant, rounds=loop.rounds, completed_workload=completed)
