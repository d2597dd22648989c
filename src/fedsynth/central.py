"""Central select-measure-estimate synthesis loop (reference implementation).

Each round the worst-approximated workload query is chosen by the
exponential mechanism, measured under Gaussian noise, and folded into the
maximum-entropy model.  The loop either runs a fixed number of rounds on a
constant schedule that consumes the budget exactly, or adapts the round
count by budget annealing with a final-round adjustment.

``Loop`` runs that control flow for AIM, DistAIM and FLAIM alike, and is
the one place that sizes the model cap, picks a query, draws Gaussian noise
and releases a measurement; a protocol supplies only its initialization
and one round's selection and measurement.  ``AimLoop`` selects and
measures on the server, over exact answers here and over pooled client
answers in ``federated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import DiscreteDataset, MarginalQuery, evaluate_marginal, normalized_counts
from .model import CELL_BYTES, Measurement, ModelState, fit
from .privacy import (
    PrivacyAccountant,
    annealing_condition,
    anneal_step,
    budget_schedule,
    exponential_cost,
    exponential_mechanism,
    final_round_triggered,
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

    def __post_init__(self):
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.gauss_frac < 1:
            raise ValueError("gauss_frac must lie in (0, 1)")
        if self.rounds is None and self.gauss_frac != 0.9:
            raise ValueError("gauss_frac needs a fixed number of rounds; annealing splits its budget 0.9/0.1")


@dataclass
class AimResult:
    model: ModelState
    accountant: PrivacyAccountant
    rounds: list[dict] = field(default_factory=list)
    completed_workload: Workload | None = None


def filter_by_size(
    workload: Workload, model: ModelState, limit: float, pool: list[int] | None = None
) -> list[int]:
    """Indices of queries (of ``pool``, default all) whose hypothetical
    model stays within ``limit`` bytes; falls back to the single smallest
    candidate so a selection step always has one."""
    if pool is None:
        pool = list(range(len(workload.queries)))
    sizes = {i: model.size_bytes(workload.queries[i]) for i in pool}
    admitted = [i for i in pool if sizes[i] <= limit]
    if not admitted:
        admitted = [min(pool, key=sizes.__getitem__)]
    return admitted


def _aim_utilities(
    answer: Callable[[tuple[int, ...]], np.ndarray],
    model: ModelState,
    workload: Workload,
    candidates: list[int],
    sigma: float,
    mass: float | np.ndarray | None = None,
    skew: np.ndarray | None = None,
) -> np.ndarray:
    """AIM's quality score of each candidate: the weighted L1 gap between
    its answer and the model's, less the expected noise and the candidate's
    ``skew`` penalty.  With ``mass``, gaps compare per-record frequencies
    and the noise term is divided by the mass, floored at 1.

    ``answer`` may return one answer or a (rows x cells) block, one row per
    client; ``mass`` is then a scalar or one value per row, and ``skew``
    holds (rows x candidates) penalties.  The result has one score per
    candidate for each row, and each row equals what that row alone scores."""
    columns = []
    for j, i in enumerate(candidates):
        q = workload.queries[i]
        counts, estimate = answer(q.attrs), model.marginal_counts(q)
        penalty = ROOT_2_OVER_PI * sigma * q.cardinality
        if mass is not None:
            counts, estimate = normalized_counts(counts), normalized_counts(estimate)
            penalty = penalty / np.maximum(mass, 1.0)
        gap = np.abs(counts - estimate).sum(axis=-1) - penalty
        if skew is not None:
            gap = gap - skew[..., j]
        columns.append(workload.weights[i] * gap)
    return np.stack(columns, axis=-1)


class Loop:
    """The select-measure-estimate loop shared by AIM, DistAIM and FLAIM.

    The loop owns the noise schedule, the stopping rule, the warm-started
    fit after each round, the annealing check, the final-round budget
    adjustment, the round-log fields every protocol writes and the final
    fit.  It is also the one place that sets the round's size limit
    (``size_limit``), picks a candidate (``select``), draws measurement
    noise (``noised``), rescales pooled counts to the population
    (``scale``) and builds a measurement (``release``).  A protocol supplies
    ``initialize`` (its first measurements and model) and ``step`` (one
    round's selections and measurements, returning the round's own log
    fields and the queries it measured, or ``None`` when nobody was
    sampled).  Every schedule is sized from the counts a protocol
    declares: ``n_init`` initial one-way measurements, and
    ``gauss_per_round`` measurements and ``exp_per_round`` selections a
    round.  ``cap`` bounds the attempted rounds.  ``mass`` is the record
    count the server's scores and measurements are pooled over, or ``None``
    for raw counts.
    """

    mass: float | None = None
    retries_empty = False  # whether a round nobody joined is retried instead of counted
    gauss_per_round = exp_per_round = 1
    anneal_rounds_factor = 16  # an annealing start budgets for this many rounds per attribute

    def __init__(self, data: DiscreteDataset, completed: Workload, config: AimConfig, n_init: int, cap: float):
        largest_oneway = max(data.domain.cardinalities) * CELL_BYTES
        if config.max_model_size <= largest_oneway:
            raise ValueError(
                f"max_model_size={config.max_model_size} bytes cannot hold the largest "
                f"one-way table ({largest_oneway} bytes)"
            )
        self.data = data
        self.domain = data.domain
        self.completed = completed
        self.config = config
        self.cap = cap
        self.accountant = PrivacyAccountant.from_eps_delta(config.epsilon, config.delta)
        self.rho = rho = self.accountant.rho_total
        self.fixed = config.rounds is not None
        if self.fixed:
            r, T = config.gauss_frac, config.rounds
            self.schedule = budget_schedule(
                r * rho, n_init + T * self.gauss_per_round, (1.0 - r) * rho, T * self.exp_per_round
            )
        else:  # sigma_0^2 = f / (0.9 rho): a 0.9/0.1 split over 2f measurements and f selections
            f = self.anneal_rounds_factor * len(self.domain)
            self.schedule = budget_schedule(0.9 * rho, 2 * f, 0.1 * rho, f)
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

    def size_limit(self) -> float:
        """Model bytes a selection may reach: the cap times the share of the budget spent so far."""
        return (self.accountant.rho_used / self.rho) * self.config.max_model_size

    def select(self, scores: np.ndarray, *rng_path) -> int:
        """Index of the selected score: the exponential mechanism at the
        round's eps, or the argmax when noiseless."""
        if self.config.noiseless:
            return int(np.argmax(scores))
        rng = fork(self.config.seed, "select", *rng_path)
        return exponential_mechanism(scores, self.schedule.eps, self.sensitivity, rng)

    def noised(self, counts: np.ndarray, rng) -> np.ndarray:
        """``counts`` plus Gaussian noise at the round's sigma; exact when noiseless."""
        return counts if self.config.noiseless else gaussian_mechanism(counts, self.schedule.sigma, rng)

    def scale(self, mass: float | None) -> float:
        """Factor from counts pooled over ``mass`` records to the population's; 1 for raw counts."""
        return 1.0 if mass is None else self.data.n_records / max(mass, 1.0)

    def release(self, query: MarginalQuery, noisy: np.ndarray, mass: float | None = None,
                weight: float = 1.0) -> Measurement:
        """The round's measurement of ``query``: ``noisy`` rescaled from
        ``mass`` records, weighted ``weight / sigma``."""
        sigma = self.schedule.sigma
        return Measurement(self.t, query, noisy * self.scale(mass), sigma, weight / sigma)

    def measure_init(self, one_ways: list[MarginalQuery], measure, total: float | None = None) -> ModelState:
        """Measure every one-way with ``measure`` (``None`` leaves one
        unmeasured) and fit the first model."""
        sigma = self.schedule.sigma
        self.accountant.charge(
            len(one_ways) * gaussian_cost(sigma), "gaussian_init", self.t, sigma=sigma, count=len(one_ways)
        )
        self.measurements += [m for m in map(measure, one_ways) if m is not None]
        return self.refit(total=total)

    def schedule_final_round(self) -> None:
        """Under annealing, switch to parameters that spend the rest of the
        budget in one round once less than two rounds' worth remains."""
        remaining, g, e = self.accountant.remaining, self.gauss_per_round, self.exp_per_round
        if not self.fixed and final_round_triggered(remaining, self.schedule, g, e):
            self.schedule = budget_schedule(0.9 * remaining, g, 0.1 * remaining, e)
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
            sigma = self.schedule.sigma * self.scale(self.mass)
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

    def answer(self, attrs: tuple[int, ...]) -> np.ndarray:
        return self.exact[attrs]

    def initialize(self) -> ModelState:
        data, rng = self.data, fork(self.config.seed, "init")
        self.exact = {q.attrs: evaluate_marginal(data, q) for q in self.completed.queries}
        one_ways = [MarginalQuery.make(self.domain, (a,)) for a in range(len(self.domain))]
        model = self.measure_init(
            one_ways, lambda q: self.release(q, self.noised(evaluate_marginal(data, q), rng))
        )
        self.rounds.append(
            {"t": 0, "phase": "init", "sigma": self.schedule.sigma, "eps": self.schedule.eps,
             "rho_used": self.accountant.rho_used}
        )
        return model

    def select_and_measure(self) -> tuple[MarginalQuery, float]:
        """Size filter, scores, exponential selection and Gaussian
        measurement of one round; returns the chosen query and its score."""
        schedule, completed = self.schedule, self.completed
        key = self.spent + 1  # rng path of the round, whatever was retried before it
        candidates = filter_by_size(completed, self.model, self.size_limit())
        scores = _aim_utilities(self.answer, self.model, completed, candidates, schedule.sigma, self.mass)
        self.accountant.charge(exponential_cost(schedule.eps), "exponential_select", self.t, eps=schedule.eps)
        pick = self.select(scores, key)
        chosen = completed.queries[candidates[pick]]
        self.accountant.charge(gaussian_cost(schedule.sigma), "gaussian_measure", self.t, sigma=schedule.sigma)
        noisy = self.noised(self.answer(chosen.attrs), fork(self.config.seed, "measure", key))
        self.measurements.append(self.release(chosen, noisy, self.mass))
        return chosen, float(scores[pick])

    def step(self) -> tuple[dict, list[MarginalQuery]]:
        chosen, utility = self.select_and_measure()
        return {"query": list(chosen.attrs), "utility": utility, "annealed": False}, [chosen]


def run_aim(data: DiscreteDataset, workload: Workload, config: AimConfig) -> AimResult:
    """Run the central loop on one dataset and return the fitted model."""
    d = len(data.domain)
    completed = complete_workload(data.domain, workload)
    cap = math.inf if config.rounds is not None else 200 * d + 200
    loop = AimLoop(data, completed, config, n_init=d, cap=cap)
    model = loop.run()
    return AimResult(model=model, accountant=loop.accountant, rounds=loop.rounds, completed_workload=completed)
