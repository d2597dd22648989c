"""zCDP accounting, the Gaussian and exponential mechanisms, noise schedules.

Budget bookkeeping is in terms of rho (zCDP).  A Gaussian measurement at
scale sigma costs 1/(2 sigma^2); an exponential-mechanism selection at
parameter eps costs eps^2/8.  The (epsilon, delta) -> rho conversion
inverts the standard zCDP-to-DP bound

    delta(rho, eps) = min_{alpha > 1} exp((alpha-1)(alpha rho - eps))
                      / (alpha - 1) * (1 - 1/alpha)^alpha

finding the largest rho whose delta does not exceed the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_delta_at(alpha: np.ndarray | float, rho: float, eps: float):
    """log of the zCDP->DP bound at a given order alpha (vector-friendly)."""
    a = np.asarray(alpha, dtype=np.float64)
    return (a - 1.0) * (a * rho - eps) + (a - 1.0) * np.log(a - 1.0) - a * np.log(a)


def delta_for_rho(rho: float, eps: float) -> float:
    """delta(rho, eps): inner minimization over the divergence order."""
    if rho <= 0:
        return 0.0
    lo, hi = 1.0 + 1e-12, max(10.0 / rho + 2.0, 2.0)
    # bracket the (unimodal) minimum on a log grid, widening if it sits at
    # the upper boundary
    for _ in range(60):
        grid = np.exp(np.linspace(np.log(lo - 1.0), np.log(hi - 1.0), 96)) + 1.0
        values = _log_delta_at(grid, rho, eps)
        k = int(np.argmin(values))
        if k < len(grid) - 1:
            break
        hi = 1.0 + (hi - 1.0) * 4.0
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    # golden-section to relative tolerance 1e-9 on alpha
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = _log_delta_at(x1, rho, eps), _log_delta_at(x2, rho, eps)
    while (b - a) > 1e-9 * max(abs(a), 1.0):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _log_delta_at(x1, rho, eps)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _log_delta_at(x2, rho, eps)
    best = min(f1, f2)
    return float(np.exp(best)) if best < 0 else min(float(np.exp(best)), 1.0)


def rho_from_eps_delta(eps: float, delta: float) -> float:
    """Largest rho whose converted delta stays at or below the target."""
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    hi = 1e-6
    while delta_for_rho(hi, eps) <= delta:
        hi *= 2.0
        if hi > 1e16:
            return hi
    lo = 0.0
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if delta_for_rho(mid, eps) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


def gaussian_cost(sigma: float) -> float:
    return 1.0 / (2.0 * sigma * sigma)


def exponential_cost(eps: float) -> float:
    return eps * eps / 8.0


def implied_charge(params: dict) -> float | None:
    """The rho a ledger charge's recorded parameters imply: ``count`` times
    the Gaussian cost of ``sigma`` or the exponential cost of ``eps``; None
    when the charge records neither."""
    count = params.get("count", 1)
    if "sigma" in params:
        return count * gaussian_cost(params["sigma"])
    if "eps" in params:
        return count * exponential_cost(params["eps"])
    return None


class BudgetExhaustedError(RuntimeError):
    def __init__(self, requested: float, remaining: float):
        self.requested = requested
        self.remaining = remaining
        super().__init__(
            f"privacy budget exhausted: requested rho={requested:.6g}, remaining rho={remaining:.6g}"
        )


@dataclass
class PrivacyAccountant:
    """Single mutable authority for zCDP spending within one run."""

    rho_total: float
    rho_used: float = 0.0
    records: list[dict] = field(default_factory=list)

    @classmethod
    def from_eps_delta(cls, epsilon: float, delta: float) -> "PrivacyAccountant":
        return cls(rho_total=rho_from_eps_delta(epsilon, delta))

    @property
    def remaining(self) -> float:
        return self.rho_total - self.rho_used

    def charge(self, rho: float, mechanism: str, round_index: int, **params) -> float:
        """Record a spend; refuses (hard stop) if the budget cannot cover it.

        Amounts within 1e-9 relative of the exact remainder are clamped to
        it, so schedules designed to consume the budget exactly never trip
        on float rounding.
        """
        if rho < 0:
            raise ValueError("charge must be non-negative")
        remaining = self.remaining
        if rho > remaining * (1.0 + 1e-9) + 1e-15:
            raise BudgetExhaustedError(rho, remaining)
        rho = min(rho, remaining)
        self.rho_used += rho
        self.records.append(
            {"round": round_index, "mechanism": mechanism, "rho": rho, "params": params}
        )
        return rho

    def ledger(self) -> list[dict]:
        return list(self.records)


def gaussian_mechanism(
    counts: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
    sensitivity: float = 1.0,
) -> np.ndarray:
    """Add N(0, (sensitivity * sigma)^2) noise per cell; cost 1/(2 sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    counts = np.asarray(counts, dtype=np.float64)
    return counts + rng.normal(0.0, sensitivity * sigma, size=counts.shape)


def exponential_mechanism(
    scores: np.ndarray,
    eps: float,
    sensitivity: float,
    rng: np.random.Generator,
) -> int:
    """Sample an index with P[i] proportional to exp(eps * u_i / (2 sensitivity)).

    Implemented as Gumbel-max over the max-stabilized scores; cost eps^2/8.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("candidate set is empty")
    if eps <= 0 or sensitivity <= 0:
        raise ValueError("eps and sensitivity must be positive")
    scaled = eps * (scores - scores.max()) / (2.0 * sensitivity)
    return int(np.argmax(scaled + rng.gumbel(size=scores.shape)))


def exponential_probabilities(scores: np.ndarray, eps: float, sensitivity: float) -> np.ndarray:
    """Closed-form selection distribution of the exponential mechanism."""
    scores = np.asarray(scores, dtype=np.float64)
    scaled = eps * (scores - scores.max()) / (2.0 * sensitivity)
    weights = np.exp(scaled)
    return weights / weights.sum()


@dataclass
class NoiseSchedule:
    """Per-round Gaussian scale and exponential parameter."""

    sigma: float
    eps: float

    def __post_init__(self):
        if self.sigma <= 0 or self.eps <= 0:
            raise ValueError("sigma and eps must be positive")


def budget_schedule(gauss_rho: float, n_gauss: int, exp_rho: float, n_exp: int) -> NoiseSchedule:
    """Constant parameters spending ``gauss_rho`` over ``n_gauss`` Gaussian
    measurements and ``exp_rho`` over ``n_exp`` exponential selections."""
    if gauss_rho <= 0 or exp_rho <= 0:
        raise ValueError("budgets must be positive")
    if n_gauss < 1 or n_exp < 1:
        raise ValueError("mechanism counts must be >= 1")
    return NoiseSchedule(math.sqrt(n_gauss / (2.0 * gauss_rho)), math.sqrt(8.0 * exp_rho / n_exp))


def anneal_step(schedule: NoiseSchedule) -> NoiseSchedule:
    """Halve sigma and double eps (model progress stalled this round)."""
    return NoiseSchedule(sigma=schedule.sigma / 2.0, eps=schedule.eps * 2.0)


def annealing_condition(change_l1: float, sigma: float, n_cells: float) -> bool:
    """True when the measured marginal moved less than its expected noise."""
    return change_l1 <= math.sqrt(2.0 / math.pi) * sigma * n_cells


def final_round_triggered(
    remaining: float,
    schedule: NoiseSchedule,
    gauss_count: int = 1,
    exp_count: int = 1,
) -> bool:
    """True when less than two more rounds fit in the remaining budget.

    ``gauss_count``/``exp_count`` are the per-round mechanism applications
    (1/1 centrally; local steps and per-round one-way refreshes raise them
    in the federated loops).
    """
    per_round = gauss_count * gaussian_cost(schedule.sigma) + exp_count * exponential_cost(
        schedule.eps
    )
    return remaining <= 2.0 * per_round
