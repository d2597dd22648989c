import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsynth.privacy import (
    BudgetExhaustedError,
    NoiseSchedule,
    PrivacyAccountant,
    anneal_step,
    annealing_condition,
    central_schedule_init,
    delta_for_rho,
    exponential_cost,
    exponential_mechanism,
    exponential_probabilities,
    final_round_adjust,
    final_round_triggered,
    flaim_schedule,
    gaussian_cost,
    gaussian_mechanism,
    rho_from_eps_delta,
)
from fedsynth.rng import fork


# --- (eps, delta) -> rho conversion -------------------------------------------------


def _grid_delta(rho: float, eps: float) -> float:
    """Independent dense-grid oracle for the conversion bound."""
    alpha = 1.0 + np.geomspace(1e-9, max(10.0 / rho + 10.0, 1e3), 400_000)
    log_delta = (
        (alpha - 1.0) * (alpha * rho - eps)
        + (alpha - 1.0) * np.log(alpha - 1.0)
        - alpha * np.log(alpha)
    )
    return float(np.exp(log_delta.min()))


def _grid_rho(eps: float, delta: float) -> float:
    lo, hi = 0.0, 1.0
    while _grid_delta(hi, eps) <= delta:
        hi *= 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _grid_delta(mid, eps) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


def test_rho_conversion_against_grid_oracle():
    got = rho_from_eps_delta(1.0, 1e-9)
    want = _grid_rho(1.0, 1e-9)
    assert got == pytest.approx(want, rel=1e-6)


def test_rho_conversion_monotone_in_eps():
    assert rho_from_eps_delta(2.0, 1e-9) > rho_from_eps_delta(1.0, 1e-9)


def test_rho_conversion_roundtrip_supremum():
    for eps, delta in [(1.0, 1e-9), (0.3, 1e-6), (5.0, 1e-9)]:
        rho = rho_from_eps_delta(eps, delta)
        assert delta_for_rho(rho, eps) <= delta
        assert delta_for_rho(rho * (1 + 1e-6), eps) > delta


def test_rho_conversion_huge_epsilon():
    # for large eps the bound concentrates near alpha ~ 1 and rho -> eps
    rho = rho_from_eps_delta(1e6, 1e-9)
    assert 0.9e6 < rho < 1e6
    assert delta_for_rho(rho, 1e6) <= 1e-9


def test_rho_conversion_input_validation():
    with pytest.raises(ValueError):
        rho_from_eps_delta(0.0, 1e-9)
    with pytest.raises(ValueError):
        rho_from_eps_delta(1.0, 1.5)


# --- Gaussian mechanism --------------------------------------------------------------


def test_gaussian_zero_mean_and_folded_abs():
    rng = fork(7, "gauss")
    sigma = 2.5
    reps = 100_000
    noise = gaussian_mechanism(np.zeros(reps), sigma, rng)
    se = sigma / math.sqrt(reps)
    assert abs(noise.mean()) < 4 * se
    expected_abs = sigma * math.sqrt(2.0 / math.pi)
    assert abs(np.abs(noise).mean() - expected_abs) < 0.02 * expected_abs


def test_gaussian_sensitivity_scales_noise():
    rng = fork(8, "gauss")
    noise = gaussian_mechanism(np.zeros(50_000), 1.0, rng, sensitivity=3.0)
    assert np.abs(noise).mean() == pytest.approx(3.0 * math.sqrt(2 / math.pi), rel=0.03)


def test_gaussian_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        gaussian_mechanism(np.zeros(2), 0.0, fork(0))


# --- exponential mechanism -----------------------------------------------------------


def test_exponential_single_candidate():
    assert exponential_mechanism(np.array([3.0]), 1.0, 1.0, fork(1)) == 0


def test_exponential_closed_form_two_candidates():
    eps, delta_sens = 0.7, 1.3
    scores = np.array([0.0, 2 * delta_sens / eps * math.log(3.0)])
    probs = exponential_probabilities(scores, eps, delta_sens)
    np.testing.assert_allclose(probs, [0.25, 0.75], rtol=1e-12)
    rng = fork(2, "expmech")
    draws = np.array([exponential_mechanism(scores, eps, delta_sens, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.75) < 0.01


def test_exponential_shift_invariance_same_stream():
    scores = np.array([1.0, 4.0, 2.0, -3.0])
    picks_a = [exponential_mechanism(scores, 1.0, 1.0, fork(11, "s", i)) for i in range(200)]
    picks_b = [
        exponential_mechanism(scores + 17.5, 1.0, 1.0, fork(11, "s", i)) for i in range(200)
    ]
    assert picks_a == picks_b


def test_exponential_empty_candidates():
    with pytest.raises(ValueError):
        exponential_mechanism(np.array([]), 1.0, 1.0, fork(0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    st.floats(-1e6, 1e6),
    st.integers(0, 2**31 - 1),
)
def test_exponential_shift_invariance_property(scores, shift, seed):
    scores = np.asarray(scores)
    a = exponential_mechanism(scores, 1.3, 2.0, fork(seed, "shift"))
    b = exponential_mechanism(scores + shift, 1.3, 2.0, fork(seed, "shift"))
    assert a == b


def test_gumbel_matches_softmax_tv():
    scores = np.array([0.0, 1.0, 2.0, 0.5, -1.0])
    eps, sens = 1.5, 1.0
    probs = exponential_probabilities(scores, eps, sens)
    rng = fork(3, "tv")
    n = 1_000_000
    scaled = eps * (scores - scores.max()) / (2 * sens)
    draws = np.argmax(scaled[None, :] + rng.gumbel(size=(n, 5)), axis=1)
    empirical = np.bincount(draws, minlength=5) / n
    tv = 0.5 * np.abs(empirical - probs).sum()
    assert tv <= 0.005


# --- schedules -----------------------------------------------------------------------


def test_flaim_schedule_values():
    sched = flaim_schedule(T=10, s=1, d=14, rho=1.0, r=0.9, mode="naive")
    assert sched.sigma == pytest.approx(math.sqrt(24 / 1.8), rel=1e-12)
    sched_p = flaim_schedule(T=10, s=1, d=14, rho=1.0, r=0.9, mode="private")
    assert sched_p.sigma == pytest.approx(math.sqrt(150 / 1.8), rel=1e-12)
    assert sched.eps == pytest.approx(math.sqrt(8 * 0.1 / 10), rel=1e-12)


@pytest.mark.parametrize("mode,T,s,d", [("naive", 10, 1, 14), ("oracle", 7, 3, 5), ("private", 9, 2, 12)])
def test_flaim_schedule_total_spend_identity(mode, T, s, d):
    rho, r = 0.73, 0.9
    sched = flaim_schedule(T, s, d, rho, r, mode)
    gauss_apps = T * (s + d) if mode == "private" else T * s + d
    total = T * s * exponential_cost(sched.eps) + gauss_apps * gaussian_cost(sched.sigma)
    assert total == pytest.approx(rho, rel=1e-12)


def test_central_schedule_init_values():
    sched = central_schedule_init(14, 0.9)
    assert sched.sigma**2 == pytest.approx(224 / 0.81, rel=1e-12)
    sched2 = central_schedule_init(28, 0.9)
    assert sched2.sigma**2 / sched.sigma**2 == pytest.approx(2.0, rel=1e-12)
    sched16 = central_schedule_init(16, 1.0)
    assert sched16.eps == pytest.approx(math.sqrt(0.8 / 256), rel=1e-12)
    sched_fed = central_schedule_init(14, 0.9, rounds_factor=8)
    assert sched_fed.sigma**2 == pytest.approx(112 / 0.81, rel=1e-12)


def test_anneal_step():
    sched = NoiseSchedule(sigma=4.0, eps=0.1)
    once = anneal_step(sched)
    assert sched.sigma == 4.0 and sched.eps == 0.1
    assert once.sigma == 2.0 and once.eps == 0.2
    twice = anneal_step(once)
    assert twice.sigma == 1.0 and twice.eps == 0.4


def test_annealing_condition():
    assert annealing_condition(0.1, sigma=1.0, n_cells=4)
    assert not annealing_condition(100.0, sigma=1.0, n_cells=4)


def test_final_round_adjust_values():
    adj = final_round_adjust(0.05)
    assert adj.sigma**2 == pytest.approx(1 / 0.09, rel=1e-12)
    assert adj.eps == pytest.approx(0.2, rel=1e-12)
    spend = gaussian_cost(adj.sigma) + exponential_cost(adj.eps)
    assert spend == pytest.approx(0.05, rel=1e-12)


def test_final_round_trigger_branches():
    sched = NoiseSchedule(sigma=1.0, eps=1.0)
    per_round = gaussian_cost(1.0) + exponential_cost(1.0)
    assert final_round_triggered(1.9 * per_round, sched)
    assert not final_round_triggered(10 * per_round, sched)


def test_final_round_adjust_multi_application_counts():
    adj = final_round_adjust(0.08, gauss_count=5, exp_count=2)
    spend = 5 * gaussian_cost(adj.sigma) + 2 * exponential_cost(adj.eps)
    assert spend == pytest.approx(0.08, rel=1e-12)


# --- accountant ----------------------------------------------------------------------


def test_accountant_hard_stop_and_report():
    acct = PrivacyAccountant(rho_total=0.4)
    acct.charge(0.3, "gaussian", 1)
    with pytest.raises(BudgetExhaustedError) as err:
        acct.charge(0.2, "gaussian", 2)
    assert err.value.remaining == pytest.approx(0.1)
    assert acct.rho_used == pytest.approx(0.3)  # failed charge not recorded


def test_accountant_clamps_float_dust():
    acct = PrivacyAccountant(rho_total=1.0)
    acct.charge(0.9, "gaussian", 1)
    acct.charge(0.1 * (1 + 1e-12), "gaussian", 2)  # within tolerance
    assert acct.rho_used <= acct.rho_total
    assert sum(r["rho"] for r in acct.ledger()) == acct.rho_used


def test_accountant_ledger_json():
    import json

    acct = PrivacyAccountant(rho_total=1.0)
    acct.charge(0.25, "exponential", 1, eps=0.3)
    payload = json.loads(json.dumps({"charges": acct.ledger()}))  # as run outputs write it
    assert payload["charges"][0]["mechanism"] == "exponential"
    assert payload["charges"][0]["params"]["eps"] == 0.3
