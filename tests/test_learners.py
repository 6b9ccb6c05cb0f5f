import math
import re

import numpy as np
import pytest

from phide.learners import KINDS, LearnerBank


def external_regret(decisions, rewards) -> float:
    """max_x sum_t <x, r_t> - sum_t <x_t, r_t> over the simplex vertices."""
    if len(decisions) != len(rewards):
        raise ValueError("decisions and rewards must be aligned")
    if len(decisions) == 0:
        return 0.0
    D = np.asarray(decisions, dtype=float)
    R = np.asarray(rewards, dtype=float)
    return float(np.max(R.sum(axis=0)) - np.sum(D * R))


def horizon_eta(n_actions: int, horizon: int) -> float:
    """The FTRL step size sqrt(log n / T) tuned to a known horizon."""
    return math.sqrt(math.log(max(n_actions, 2)) / horizon)


def play(lrn, reward):
    """One decide/observe round of a one-row bank; returns the decision."""
    d = lrn.decide()
    lrn.observe(np.asarray(reward, dtype=float)[None, :], d)
    return d[0]


def run_sequence(kind, rewards, eta=None):
    lrn = LearnerBank(kind, 1, rewards.shape[1], eta=eta)
    return np.array([play(lrn, r) for r in rewards])


def test_decide_returns_distribution():
    rng = np.random.default_rng(0)
    for kind in KINDS:
        lrn = LearnerBank(kind, 1, 4)
        for _ in range(50):
            d = play(lrn, rng.uniform(-1, 1, size=4))
            assert d.min() >= 0 and abs(d.sum() - 1.0) < 1e-12


def test_average_regret_shrinks():
    rng = np.random.default_rng(1)
    T = 4000
    rewards = rng.uniform(-1, 1, size=(T, 5))
    for kind in KINDS:
        eta = horizon_eta(5, T) if kind == "ftrl_entropic" else None
        dec = run_sequence(kind, rewards, eta=eta)
        reg_half = external_regret(dec[: T // 2], rewards[: T // 2]) / (T // 2)
        reg_full = external_regret(dec, rewards) / T
        assert reg_full < 0.1, kind
        assert reg_full <= reg_half + 1e-9, kind


def test_adversarial_alternating_rewards():
    # alternating best arm; regret must still be sublinear
    T = 2000
    rewards = np.zeros((T, 2))
    rewards[::2, 0] = 1.0
    rewards[1::2, 1] = 1.0
    for kind in KINDS:
        dec = run_sequence(kind, rewards, eta=horizon_eta(2, T))
        assert external_regret(dec, rewards) / T < 0.1, kind


def test_constant_best_arm_lock_in():
    T = 500
    rewards = np.tile(np.array([[1.0, 0.0, 0.0]]), (T, 1))
    for kind in KINDS:
        dec = run_sequence(kind, rewards, eta=1.0)
        assert dec[-1][0] > 0.95, kind


def test_bank_matches_single_learner_bitwise():
    rng = np.random.default_rng(2)
    T = 200
    rewards = rng.normal(size=(T, 3))
    for kind in KINDS:
        single = LearnerBank(kind, 1, 3, eta=0.3)
        bank = LearnerBank(kind, n_labels=2, n_actions=3, eta=0.3)
        for r in rewards:
            d1 = single.decide()
            db = bank.decide()
            assert np.array_equal(d1[0], db[0])
            assert np.array_equal(db[0], db[1])
            single.observe(r[None, :], d1)
            bank.observe(np.vstack([r, r]), db)


def test_warm_start_matches_first_decision():
    warm = np.array([0.7, 0.2, 0.1])
    for kind in KINDS:
        lrn = LearnerBank(kind, 1, 3, eta=0.5, warm=warm[None, :])
        assert np.allclose(lrn.decide()[0], warm, atol=1e-12), kind


def test_rm_plus_forgets_negative_regret():
    lrn = LearnerBank("regret_matching_plus", 1, 2)
    for _ in range(50):
        play(lrn, [1.0, 0.0])
    # arm 1 was bad for a long time; one good step should matter immediately
    play(lrn, [0.0, 5.0])
    assert lrn.decide()[0, 1] > 0.4


def test_rejects_unknown_kind_and_bad_rewards():
    with pytest.raises(ValueError):
        LearnerBank("hedge", 1, 2)
    for eta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^eta must be positive"):
            LearnerBank("ftrl_entropic", 1, 2, eta=eta)
    lrn = LearnerBank("regret_matching", 1, 2)
    with pytest.raises(ValueError):
        lrn.observe(np.array([[np.nan, 0.0]]), lrn.decide())
    # warm rows of another shape, or not finite
    for kind in ("regret_matching", "ftrl_entropic"):
        with pytest.raises(ValueError, match=re.escape(
                "warm must be finite with shape (3, 2), got shape (2, 5)")):
            LearnerBank(kind, 3, 2, warm=np.ones((2, 5)))
        with pytest.raises(ValueError, match="^warm must be finite"):
            LearnerBank(kind, 1, 2, warm=np.array([[np.nan, 1.0]]))


def test_external_regret_edge_cases():
    assert external_regret([], []) == 0.0
    with pytest.raises(ValueError):
        external_regret([np.ones(2)], [])
    d = [np.array([1.0, 0.0])]
    r = [np.array([0.0, 1.0])]
    assert external_regret(d, r) == 1.0
