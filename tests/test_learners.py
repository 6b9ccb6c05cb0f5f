import numpy as np
import pytest

from phide.learners import (KINDS, LearnerBank, RegretMinimizer, default_eta,
                            external_regret)


def run_sequence(kind, rewards, eta=None):
    n = rewards.shape[1]
    lrn = RegretMinimizer(kind, n, eta=eta)
    decisions = []
    for r in rewards:
        decisions.append(lrn.decide())
        lrn.observe(r)
    return np.array(decisions)


def test_decide_returns_distribution():
    rng = np.random.default_rng(0)
    for kind in KINDS:
        lrn = RegretMinimizer(kind, 4)
        for _ in range(50):
            d = lrn.decide()
            assert d.min() >= 0 and abs(d.sum() - 1.0) < 1e-12
            lrn.observe(rng.uniform(-1, 1, size=4))


def test_average_regret_shrinks():
    rng = np.random.default_rng(1)
    T = 4000
    rewards = rng.uniform(-1, 1, size=(T, 5))
    for kind in KINDS:
        eta = default_eta(5, T) if kind == "ftrl_entropic" else None
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
        dec = run_sequence(kind, rewards, eta=default_eta(2, T))
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
        single = RegretMinimizer(kind, 3, eta=0.3)
        bank = LearnerBank(kind, n_labels=2, n_actions=3, eta=0.3)
        for r in rewards:
            d1 = single.decide()
            db = bank.decide()
            assert np.array_equal(d1, db[0])
            assert np.array_equal(db[0], db[1])
            single.observe(r)
            bank.observe(np.vstack([r, r]))


def test_observe_with_the_decided_rows_matches_recomputing_them():
    rng = np.random.default_rng(3)
    for kind in KINDS:
        warm = rng.dirichlet(np.ones(3), size=4)
        fresh = LearnerBank(kind, 4, 3, eta=0.3, warm=warm)
        reuse = LearnerBank(kind, 4, 3, eta=0.3, warm=warm)
        for _ in range(100):
            r = rng.normal(size=(4, 3))
            fresh.observe(r)
            reuse.observe(r, reuse.decide())
            assert np.array_equal(fresh.cum, reuse.cum), kind


def test_warm_start_matches_first_decision():
    warm = np.array([0.7, 0.2, 0.1])
    for kind in KINDS:
        lrn = RegretMinimizer(kind, 3, eta=0.5, warm=warm)
        assert np.allclose(lrn.decide(), warm, atol=1e-12), kind


def test_rm_plus_forgets_negative_regret():
    lrn = RegretMinimizer("regret_matching_plus", 2)
    for _ in range(50):
        lrn.decide()
        lrn.observe(np.array([1.0, 0.0]))
    # arm 1 was bad for a long time; one good step should matter immediately
    lrn.observe(np.array([0.0, 5.0]))
    assert lrn.decide()[1] > 0.4


def test_rejects_unknown_kind_and_bad_rewards():
    with pytest.raises(ValueError):
        RegretMinimizer("hedge", 2)
    lrn = RegretMinimizer("regret_matching", 2)
    with pytest.raises(ValueError):
        lrn.observe(np.array([np.nan, 0.0]))


def test_external_regret_edge_cases():
    assert external_regret([], []) == 0.0
    with pytest.raises(ValueError):
        external_regret([np.ones(2)], [])
    d = [np.array([1.0, 0.0])]
    r = [np.array([0.0, 1.0])]
    assert external_regret(d, r) == 1.0
