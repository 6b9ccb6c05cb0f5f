"""The proximal step's prefix sweep against the per-history sweep it
replaced, kept here as the reference: each stage's linear term is a
segment sum over histories of Nature's probability times every other
stage's played probability times the reward."""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phide import relaxation
from phide.core import random_policy
from phide.relaxation import RelaxationProblem
from phide.zoo import (TradeCommSpec, build_matching_pennies, build_trade_comm,
                       random_game)

from per_history import hist_actions, hist_labels, hist_probs

TOL = 1e-12
LAMBDAS = (0.05, 0.5, 5.0)


def played(t, mats, m):
    """Each stage's per-history probability of the action played."""
    return [mats[i][hist_labels(t, m, i), hist_actions(t)[:, i]]
            for i in range(t.game.num_stages)]


def reference_linear_term(problem, mats, i):
    t, mf = problem._t, problem.mf
    q_minus = hist_probs(t)
    for j, col in enumerate(played(t, mats, mf)):
        if j != i:
            q_minus = q_minus * col
    return t.segment_sum(q_minus * t.rewards[:, problem.player], mf, i)


def reference_objective(problem, mats, centers):
    t = problem._t
    q = hist_probs(t)
    for col in played(t, mats, problem.mf):
        q = q * col
    pen = 0.0
    for w, mat, centre in zip(problem.weights, mats, centers):
        pen += float(w @ np.sum((mat - centre) ** 2, axis=1))
    return float(q @ t.rewards[:, problem.player]) - problem.lam * pen


def check_sweeps(problem, mats, sweeps=4):
    """Runs ``sweeps`` sweeps from ``mats`` towards its projection, checking
    each stage's linear term against the reference at the moment it is
    formed, and each sweep's objective.  The kernel forms the term with its
    one ``np.bincount`` call, on the stage's prefix cells."""
    centers = relaxation._centers(problem, relaxation._project(problem, mats))
    mats, seen = list(mats), []
    cells = [step[1] for step in problem.plan]

    def bincount(x, weights=None, minlength=0):
        c = np.bincount(x, weights=weights, minlength=minlength)
        i = next(i for i, arr in enumerate(cells) if arr is x)
        np.testing.assert_allclose(c.reshape(len(mats[i]), -1),
                                   reference_linear_term(problem, mats, i),
                                   rtol=0, atol=TOL)
        seen.append(i)
        return c

    hooked = types.SimpleNamespace(**{**vars(np), "bincount": bincount})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relaxation, "np", hooked)
        for _ in range(sweeps):
            val = relaxation._sweep(problem, mats, centers)
            assert abs(val - reference_objective(problem, mats,
                                                 centers)) <= TOL
    assert seen == list(reversed(range(len(mats)))) * sweeps


def check_problem(game, coarse, fine, seed):
    rng = np.random.default_rng(seed)
    for lam in LAMBDAS:
        problem = RelaxationProblem(game, coarse, fine, lam)
        mats = problem._t.matrices(random_policy(game, fine, rng))
        check_sweeps(problem, mats)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 499))
def test_sweep_matches_per_history_reference(seed):
    game, coarse, fine = random_game(seed)
    check_problem(game, coarse, fine, seed)


def test_sweep_matches_reference_on_matching_pennies():
    game, maps = build_matching_pennies()
    check_problem(game, maps["original"], maps["relaxed"], 1)


def test_sweep_matches_reference_on_trade_comm():
    for items in (2, 3):
        game, maps = build_trade_comm(TradeCommSpec(items, 2))
        check_problem(game, maps["original"],
                      maps["perfect_recall"], items)
