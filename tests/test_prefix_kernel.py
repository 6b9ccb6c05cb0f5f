"""The solver loop's prefix kernel against the per-history kernel it
replaced, kept here as the reference: every quantity of an iteration is
computed once per history, from full-length pushforwards."""

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from phide.cfr import CfrRun, PenaltySchedule, floored_mats
from phide.core import InformationMap, ProductGame
from phide.errors import ZeroReachLabel
from phide.hiding import PhRun
from phide.zoo import TradeCommSpec, build_trade_comm, random_game

from per_history import hist_actions, hist_labels, hist_probs

TOL = 1e-12


def reach(t, mats, m):
    """Pushforward over histories and each stage's played probability."""
    pf = [mats[i][hist_labels(t, m, i), hist_actions(t)[:, i]]
          for i in range(t.game.num_stages)]
    q = hist_probs(t)
    for col in pf:
        q = q * col
    return q, pf


def cf_matrix(t, m, i, q, pf_i, values, sampled, mass=None):
    """Entry [g, d]: E_q[values | label g] with stage i forced to d."""
    n, A = len(t.labels[m][i]), t.game.stage_actions[i]
    lab = hist_labels(t, m, i)
    if mass is None:
        mass = np.bincount(lab, weights=q, minlength=n)
    ok = mass > 0.0
    if not sampled and not ok.all():
        raise ZeroReachLabel(f"stage {i}")
    num = np.bincount(lab * A + hist_actions(t)[:, i], weights=q / pf_i * values,
                      minlength=n * A).reshape(n, A)
    theta = np.zeros_like(num)
    theta[ok] = num[ok] / mass[ok, None]
    return theta, mass


def reference_step(loop, mats, lam, w):
    """(projection, thetas, payoff, payoff_mu, penalty_mass) of one step,
    history by history; ``w`` restricts the rewards to one Nature slice."""
    t, mf, mc = loop.t, loop.mf, loop.mc
    L = t.game.num_stages
    q, pf = reach(t, floored_mats(mats), mf)
    pen = {}
    gam = mats
    if loop.fine is not loop.coarse:
        gam = []
        for i in range(L):
            cl, fl = hist_labels(t, mc, i), hist_labels(t, mf, i)
            nc = len(t.labels[mc][i])
            acc = np.zeros((nc, mats[i].shape[1]))
            np.add.at(acc, cl, q[:, None] * mats[i][fl])
            gam.append(acc / np.bincount(cl, weights=q, minlength=nc)[:, None])
        for i in range(L):
            diff = (mats[i][hist_labels(t, mf, i)]
                    - gam[i][hist_labels(t, mc, i)])
            pen[i] = np.sum(diff * diff, axis=1)
    if w is not None:
        q = np.where(t.nature_idx == w, q, 0.0)
    thetas, suffix = {}, 0.0
    for i in reversed(range(L)):
        vals = t.rewards[:, t.game.player_of_stage[i]]
        if pen:
            vals = vals - suffix
            suffix = suffix + lam * pen[i]
        theta, mass = cf_matrix(t, mf, i, q, pf[i], vals, w is not None)
        if pen:
            if i in loop.f2c:
                centre = gam[i][loop.f2c[i]]
            else:
                played = gam[i][hist_labels(t, mc, i), hist_actions(t)[:, i]]
                centre, _ = cf_matrix(t, mf, i, q, pf[i], played,
                                      w is not None, mass)
            lin = 2.0 * lam * (mats[i] - centre)
            lin[mass <= 0.0] = 0.0
            theta = theta - lin
        thetas[i] = theta
    q_raw = reach(t, mats, mf)[0]
    q_gam = q_raw if gam is mats else reach(t, gam, mc)[0]
    r = t.rewards[:, loop.player]
    pen_mass = float(q_raw @ sum(pen.values())) if pen else 0.0
    return gam, thetas, float(q_gam @ r), float(q_raw @ r), pen_mass


def check_against_reference(loop, iterations=3):
    W = len(loop.game.nature)
    for _ in range(iterations):
        mats = loop.current_mats()
        lam = loop.schedules[0].current(loop.iteration + 1)
        w = None
        if loop.mode == "mc":  # the draw ``iterate`` is about to make
            w = copy.deepcopy(loop.rngs[0]).choice(W, p=loop.game.probs())
        gam_ref, th_ref, payoff, payoff_mu, pen_mass = reference_step(
            loop, mats, lam, w)
        gam, _, thetas = loop._step(mats, lam, w)
        for i in loop.stages:
            np.testing.assert_allclose(gam[i], gam_ref[i], rtol=0, atol=TOL)
            np.testing.assert_allclose(thetas[i], th_ref[i], rtol=0, atol=TOL)
        loop.iterate()
        for i in loop.stages:
            assert np.array_equal(loop.projected[i], gam[i])
        got = [loop.trace[k][-1] for k in ("payoff", "payoff_mu",
                                           "penalty_mass")]
        np.testing.assert_allclose(got, [payoff, payoff_mu, pen_mass],
                                   rtol=0, atol=TOL)


def loops(game, coarse, fine, seed, mode):
    """CFR on ``coarse`` and PH from ``coarse`` to ``fine``."""
    kw = dict(seed=seed, randomize_init=True, mode=mode)
    yield CfrRun(game, coarse, **kw)
    yield PhRun(game, coarse, fine, schedule=PenaltySchedule("constant", 0.7),
                **kw)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 499), swap=st.booleans(),
       mode=st.sampled_from(["exact", "mc"]))
def test_prefix_kernel_matches_per_history_reference(seed, swap, mode):
    # swapped, the learners' map is the coarser one: it does not refine
    game, coarse, fine = random_game(seed)
    if swap:
        coarse, fine = fine, coarse
    for loop in loops(game, coarse, fine, seed, mode):
        check_against_reference(loop)


def test_prefix_kernel_matches_reference_on_trade_comm():
    game, maps = build_trade_comm(TradeCommSpec(2, 2))
    for mode in ("exact", "mc"):
        for fine in ("perfect_recall", "cheat"):
            for loop in loops(game, maps["original"], maps[fine], 3, mode):
                if loop.fine is not loop.coarse:
                    # one map refines the original, the other does not
                    assert (len(loop.f2c) == game.num_stages) == (
                        fine == "perfect_recall")
                check_against_reference(loop, iterations=5)



def test_prefix_kernel_matches_reference_with_two_stage_owners():
    # one backward pass per owner: stages 0 and 2 learn player 0's reward,
    # stage 1 player 1's
    rng = np.random.default_rng(4)
    table = rng.uniform(-1.0, 1.0, size=(3, 2, 3, 2))
    game = ProductGame(nature=((0,), (1,), (2,)), nature_probs=(0.2, 0.3, 0.5),
                       player_of_stage=(0, 1, 0),
                       stage_actions=(2, 3, 2), num_players=2,
                       reward_fn=lambda w, a: (table[w][a], -table[w][a]))
    info = InformationMap([[("nature", 0)], [("action", 0)],
                           [("nature", 0), ("action", 1)]])
    for mode in ("exact", "mc"):
        check_against_reference(CfrRun(game, info, seed=3, randomize_init=True,
                                       mode=mode, player=1), iterations=5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 499))
def test_mc_rows_are_exact_rows_given_the_drawn_state(seed):
    # the sampled mode's estimator, for every Nature state w: at a label
    # that w reaches, a stage's mc row is E[v | label, w], the exact row of
    # the game with Nature fixed to w; at any other label it is zero.  For
    # ph the projection, and so the penalty, is that of the full game
    game, coarse, fine = random_game(seed)
    W = len(game.nature)
    for loop in loops(game, coarse, fine, seed, "mc"):
        t, mats = loop.t, loop.current_mats()
        lam = loop.schedules[0].current(1)
        for w in range(W):
            _, _, thetas = loop._step(mats, lam, np.array([w]))
            if loop.fine is loop.coarse:
                fixed = dataclasses.replace(
                    game, nature_probs=tuple(float(k == w) for k in range(W)))
                ref = CfrRun(fixed, coarse, mode="mc")
                assert ref.t.labels == t.labels  # same label order
            else:
                ref = loop
            th_ref = reference_step(ref, mats, lam, w)[1]
            for i in loop.stages:
                np.testing.assert_allclose(thetas[i], th_ref[i], rtol=0,
                                           atol=TOL)
                off = np.ones(len(thetas[i]), dtype=bool)
                off[hist_labels(t, loop.mf, i)[t.nature_idx == w]] = False
                assert not thetas[i][off].any()
