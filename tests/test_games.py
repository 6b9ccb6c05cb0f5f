import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phide.core import (BehavioralPolicy, InformationMap, ProductGame,
                        random_policy, uniform_policy)
from phide.engine import tables_for
from phide.errors import (EnumerationTooLarge, IllegalSupport,
                          InvalidGame, WellPosednessViolation)
from phide.games import best_response_value, check_well_posed
from phide.infomaps import has_perfect_recall
from phide.zoo import build_matching_pennies, build_trade_comm, random_game

from per_history import hist_actions, hist_labels, hist_probs


def det_policy(game, info, choice):
    """Deterministic policy from a function (stage, label) -> action."""
    pol = uniform_policy(game, info)
    for (i, g), vec in pol.table.items():
        v = np.zeros(len(vec))
        v[choice(i, g)] = 1.0
        pol.table[(i, g)] = v
    return pol


def test_check_well_posed_ok():
    g, maps = build_matching_pennies()
    pol = det_policy(g, maps["original"], lambda i, lab: 0)
    fixed = check_well_posed(g, maps["original"], pol)
    assert set(fixed) == set(g.nature)
    for w, h in fixed.items():
        assert h.nature == w and h.actions == (0, 0)


def test_check_well_posed_detects_peeking():
    # label at stage 0 depends on the stage-1 action: several or zero fixed
    # points for some nature state
    g = ProductGame(nature=((0,),), nature_probs=(1.0,),
                    player_of_stage=(0, 0), stage_actions=(2, 2),
                    reward_fn=lambda w, a: (0.0,))
    # stage 0 copies the stage-1 action and vice versa: both (0, 0) and
    # (1, 1) are fixed points
    peek = InformationMap([lambda w, a: a[1], lambda w, a: a[0]])
    table = {
        (0, (0, 0)): np.array([1.0, 0.0]),
        (0, (0, 1)): np.array([0.0, 1.0]),
        (1, (1, 0)): np.array([1.0, 0.0]),
        (1, (1, 1)): np.array([0.0, 1.0]),
    }
    pol = BehavioralPolicy(peek, table)
    with pytest.raises(WellPosednessViolation):
        check_well_posed(g, peek, pol)


def reference_fixed_points(game, profile):
    """Per nature state, every history that plays the profile's action at
    each of its stages, found history by history."""
    found = {w: [] for w in game.nature}
    for h in tables_for(game).histories:
        if all(int(np.argmax(profile.local(i, *h))) == a
               for i, a in enumerate(h.actions)):
            found[h.nature].append(h)
    return found


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 299), which=st.sampled_from(["coarse", "fine"]))
def test_check_well_posed_matches_per_history_reference(seed, which):
    game, coarse, fine = random_game(seed)
    rng = np.random.default_rng(seed)
    info = coarse if which == "coarse" else fine
    pol = det_policy(game, info,
                     lambda i, g: int(rng.integers(game.stage_actions[i])))
    want = reference_fixed_points(game, pol)
    assert all(len(points) == 1 for points in want.values())
    got = check_well_posed(game, coarse, pol)
    assert got == {w: points[0] for w, points in want.items()}
    assert all(type(a) is int for h in got.values() for a in h.actions)


def _pushforward(game, policy):
    t = tables_for(game, policy.info)
    q = t.pushforward(t.matrices(policy), t.map_index(policy.info))
    return t, q


def test_pushforward_is_a_distribution():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    _, q = _pushforward(g, pol)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all(q >= 0)
    # uniform policy: each of the 12 histories has weight 1/2 * 1/2 * 1/3
    assert len(q) == 12
    assert np.all(np.abs(q - 1.0 / 12) < 1e-12)


def test_expectation_matches_manual_sum():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    t, q = _pushforward(g, pol)
    val = float(q @ np.array([g.reward(h.nature, h.actions)[0]
                              for h in t.histories]))
    # uniform: 1/3 pass (0.6), 2/3 coin flip at 0.5
    assert abs(val - (0.6 / 3 + (2 / 3) * 0.5)) < 1e-12


def test_best_response_matching_pennies():
    g, maps = build_matching_pennies()
    assert abs(best_response_value(g, maps["original"], 0) - 1.0) < 1e-12


def test_best_response_on_relaxed_map():
    g, maps = build_matching_pennies()
    assert abs(best_response_value(g, maps["relaxed"], 0) - 1.0) < 1e-12


def test_best_response_recovers_policy():
    g, maps = build_matching_pennies()
    val, pol = best_response_value(g, maps["original"], 0, return_policy=True)
    assert abs(val - 1.0) < 1e-12
    t, q = _pushforward(g, pol)
    achieved = sum(p * g.reward(h.nature, h.actions)[0]
                   for h, p in zip(t.histories, q))
    assert abs(achieved - val) < 1e-12


def test_best_response_values_override():
    g, maps = build_matching_pennies()
    # constant reward: any policy achieves it
    t = tables_for(g, maps["original"])
    v = best_response_value(g, maps["original"], 0,
                            values=[2.5 for _ in t.histories])
    assert abs(v - 2.5) < 1e-12


def test_best_response_cap():
    g, maps = build_trade_comm()
    with pytest.raises(EnumerationTooLarge):
        best_response_value(g, maps["original"], 0, cap=100)


def test_player_indices_are_checked():
    # a player outside the game's players names itself and the player
    # count, whichever solver is asked
    from phide.cfr import run_cfr
    from phide.hiding import PhRun
    from phide.relaxation import RelaxationProblem
    g, maps = build_matching_pennies()
    m = maps["original"]
    calls = [lambda p: run_cfr(g, m, 1, player=p),
             lambda p: PhRun(g, m, maps["relaxed"], player=p),
             lambda p: best_response_value(g, m, p),
             lambda p: RelaxationProblem(g, m, maps["relaxed"], 1.0, player=p)]
    for call in calls:
        for p in (3, 2, 1, -1):
            with pytest.raises(InvalidGame, match=re.escape(
                    f"player {p} is out of range: game matching_pennies "
                    f"has 1 player(s)")):
                call(p)


def test_best_response_with_fixed_opponent():
    # two players alternating; player 1 fixed to a mixed strategy
    g = ProductGame(nature=((0,), (1,)), nature_probs=(0.5, 0.5),
                    player_of_stage=(0, 1), stage_actions=(2, 2),
                    reward_fn=lambda w, a: ((1.0 if a[0] == w[0] else 0.0)
                                            + (0.5 if a[1] == 0 else 0.0),) * 2,
                    num_players=2)
    info = InformationMap([[("nature", 0)], [("action", 0)]])
    fixed = uniform_policy(g, info)
    v = best_response_value(g, info, 0, fixed=fixed)
    # player 0 matches nature (1.0), opponent uniform adds 0.25
    assert abs(v - 1.25) < 1e-12
    with pytest.raises(ValueError):
        best_response_value(g, info, 0)


def test_best_response_opponent_moving_first():
    # the opponent's skewed mix precedes a stage that does not see it, so
    # its weight must count when the player's label pools both histories
    g = ProductGame(nature=((0,),), nature_probs=(1.0,),
                    player_of_stage=(1, 0), stage_actions=(2, 2),
                    reward_fn=lambda w, a: (float(a[0] == a[1]),) * 2,
                    num_players=2)
    info = InformationMap([[], []])
    fixed = BehavioralPolicy(info, {(0, (0, ())): np.array([0.1, 0.9]),
                                    (1, (1, ())): np.array([0.5, 0.5])})
    assert has_perfect_recall(g, info, 0)
    v, pol = best_response_value(g, info, 0, fixed=fixed, return_policy=True)
    assert abs(v - 0.9) < 1e-12
    assert np.array_equal(pol.table[(1, (1, ()))], [0.0, 1.0])
    t = tables_for(g, info)
    assert abs(_brute_force(t, info, fixed, t.rewards[:, 0]) - v) < 1e-12
    # the other player's stages suffice, and a local vector of the wrong
    # length is rejected, not misread
    only = BehavioralPolicy(info, {(0, (0, ())): np.array([0.1, 0.9])})
    assert best_response_value(g, info, 0, fixed=only) == v
    bad = BehavioralPolicy(info, {(0, (0, ())): np.array([0.1, 0.4, 0.5])})
    with pytest.raises(IllegalSupport, match="local vector of length 3"):
        best_response_value(g, info, 0, fixed=bad)


def _brute_force(t, info, fixed, values, limit=4096):
    """Max of expected ``values`` over every deterministic policy of player 0
    on ``info``, every other player following ``fixed``; ``None`` when there
    are more than ``limit`` such policies."""
    game = t.game
    m = t.map_index(info)
    own = game.stages_of(0)
    sizes = [game.stage_actions[i] for i in own for _ in t.labels[m][i]]
    count = math.prod(sizes)
    if count > limit:
        return None
    q = hist_probs(t) * values
    for i in range(game.num_stages):
        if i not in own:
            mx = t.map_index(fixed.info)
            rows = np.array([fixed.table[(i, g)] for g in t.labels[mx][i]])
            q = q * rows[hist_labels(t, mx, i), hist_actions(t)[:, i]]
    choices = np.array(list(itertools.product(*map(range, sizes))),
                       dtype=np.int64).reshape(count, len(sizes))
    played = np.ones((len(choices), len(q)), dtype=bool)
    offset = 0
    for i in own:
        played &= (choices[:, offset + hist_labels(t, m, i)]
                   == hist_actions(t)[:, i])
        offset += len(t.labels[m][i])
    return float(np.max(played @ q))


def _expected(t, info, pol, fixed, values):
    """Expected ``values`` when player 0 follows ``pol`` and every other
    player ``fixed``."""
    game = t.game
    q = hist_probs(t)
    for i in range(game.num_stages):
        src = pol if game.player_of_stage[i] == 0 else fixed
        m = t.map_index(src.info)
        rows = np.array([src.table[(i, g)] for g in t.labels[m][i]])
        q = q * rows[hist_labels(t, m, i), hist_actions(t)[:, i]]
    return float(q @ values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 299), which=st.sampled_from(["coarse", "fine"]),
       two_players=st.booleans(), random_values=st.booleans())
def test_backward_induction_equals_search(seed, which, two_players,
                                          random_values):
    # with or without perfect recall, the search agrees with brute force
    # wherever brute force is cheap, and its policy attains its value
    game, coarse, fine = random_game(seed)
    info = coarse if which == "coarse" else fine
    rng = np.random.default_rng(seed)
    fixed = None
    if two_players:
        owner = tuple(int(p) for p in rng.integers(0, 2, game.num_stages))
        game = dataclasses.replace(
            game, player_of_stage=owner, num_players=2,
            reward_fn=lambda w, a, f=game.reward_fn: f(w, a) * 2)
        fixed = random_policy(game, info, rng)
    t = tables_for(game, info)
    override = None
    values = t.rewards[:, 0]
    if random_values:
        values = override = rng.uniform(-1.0, 1.0, len(t.histories))
    v, pol = best_response_value(game, info, 0, fixed, values=override,
                                 return_policy=True)
    reference = _brute_force(t, info, fixed, values)
    if reference is not None:
        assert abs(v - reference) <= 1e-12
    assert abs(v - _expected(t, info, pol, fixed, values)) <= 1e-12
    assert best_response_value(game, info, 0, fixed, values=values) == v


def test_values_argument_on_both_routes():
    g, maps = build_matching_pennies()
    for name in ("original", "relaxed"):  # without, with perfect recall
        t = tables_for(g, maps[name])
        vals = np.array([h.actions[0] - h.nature[0] for h in t.histories],
                        dtype=float)
        v, pol = best_response_value(g, maps[name], 0, values=vals,
                                     return_policy=True)
        _, q = _pushforward(g, pol)
        assert abs(v - q @ vals) <= 1e-12
        assert abs(v - _brute_force(t, maps[name], None, vals)) <= 1e-12
        with pytest.raises(ValueError):
            best_response_value(g, maps[name], 0, values=vals[:-1])


def test_clash_on_zero_weight_prefixes_solves_at_the_root():
    # the stage-1 label forgets Nature and the stage-0 action, so the recall
    # closure splits it four ways.  Under ``values`` Nature state 1 is worth
    # nothing, and its closure labels pick action 0 where state 0's pick
    # action 1: a clash on zero-weight prefixes only, which the root solves
    g = ProductGame(nature=((0,), (1,)), nature_probs=(0.5, 0.5),
                    player_of_stage=(0, 0),
                    stage_actions=(2, 2), reward_fn=lambda w, a: (0.0,))
    forgetful = InformationMap([[("nature", 0)], []])
    t = tables_for(g, forgetful)
    values = np.array([float(h.nature == (0,) and h.actions[1] == 1)
                       for h in t.histories])
    assert not has_perfect_recall(g, forgetful, 0)
    v = best_response_value(g, forgetful, 0, values=values, cap=0)
    assert v == _brute_force(t, forgetful, None, values) == 0.5
