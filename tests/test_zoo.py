import numpy as np
import pytest

from phide.core import enumerate_reachable, uniform_policy
from phide.engine import tables_for
from phide.errors import InvalidGame
from phide.games import best_response_value
from phide.infomaps import is_finer
from phide.zoo import (MatchingPenniesSpec, TradeCommSpec,
                       build_matching_pennies, build_trade_comm, random_game,
                       trade_comm_optimal_value)


def test_matching_pennies_rewards():
    g, _ = build_matching_pennies()
    # nature 0 = coins should match
    assert g.reward((0,), (0, 0))[0] == 1.0
    assert g.reward((0,), (0, 1))[0] == 0.0
    assert g.reward((1,), (0, 1))[0] == 1.0
    assert g.reward((1,), (1, 1))[0] == 0.0
    assert g.reward((0,), (1, 2))[0] == 0.6
    assert g.reward((1,), (0, 2))[0] == 0.6


def test_matching_pennies_spec_ordering():
    with pytest.raises(ValueError):
        MatchingPenniesSpec(payoff_match=0.5, payoff_mismatch=0.0,
                            payoff_pass=0.7)


def test_matching_pennies_information():
    g, m = build_matching_pennies()
    orig = m["original"]
    # Alice sees the nature draw, Bob only her coin
    assert orig.label(0, (1,), (0, 0)) == (0, (1,))
    assert orig.label(1, (1,), (0, 0)) == (1, (0,))
    assert m["relaxed"].label(1, (1,), (0, 0)) == (1, (1, 0))


def test_trade_comm_rewards():
    g, _ = build_trade_comm(TradeCommSpec(2, 2))
    # items (0, 1): agent 1 asks (give 0, want 1) = 1, agent 2 (give 1, want 0) = 2
    assert g.reward((0, 1), (0, 0, 1, 2))[0] == 1.0
    assert g.reward((0, 1), (0, 0, 1, 1))[0] == 0.0
    assert g.reward((0, 1), (0, 0, 2, 2))[0] == 0.0
    assert g.reward((1, 1), (1, 0, 3, 3))[0] == 1.0


def test_trade_comm_information_maps():
    g, m = build_trade_comm()
    w = (0, 1)
    acts = (1, 0, 0, 0)
    assert m["original"].label(2, w, acts) == (2, (0, 1, 0))
    assert m["cheat"].label(2, w, acts) == (2, (0, 1, 0))
    assert m["perfect_recall"].label(3, w, acts) == (3, (0, 1, 1, 0, 0))
    assert is_finer(m["perfect_recall"], m["original"], g)


def test_trade_comm_sizes():
    for n, m_, count in ((2, 2, 4 * 2 * 2 * 4 * 4), (3, 2, 9 * 2 * 2 * 9 * 9)):
        g, maps = build_trade_comm(TradeCommSpec(n, m_))
        assert len(enumerate_reachable(g, maps["original"])) == count


def test_optimal_values():
    assert trade_comm_optimal_value(2, 2) == 1.0
    assert trade_comm_optimal_value(1, 1) == 1.0
    # with one message and two items, communication carries no information:
    # agent 1 can still always win its own half on one item pairing
    v12 = trade_comm_optimal_value(2, 1)
    assert 0.0 < v12 < 1.0


def test_best_response_trade_comm_22():
    g, m = build_trade_comm()
    assert abs(best_response_value(g, m["original"], 0) - 1.0) < 1e-12


def test_random_game_reproducible_and_refining():
    for seed in range(8):
        g1, c1, f1 = random_game(seed)
        g2, c2, f2 = random_game(seed)
        assert g1.stage_actions == g2.stage_actions
        assert np.allclose(g1.probs(), g2.probs())
        hs = enumerate_reachable(g1, f1)
        assert len(hs) <= 10_000
        assert is_finer(f1, c1, g1)
        for h in hs:
            assert np.array_equal(g1.reward(h.nature, h.actions),
                                  g2.reward(h.nature, h.actions))


def test_uniform_value_trade_comm():
    g, m = build_trade_comm()
    t = tables_for(g, m["original"])
    v = t.expected_reward(uniform_policy(g, m["original"]))
    # both trades must match exactly: (1/4) * (1/4) chance
    assert abs(v - 1.0 / 16) < 1e-12


def test_matching_pennies_spec_error_is_typed():
    with pytest.raises(InvalidGame, match="^need payoff_mismatch < "
                                          "payoff_pass < payoff_match$"):
        MatchingPenniesSpec(payoff_pass=1.5)


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
def test_trade_comm_spec_error_is_typed(n, m):
    with pytest.raises(InvalidGame, match="^item and message counts must "
                                          "be >= 1$"):
        TradeCommSpec(n, m)
