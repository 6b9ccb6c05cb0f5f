"""The solver loop's iteration plan: a warm ``iterate()`` of each shape of
acceptance criterion 7 makes at most half the calls into the library's own
functions that it made with per-use lookups, and the learner banks shared
by stages of one width sum their regrets stage by stage."""

import os
import sys

import numpy as np
import pytest

import phide
from phide.cfr import CfrRun, PenaltySchedule
from phide.hiding import PhRun
from phide.zoo import TradeCommSpec, build_trade_comm, random_game

SRC = os.path.dirname(os.path.abspath(phide.__file__)) + os.sep

# Calls into ``src/phide``, comprehensions included, of one warm iterate()
# of each criterion-7 shape at R = 1 and R = 2, when every step looked up
# its workspace, gathered its Nature blocks and ran one bank per stage.
CALLS_BEFORE_PLAN = {"cfr": (103, 105), "perfect_recall": (176, 183),
                     "cheat": (178, 185)}


def criterion_7_loop(shape: str, seed):
    """Criterion 7's CFR baseline, or its PH run to the map ``shape``, on
    trade_comm(3,2) in mc mode."""
    game, maps = build_trade_comm(TradeCommSpec(3, 2))
    kw = dict(learner="regret_matching_plus", seed=seed, randomize_init=True,
              mode="mc")
    if shape == "cfr":
        return CfrRun(game, maps["original"], **kw)
    return PhRun(game, maps["original"], maps[shape],
                 schedule=PenaltySchedule("ramp", 2.0, horizon=400),
                 keep_history=False, **kw)


def library_calls(fn) -> int:
    """The calls into functions of ``src/phide`` that ``fn()`` makes, by
    the profiler's "call" events: each comprehension and generator resume
    counts."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("shape", sorted(CALLS_BEFORE_PLAN))
def test_a_warm_iterate_makes_half_the_calls(shape, R):
    loop = criterion_7_loop(shape, 7 if R == 1 else [7, 8])
    loop.iterate()  # warm: the loop's workspace views are built
    assert library_calls(loop.iterate) <= CALLS_BEFORE_PLAN[shape][R - 1] // 2


def loops():
    """CFR and PH loops whose games have stages of one width apart and
    side by side, at R = 1 and R = 2."""
    games = [random_game(s) for s in (4, 5, 7, 9)]
    for spec in (TradeCommSpec(2, 2), TradeCommSpec(3, 2)):
        game, maps = build_trade_comm(spec)
        games.append((game, maps["original"], maps["perfect_recall"]))
    for k, (game, coarse, fine) in enumerate(games):
        for seed in (k, [k, k + 10]):
            kw = dict(seed=seed, randomize_init=True, mode="mc")
            yield CfrRun(game, coarse, **kw)
            yield PhRun(game, coarse, fine, keep_history=False, **kw)


def test_shared_banks_sum_their_regrets_stage_by_stage():
    # the positive regrets of the stages of one bank are summed per stage,
    # and the sums added in stage order, bit for bit as one bank per stage
    # summed them
    for loop in loops():
        assert len(loop.banks) == len(set(loop.game.stage_actions))
        acc = loop.accounting
        for _ in range(20):
            loop.iterate()
            total = 0.0
            for i in loop.stages:
                pos = np.maximum(acc.cum_theta[i].max(axis=1)
                                 - acc.cum_real[i], 0.0)
                total = total + pos.reshape(loop.R, -1).sum(axis=1)
            assert [trace["sum_pos_local"][-1]
                    for trace in loop.traces] == total.tolist()
