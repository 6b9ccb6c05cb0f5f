"""The solver loop's workspace: buffers lent by ``engine.Tables`` are shared
by every loop on a game, live inside one step, and nothing a loop hands
out aliases one."""

import tracemalloc

import numpy as np

from phide.cfr import CfrRun
from phide.hiding import PenaltySchedule, PhRun
from phide.zoo import TradeCommSpec, build_trade_comm


def make_loops(game, maps):
    """Loops of every shape the workspace serves: CFR and PH to a refining
    and a non-refining map, exact and mc, one repeat and several."""
    ramp = PenaltySchedule("ramp", 2.0, horizon=6)
    return [
        CfrRun(game, maps["original"], seed=1, randomize_init=True),
        PhRun(game, maps["original"], maps["perfect_recall"], seed=[2, 3],
              schedule=ramp, randomize_init=True),
        PhRun(game, maps["original"], maps["cheat"], seed=4, mode="mc",
              learner="regret_matching_plus", randomize_init=True),
        PhRun(game, maps["original"], maps["perfect_recall"], seed=5,
              learner="ftrl_entropic", randomize_init=True),
    ]


def test_interleaved_loops_give_their_lone_run_traces():
    spec = TradeCommSpec(3, 2)
    lone = []
    for k in range(4):  # each loop alone, on a game of its own
        loop = make_loops(*build_trade_comm(spec))[k]
        for _ in range(6):
            loop.iterate()
        lone.append(loop)
    shared = make_loops(*build_trade_comm(spec))
    assert len({id(loop.t) for loop in shared}) == 1
    for _ in range(6):
        for loop in shared:
            loop.iterate()
    for alone, together in zip(lone, shared):
        assert together.traces == alone.traces
        for a, b in zip(alone.current_mats(), together.current_mats()):
            assert np.array_equal(a, b)


def test_handed_out_arrays_survive_another_loops_step():
    game, maps = build_trade_comm(TradeCommSpec(3, 2))
    loops = make_loops(game, maps)
    for loop in loops:
        loop.iterate()
    for k, loop in enumerate(loops):
        others = loops[:k] + loops[k + 1:]
        lam = loop.schedules[0].current(loop.iteration + 1)
        gam_step, pen, thetas = loop._step(loop.current_mats(), lam)
        handed = {"iterate": loop.iterate(), "_step gam": gam_step,
                  "_step thetas": list(thetas.values()),
                  "current_mats": loop.current_mats()}
        if loop.R == 1:
            policy = loop.projected_policy()
            handed["projected_policy"] = list(policy.table.values())
        kept = {name: [a.copy() for a in arrays]
                for name, arrays in handed.items()}
        for other in others:
            other.iterate()
            other._step(other.current_mats(), 1.0)
        for name, arrays in handed.items():
            for a, b in zip(arrays, kept[name]):
                assert np.array_equal(a, b), (k, name)


def test_one_iterate_allocates_less_than_four_history_arrays():
    # PH to the perfect-recall map on trade_comm(4,3): its last stage has as
    # many (label, action) cells as histories, n = 36 864.  Once the first
    # step has lent its buffers, a step allocates what it hands out and a
    # few label-sized transients, under four float64 arrays of n entries.
    game, maps = build_trade_comm(TradeCommSpec(4, 3))
    run = PhRun(game, maps["original"], maps["perfect_recall"], seed=1,
                randomize_init=True, keep_history=False)
    n = len(run.t.rewards)
    assert n == 36_864
    run.iterate()
    tracemalloc.start()
    try:
        run.iterate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 8
