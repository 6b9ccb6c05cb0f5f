"""Choice of relaxation map on the Trade Comm game.

Trade Comm deals each of two agents an item; they exchange one message each
and then must request the exact trade, so the messages have to encode the
items.  Two relaxations of the original map are compared against plain
learning: a perfect-recall map showing both items and all past actions, and
a cheating map that shows both items but not the own past message.  Both
are run with a ramped penalty and sampled (one Nature draw per iteration)
updates.
"""

import numpy as np

from phide import (PenaltySchedule, TradeCommSpec, build_trade_comm, run_cfr,
                   run_ph, trade_comm_optimal_value)

spec = TradeCommSpec(2, 2)
game, maps = build_trade_comm(spec)
print(f"optimal team value of trade_comm(2,2): "
      f"{trade_comm_optimal_value(2, 2):.4f}")

reps, iters = 20, 400
seeds = list(range(reps))  # one batched solver loop per map, a repeat each
runs = {"baseline": run_cfr(game, maps["original"], iters,
                            learner="regret_matching_plus", seed=seeds,
                            randomize_init=True, mode="mc")}
for mname in ("perfect_recall", "cheat"):
    runs[mname] = run_ph(game, maps["original"], maps[mname], iters,
                         schedule=PenaltySchedule("ramp", 2.0, horizon=iters),
                         learner="regret_matching_plus", seed=seeds,
                         randomize_init=True, mode="mc", keep_history=False)
finals = {name: [run.traces[r]["payoff"][-1] for r in range(reps)]
          for name, run in runs.items()}

for name, vals in finals.items():
    print(f"{name:<15} mean final payoff {np.mean(vals):.3f} "
          f"(min {np.min(vals):.3f}, max {np.max(vals):.3f})")
