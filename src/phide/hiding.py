"""Progressive hiding: no-regret learning in an information-relaxed auxiliary
game with a projection penalty.

Each iteration: every local learner on the relaxed map decides, the joint
policy is projected onto the original map (epsilon-floored base), and every
learner observes a penalized, linearized local reward vector.  The projected
policy is implementable at every step by construction.  ``PhRun`` runs the
solver loop of ``cfr``, and records its trace keys; CFR is the case with the
relaxed map equal to the original one and no penalty.
"""

from __future__ import annotations

import numpy as np

from .cfr import PenaltySchedule, SolverLoop
from .core import InformationMap, ProductGame, check_player
from .errors import EnumerationTooLarge, InvalidGame, InvalidSolver
from .games import best_response_value


class PhRun(SolverLoop):
    """Progressive hiding on a team game: learners on ``fine``, projected
    onto ``coarse``.  ``keep_history`` keeps, per stage, the running sum
    ``penalty_sums[i][c, a] = Σ_t λ_t(1 − 2γ_t[c, a] + ‖γ_t[c]‖²)``: the
    time-summed penalty of always playing a at coarse label c, which
    ``regret_report`` needs for its bound.  Its size does not grow with the
    iterations."""

    def __init__(self, game: ProductGame, coarse: InformationMap,
                 fine: InformationMap, *, schedule: PenaltySchedule = None,
                 learner: str = "regret_matching", eta: float = None,
                 seed=0, randomize_init: bool = False,
                 mode: str = "exact", player: int = 0,
                 keep_history: bool = True):
        check_player(game, player)
        if game.stages_of(player) != tuple(range(game.num_stages)):
            raise InvalidGame("progressive hiding runs on team games where "
                              "one player owns every stage")
        super().__init__(game, coarse, fine, schedule or PenaltySchedule(),
                         learner=learner, eta=eta, seed=seed,
                         randomize_init=randomize_init, mode=mode,
                         player=player)
        self.penalty_sums = {
            i: np.zeros((self.R * len(self.t.labels[self.mc][i]),
                         game.stage_actions[i]))
            for i in self.stages} if keep_history else None

    def _record(self, mats, gam, pen, lam):
        super()._record(mats, gam, pen, lam)
        if self.penalty_sums is not None:
            for i in self.stages:  # repeat r's rows times lam[r]
                G = gam[i]
                sq = np.sum(G * G, axis=1, keepdims=True)
                S = self.penalty_sums[i].reshape(self.R, -1)
                S += lam[:, None] * (1.0 - 2.0 * G + sq).reshape(self.R, -1)


def run_ph(game: ProductGame, coarse: InformationMap, fine: InformationMap,
           iterations: int, **kwargs) -> PhRun:
    run = PhRun(game, coarse, fine, **kwargs)
    for _ in range(iterations):
        run.iterate()
    return run


def regret_report(run: PhRun, *, cap: int = 2_000_000) -> dict:
    """Local regrets, the lower bound on the auxiliary-game regret, and the
    two bound checks (regret decomposition and penalty sizing).

    The bound needs an exact best response on the relaxed map, from
    ``best_response_value``'s branch-and-bound search with ``cap`` bounding
    its branching.  When that map has perfect recall for the player
    (matching pennies' ``relaxed``, Trade Comm's ``perfect_recall``), or its
    relaxed optimum already fits it (Trade Comm's ``cheat``), the search
    solves it at the root, which no cap limits.  The bound is ``None`` when
    the search exceeds ``cap`` or the run kept no history."""
    run._single("regret_report")
    T = run.iteration
    if T == 0:
        raise InvalidSolver("run has no iterations")
    t = run.t
    acc = run.accounting
    local = acc.local_regrets(T)
    local_pos = {i: np.maximum(r, 0.0) for i, r in local.items()}
    sum_pos = float(sum(r.sum() for r in local_pos.values()))
    lams = np.array(run.trace["lambda"][:T])
    pen_mass = np.array(run.trace["penalty_mass"][:T])
    penalty_avg = float(np.mean(lams * pen_mass))

    rt_lower = None
    thm_holds = None
    if run.penalty_sums is not None:
        v_arr = T * t.rewards[:, run.player].copy()
        for i, S in run.penalty_sums.items():
            v_arr = v_arr - np.repeat(S.reshape(-1)[t.cells(run.mc, i)],
                                      t.stride[i + 1])
        try:
            best_sum = best_response_value(run.game, run.fine, run.player,
                                           cap=cap, values=v_arr)
            rt_lower = (best_sum - float(np.sum(run.trace["rho_mu"][:T]))) / T
            thm_holds = rt_lower <= sum_pos + 1e-9
        except EnumerationTooLarge:
            pass

    prop_holds = penalty_avg <= sum_pos + 2.0 * t.reward_inf_norm + 1e-9
    return {
        "iterations": T,
        "local_regret": local,
        "local_regret_pos": local_pos,
        "sum_pos_local": sum_pos,
        "rT_lower_bound": rt_lower,
        "penalty_avg": penalty_avg,
        "thm_bound_holds": thm_holds,
        "prop_bound_holds": prop_holds,
        "reward_inf_norm": t.reward_inf_norm,
    }
