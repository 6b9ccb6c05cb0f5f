"""Progressive hiding: no-regret learning in an information-relaxed auxiliary
game with a projection penalty.

Each iteration: every local learner on the relaxed map decides, the joint
policy is projected onto the original map (epsilon-floored base), and every
learner observes a penalized, linearized local reward vector.  The projected
policy is implementable at every step by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import Tables, tables_for
from .errors import EnumerationTooLarge
from .games import best_response_value
from .cfr import (EPS_FLOOR, RegretAccounting, counterfactual_matrix,
                  floored_mats, make_banks)
from .infomaps import project_matrices


@dataclass
class PenaltySchedule:
    """Per-iteration penalty weight.

    ``constant`` keeps the base value; ``ramp`` grows it linearly to the base
    value over the horizon; ``controller`` multiplies it by ``factor`` when
    the projected payoff exceeds ``target`` and divides otherwise
    (experimental reconstruction, excluded from the guarantees).
    """

    kind: str = "constant"
    value: float = 0.05
    horizon: int = 0
    target: float = 0.0
    factor: float = 1.1
    _state: float = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "ramp", "controller"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("penalty weight must be nonnegative")

    def reset(self):
        self._state = self.value

    def current(self, t: int) -> float:
        """Weight for 1-based iteration t."""
        if self.kind == "constant":
            return self.value
        if self.kind == "ramp":
            T = max(self.horizon, 1)
            return self.value * min(t, T) / T
        return self._state

    def update(self, projected_payoff: float):
        if self.kind == "controller":
            if projected_payoff > self.target:
                self._state *= self.factor
            else:
                self._state /= self.factor


def penalty_term(lam: float, mu: BehavioralPolicy, gamma: BehavioralPolicy,
                 stage: int, history) -> float:
    """lam * squared distance of the two local vectors seen along a history."""
    a = mu.local(stage, history.nature, history.actions)
    b = gamma.local(stage, history.nature, history.actions)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(lam * np.dot(d, d))


def _stage_refines(t: Tables, mf: int, mc: int, stage: int) -> bool:
    fl, cl = t.label_idx[mf][stage], t.label_idx[mc][stage]
    n = len(t.labels[mf][stage])
    mn = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    mx = np.full(n, -1, dtype=np.int64)
    np.minimum.at(mn, fl, cl)
    np.maximum.at(mx, fl, cl)
    return bool(np.all(mn == mx))


class PhRun:
    def __init__(self, game: ProductGame, coarse: InformationMap,
                 fine: InformationMap, *, schedule: PenaltySchedule = None,
                 learner: str = "regret_matching", eta: float = None,
                 seed: int = 0, randomize_init: bool = False,
                 mode: str = "exact", player: int = 0,
                 keep_history: bool = True):
        if mode not in ("exact", "mc"):
            raise ValueError("mode must be 'exact' or 'mc'")
        self.game = game
        self.coarse = coarse
        self.fine = fine
        self.player = player
        self.mode = mode
        self.keep_history = keep_history
        self.schedule = schedule or PenaltySchedule()
        self.schedule.reset()
        self.t = tables_for(game, coarse, fine)
        self.mf = self.t.map_index(fine)
        self.mc = self.t.map_index(coarse)
        self.stages = list(game.stages_of(player))
        if self.stages != list(range(game.num_stages)):
            raise NotImplementedError("progressive hiding runs on team games "
                                      "where one player owns every stage")
        self.refines = {i: _stage_refines(self.t, self.mf, self.mc, i)
                        for i in self.stages}
        self.f2c = {}
        for i in self.stages:
            if self.refines[i]:
                arr = np.full(len(self.t.labels[self.mf][i]), -1, dtype=np.int64)
                arr[self.t.label_idx[self.mf][i]] = self.t.label_idx[self.mc][i]
                self.f2c[i] = arr
        self.rng = np.random.default_rng(seed)
        self.banks = make_banks(self.t, self.mf, self.stages, learner, eta,
                                self.rng, randomize_init)
        self.accounting = RegretAccounting(self.t, self.mf, self.stages)
        self.iteration = 0
        self.projected = None  # coarse matrices of the latest gamma
        self.trace = {"payoff": [], "payoff_mu": [], "penalty_mass": [],
                      "sum_pos_local": [], "lambda": [], "rho_mu": []}
        self.history = {"gammas": [], "lambdas": []}

    # ------------------------------------------------------------------

    def current_mats(self):
        return [self.banks[i].decide() for i in self.stages]

    def _gamma_and_q(self, mats):
        """Project the iterate; returns (gamma mats, floored pushforward)."""
        fl = floored_mats(mats, EPS_FLOOR)
        qf, pf = self.t.pushforward(fl, self.mf)
        gam = project_matrices(self.t, mats, self.mf, self.mc, qf,
                               stages=self.stages)
        return gam, qf, pf

    def _penalty_cols(self, mats, gam):
        """Per-history squared local distance, one column per own stage."""
        cols = {}
        for i in self.stages:
            diff = (mats[i][self.t.label_idx[self.mf][i]]
                    - gam[i][self.t.label_idx[self.mc][i]])
            cols[i] = np.sum(diff * diff, axis=1)
        return cols

    def iterate(self):
        self.iteration += 1
        lam = self.schedule.current(self.iteration)
        mats = self.current_mats()
        gam, qf, pf = self._gamma_and_q(mats)
        pen = self._penalty_cols(mats, gam)
        if self.mode == "exact":
            thetas = self._exact_thetas(mats, gam, qf, pf, pen, lam)
        else:
            thetas = self._sampled_thetas(mats, gam, qf, pf, pen, lam)
        for i in self.stages:
            self.accounting.update(i, thetas[i], mats[i])
            self.banks[i].observe(thetas[i])
        self._record(mats, gam, pen, lam)
        self.projected = gam
        return gam

    def _exact_thetas(self, mats, gam, qf, pf, pen, lam):
        rewards = self.t.rewards[:, self.player]
        suffix = np.zeros(len(self.t.histories))
        suffixes = {}
        for i in reversed(self.stages):
            suffixes[i] = suffix.copy()
            suffix = suffix + lam * pen[i]
        thetas = {}
        for i in self.stages:
            vals = rewards - suffixes[i]
            base, mass = counterfactual_matrix(self.t, self.mf, i, qf, pf[i], vals)
            if self.refines[i]:
                lin = 2.0 * lam * (mats[i] - gam[i][self.f2c[i]])
            else:
                # conditional average of the projected vector at the played
                # action, per (label, action)
                played = gam[i][self.t.label_idx[self.mc][i],
                                self.t.action_cols[:, i]]
                g_avg = self.t.segment_sum((qf / pf[i]) * played, self.mf, i)
                lin = 2.0 * lam * (mats[i] - g_avg / mass[:, None])
            thetas[i] = base - lin
        return thetas

    def _sampled_thetas(self, mats, gam, qf, pf, pen, lam):
        """Chance sampling mirroring the Monte Carlo CFR mode: one Nature
        draw per episode, exact penalized update on its reachable slice."""
        w_idx = self.rng.choice(len(self.game.nature), p=self.game.probs())
        qm = np.where(self.t.nature_idx == w_idx, qf, 0.0)
        rewards = self.t.rewards[:, self.player]
        suffix = np.zeros(len(self.t.histories))
        suffixes = {}
        for i in reversed(self.stages):
            suffixes[i] = suffix
            suffix = suffix + lam * pen[i]
        thetas = {}
        for i in self.stages:
            vals = rewards - suffixes[i]
            mass = self.t.label_mass(qm, self.mf, i)
            num = self.t.segment_sum((qm / pf[i]) * vals, self.mf, i)
            ok = mass > 0.0
            theta = np.zeros_like(num)
            theta[ok] = num[ok] / mass[ok, None]
            if self.refines[i]:
                lin = 2.0 * lam * (mats[i] - gam[i][self.f2c[i]])
            else:
                played = gam[i][self.t.label_idx[self.mc][i],
                                self.t.action_cols[:, i]]
                g_num = self.t.segment_sum((qm / pf[i]) * played, self.mf, i)
                g_avg = np.zeros_like(g_num)
                g_avg[ok] = g_num[ok] / mass[ok, None]
                lin = 2.0 * lam * (mats[i] - g_avg)
            theta[ok] -= lin[ok]
            thetas[i] = theta
        return thetas

    def _record(self, mats, gam, pen, lam):
        q_raw, _ = self.t.pushforward(mats, self.mf)
        q_gam, _ = self.t.pushforward(gam, self.mc)
        rewards = self.t.rewards[:, self.player]
        payoff_gamma = self.t.expect(q_gam, rewards)
        payoff_mu = self.t.expect(q_raw, rewards)
        pen_mass = float(q_raw @ sum(pen[i] for i in self.stages))
        self.trace["payoff"].append(payoff_gamma)
        self.trace["payoff_mu"].append(payoff_mu)
        self.trace["penalty_mass"].append(pen_mass)
        self.trace["sum_pos_local"].append(self.accounting.sum_pos())
        self.trace["lambda"].append(lam)
        self.trace["rho_mu"].append(payoff_mu - lam * pen_mass)
        self.schedule.update(payoff_gamma)
        if self.keep_history:
            self.history["gammas"].append([np.array(gam[i]) for i in self.stages])
            self.history["lambdas"].append(lam)

    # ------------------------------------------------------------------

    def projected_policy(self) -> BehavioralPolicy:
        if self.projected is None:
            mats = self.current_mats()
            self.projected, _, _ = self._gamma_and_q(mats)
        return self.t.to_policy(self.projected, self.coarse)

    def current_policy(self) -> BehavioralPolicy:
        return self.t.to_policy(self.current_mats(), self.fine)


def local_reward_vector(game: ProductGame, coarse: InformationMap,
                        fine: InformationMap, policy: BehavioralPolicy,
                        lam: float, stage: int, label) -> np.ndarray:
    """Penalized, linearized local reward vector of one (stage, label) slot
    for the given relaxed-map policy."""
    run = PhRun(game, coarse, fine, schedule=PenaltySchedule(value=lam))
    mats = run.t.matrices(policy)
    gam, qf, pf = run._gamma_and_q(mats)
    pen = run._penalty_cols(mats, gam)
    thetas = run._exact_thetas(mats, gam, qf, pf, pen, lam)
    row = run.t.labels[run.mf][stage].index(label)
    return thetas[stage][row]


def ph_iterate(run: PhRun) -> BehavioralPolicy:
    """One step of Algorithm: decide-all, project, observe-all; returns the
    implementable projected policy."""
    gam = run.iterate()
    return run.t.to_policy(gam, run.coarse)


def run_ph(game: ProductGame, coarse: InformationMap, fine: InformationMap,
           iterations: int, **kwargs) -> PhRun:
    run = PhRun(game, coarse, fine, **kwargs)
    for _ in range(iterations):
        run.iterate()
    return run


def regret_report(run: PhRun, *, cap: int = 2_000_000) -> dict:
    """Local regrets, the lower bound on the auxiliary-game regret, and the
    two bound checks (regret decomposition and penalty sizing).

    The bound needs an exact best response on the relaxed map.  When that
    map has perfect recall for the player (matching pennies' ``relaxed`` and
    Trade Comm's ``perfect_recall``), it is exact and uncapped, by backward
    induction; otherwise the label search is used and ``cap`` bounds it.
    The bound is ``None`` when the search exceeds ``cap`` or the run kept no
    history."""
    T = run.iteration
    if T == 0:
        raise ValueError("run has no iterations")
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
    if run.history["gammas"]:
        # S[i][c, a]: time-summed penalty of always playing a at coarse cell c
        S = {}
        for k, i in enumerate(run.stages):
            G = np.stack([g[k] for g in run.history["gammas"]])  # [T, nc, A]
            sq = np.sum(G * G, axis=2, keepdims=True)
            S[i] = np.einsum("t,tca->ca", lams, 1.0 - 2.0 * G + sq)
        v_arr = T * t.rewards[:, run.player].copy()
        for i in run.stages:
            v_arr = v_arr - S[i][t.label_idx[run.mc][i], t.action_cols[:, i]]
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
