"""The solver loop: counterfactual regret minimization, with progressive
hiding as its penalized, information-relaxed generalization.

One loop serves both solvers.  Learners live on a fine map; each step their
iterate is projected onto a coarse map, and every learner observes its local
counterfactual reward minus a linearized projection penalty.  ``CfrRun`` is
the case with no relaxation: the fine map is the coarse one, so the
projection is the identity and the penalty is zero, and the loop skips both.
``hiding.PhRun`` is the general case.

Exact mode enumerates the reachable set; the optional Monte Carlo mode does
chance sampling: one Nature draw per iteration, and the exact update
restricted to its slice.  Runs are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import Tables, tables_for
from .errors import ZeroReachLabel
from .infomaps import pair_sq_distance, project_matrices
from .learners import LearnerBank

EPS_FLOOR = 1e-6

MODES = ("exact", "mc")
SCHEDULE_KINDS = ("constant", "ramp", "controller")

# Per-iteration trace of every run: payoff of the projected iterate, payoff
# of the raw iterate, reach-weighted penalty, cumulative positive local
# regret, penalty weight, and the penalized payoff payoff_mu - lambda *
# penalty_mass.
TRACE_KEYS = ("payoff", "payoff_mu", "penalty_mass", "sum_pos_local",
              "lambda", "rho_mu")


def floored_mats(mats, eps: float = EPS_FLOOR):
    return [(1.0 - eps) * m + eps / m.shape[1] for m in mats]


def make_banks(t: Tables, map_idx: int, kind: str, eta, rng,
               randomize_init: bool):
    """One learner bank per stage; rows follow the engine's label order."""
    banks = []
    for i in range(t.game.num_stages):
        n_labels = len(t.labels[map_idx][i])
        A = t.game.stage_actions[i]
        warm = None
        if randomize_init:
            warm = np.vstack([rng.dirichlet(np.ones(A)) for _ in range(n_labels)])
        banks.append(LearnerBank(kind, n_labels, A, eta=eta, warm=warm))
    return banks


def counterfactual_matrix(t: Tables, map_idx: int, stage: int, q: np.ndarray,
                          pf_stage: np.ndarray, values: np.ndarray,
                          sampled: bool = False, mass: np.ndarray = None):
    """Conditional forced-action expectations for every (label, action) of a
    stage: entry [g, d] is E_q[values | label = g] with stage forced to d.

    ``q`` holds per-history weights, the floored pushforward whose stage
    factor is ``pf_stage``.  Sampled callers restrict ``q`` to the drawn
    Nature slice; a label with no mass there gets a zero row.  Otherwise a
    label with no mass raises ZeroReachLabel.  ``mass``, if given, is the
    label mass of ``q`` from an earlier call, and is not recomputed.
    Returns (matrix, label mass).
    """
    if mass is None:
        mass = t.label_mass(q, map_idx, stage)
    ok = mass > 0.0
    if not sampled and not ok.all():
        raise ZeroReachLabel(f"zero conditioning mass at stage {stage}")
    num = t.segment_sum(q / pf_stage * values, map_idx, stage)
    theta = np.zeros_like(num)
    theta[ok] = num[ok] / mass[ok, None]
    return theta, mass


class RegretAccounting:
    """Tracks cumulative fed rewards and realized values per label."""

    def __init__(self, t: Tables, map_idx: int):
        stages = range(t.game.num_stages)
        self.cum_theta = {
            i: np.zeros((len(t.labels[map_idx][i]), t.game.stage_actions[i]))
            for i in stages
        }
        self.cum_real = {i: np.zeros(len(t.labels[map_idx][i])) for i in stages}

    def update(self, stage: int, theta: np.ndarray, play: np.ndarray):
        self.cum_theta[stage] += theta
        self.cum_real[stage] += np.sum(theta * play, axis=1)

    def sum_pos(self) -> float:
        total = 0.0
        for i, ct in self.cum_theta.items():
            total += float(np.sum(np.maximum(ct.max(axis=1) - self.cum_real[i], 0.0)))
        return total

    def local_regrets(self, horizon: int):
        out = {}
        for i, ct in self.cum_theta.items():
            out[i] = (ct.max(axis=1) - self.cum_real[i]) / horizon
        return out


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
        if self.kind not in SCHEDULE_KINDS:
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


class SolverLoop:
    """Learners on ``fine``, projected each step onto ``coarse`` and fed
    penalized local rewards.  With ``fine is coarse`` the projection is the
    identity and the penalty zero, bit for bit, so both are skipped.  Every
    stage has a learner; ``player`` names whose payoff the trace records."""

    def __init__(self, game: ProductGame, coarse: InformationMap,
                 fine: InformationMap, schedule: PenaltySchedule, *,
                 learner: str, eta, seed: int, randomize_init: bool,
                 mode: str, player: int):
        if mode not in MODES:
            raise ValueError("mode must be 'exact' or 'mc'")
        self.game = game
        self.coarse = coarse
        self.fine = fine
        self.player = player
        self.mode = mode
        self.schedule = schedule
        self.schedule.reset()
        self.t = tables_for(game, coarse, fine)
        self.mf = self.t.map_index(fine)
        self.mc = self.t.map_index(coarse)
        self.stages = range(game.num_stages)
        # fine -> coarse label index on the stages where fine refines coarse;
        # unused, so not built, when fine is coarse
        self.f2c = {} if fine is coarse else {
            i: arr for i, arr in enumerate(self.t.refinement(fine, coarse))
            if arr is not None}
        self.rng = np.random.default_rng(seed)
        self.banks = make_banks(self.t, self.mf, learner, eta, self.rng,
                                randomize_init)
        self.accounting = RegretAccounting(self.t, self.mf)
        self.iteration = 0
        self.projected = None  # coarse matrices of the latest iterate
        self.trace = {k: [] for k in TRACE_KEYS}

    # ------------------------------------------------------------------

    def current_mats(self):
        return [bank.decide() for bank in self.banks]

    def iterate(self):
        """One step; returns the projected iterate in matrix form."""
        self.iteration += 1
        lam = self.schedule.current(self.iteration)
        mats = self.current_mats()
        gam, q, pf = self._gamma_and_q(mats)
        pen = self._penalty_cols(mats, gam)
        if self.mode == "mc":
            w_idx = self.rng.choice(len(self.game.nature), p=self.game.probs())
            q = np.where(self.t.nature_idx == w_idx, q, 0.0)
        thetas = self._local_rewards(mats, gam, q, pf, pen, lam)
        for i in self.stages:
            self.accounting.update(i, thetas[i], mats[i])
            self.banks[i].observe(thetas[i])
        self._record(mats, gam, pen, lam)
        self.projected = gam
        return gam

    def _gamma_and_q(self, mats):
        """Returns (projected mats, floored pushforward, its stage factors)."""
        qf, pf = self.t.pushforward(floored_mats(mats), self.mf)
        if self.fine is self.coarse:
            return mats, qf, pf
        return project_matrices(self.t, mats, self.mf, self.mc, qf), qf, pf

    def _penalty_cols(self, mats, gam):
        """Per-history squared local distance, one column per own stage,
        computed once per (coarse, fine) label pair."""
        if gam is mats:
            return {}
        cols = {}
        for i in self.stages:
            d, pair_idx = pair_sq_distance(self.t, mats, gam, self.mf,
                                           self.mc, i)
            cols[i] = d[pair_idx]
        return cols

    def _local_rewards(self, mats, gam, q, pf, pen, lam):
        """Each stage owner's counterfactual reward less the later stages'
        penalty, minus the linearized penalty of the stage itself."""
        t, sampled = self.t, self.mode == "mc"
        suffix = 0.0
        thetas = {}
        for i in reversed(self.stages):
            vals = t.rewards[:, self.game.player_of_stage[i]]
            if pen:
                vals = vals - suffix
                suffix = suffix + lam * pen[i]
            theta, mass = counterfactual_matrix(t, self.mf, i, q, pf[i], vals,
                                                sampled)
            if pen:
                if i in self.f2c:
                    centre = gam[i][self.f2c[i]]
                else:
                    # conditional average of the projected probability of
                    # the played action, per (label, action)
                    played = gam[i][t.label_idx[self.mc][i], t.action_cols[:, i]]
                    centre, _ = counterfactual_matrix(t, self.mf, i, q, pf[i],
                                                      played, sampled, mass)
                lin = 2.0 * lam * (mats[i] - centre)
                lin[mass <= 0.0] = 0.0
                theta -= lin
            thetas[i] = theta
        return thetas

    def _record(self, mats, gam, pen, lam):
        """Appends one trace row; returns the raw iterate's pushforward."""
        q_raw, _ = self.t.pushforward(mats, self.mf)
        q_gam = q_raw if gam is mats else self.t.pushforward(gam, self.mc)[0]
        rewards = self.t.rewards[:, self.player]
        payoff = self.t.expect(q_gam, rewards)
        payoff_mu = self.t.expect(q_raw, rewards)
        pen_mass = float(q_raw @ sum(pen.values())) if pen else 0.0
        self.trace["payoff"].append(payoff)
        self.trace["payoff_mu"].append(payoff_mu)
        self.trace["penalty_mass"].append(pen_mass)
        self.trace["sum_pos_local"].append(self.accounting.sum_pos())
        self.trace["lambda"].append(lam)
        self.trace["rho_mu"].append(payoff_mu - lam * pen_mass)
        self.schedule.update(payoff)
        return q_raw

    # ------------------------------------------------------------------

    def projected_policy(self) -> BehavioralPolicy:
        if self.projected is None:
            self.projected = self._gamma_and_q(self.current_mats())[0]
        return self.t.to_policy(self.projected, self.coarse)

    def current_policy(self) -> BehavioralPolicy:
        return self.t.to_policy(self.current_mats(), self.fine)


class CfrRun(SolverLoop):
    """CFR on one map: the loop with no relaxation and no penalty.  Each
    stage's learner is fed its owner's reward; the trace reports
    ``player``'s payoff."""

    def __init__(self, game: ProductGame, info: InformationMap, *,
                 learner: str = "regret_matching", eta: float = None,
                 seed: int = 0, randomize_init: bool = False,
                 mode: str = "exact", player: int = 0):
        super().__init__(game, info, info, PenaltySchedule("constant", 0.0),
                         learner=learner, eta=eta, seed=seed,
                         randomize_init=randomize_init, mode=mode,
                         player=player)
        self.avg_num = {i: np.zeros_like(self.accounting.cum_theta[i])
                        for i in self.stages}
        self.avg_den = {i: np.zeros_like(self.accounting.cum_real[i])
                        for i in self.stages}

    def _record(self, mats, gam, pen, lam):
        q_raw = super()._record(mats, gam, pen, lam)
        for i in self.stages:
            w = self.t.label_mass(q_raw, self.mf, i)
            self.avg_num[i] += w[:, None] * mats[i]
            self.avg_den[i] += w

    def average_policy(self) -> BehavioralPolicy:
        mats = []
        for i in self.stages:
            den = self.avg_den[i]
            A = self.game.stage_actions[i]
            rows = np.full((len(den), A), 1.0 / A)
            ok = den > 0
            rows[ok] = self.avg_num[i][ok] / den[ok, None]
            mats.append(rows)
        return self.t.to_policy(mats, self.coarse)


def counterfactual_rewards(game: ProductGame, info: InformationMap,
                           policy: BehavioralPolicy, stage: int, label,
                           player: int = None) -> np.ndarray:
    """Exact counterfactual reward vector of one (stage, label) slot under an
    epsilon-floored version of ``policy``."""
    t = tables_for(game, info, policy.info)
    m = t.map_index(info)
    mats = floored_mats(t.matrices(policy))
    qf, pf = t.pushforward(mats, t.map_index(policy.info))
    p = game.player_of_stage[stage] if player is None else player
    theta, _ = counterfactual_matrix(t, m, stage, qf, pf[stage],
                                     t.rewards[:, p])
    try:
        row = t.labels[m][stage].index(label)
    except ValueError:
        raise ZeroReachLabel(f"label {label!r} not reachable at stage {stage}")
    return theta[row]


def cfr_iterate(run: CfrRun):
    """One step of the run; returns the iterate policy."""
    mats = run.iterate()
    return run.t.to_policy(mats, run.coarse)


def run_cfr(game: ProductGame, info: InformationMap, iterations: int,
            **kwargs) -> CfrRun:
    run = CfrRun(game, info, **kwargs)
    for _ in range(iterations):
        run.iterate()
    return run
