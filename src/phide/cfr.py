"""The solver loop: counterfactual regret minimization, with progressive
hiding as its penalized, information-relaxed generalization.

One loop serves both solvers.  Learners live on a fine map; each step their
iterate is projected onto a coarse map, and every learner observes its local
counterfactual reward minus a linearized projection penalty.  ``CfrRun`` is
the case with no relaxation: the fine map is the coarse one, so the
projection is the identity and the penalty is zero, and the loop skips both.
``hiding.PhRun`` is the general case.

An iteration is passes over the stage prefixes of ``engine.Tables``: a
forward pass gives each prefix's reach under the floored iterate, the pair
masses of that reach give the projection, and one backward pass per stage
owner carries the expected reward of each prefix's suffix, less the
penalty of the later stages, down the stages; each stage's local reward is
the reach-weighted mean of that suffix value per (label, action).  The
trace's payoffs and penalty mass come from forward passes of the raw and
the projected iterate.

Exact mode enumerates the reachable set.  The optional Monte Carlo mode
does chance sampling: one Nature draw w per iteration, and the backward
pass runs on w's block of the prefixes alone.  A label's reward row is
then E[v | label, w], the value conditioned on the drawn state; a label
that w does not reach gets a zero row.  Its mean over the draw weights
Nature states by the prior, not by the posterior given the label, so it
is not an unbiased estimate of the exact row (ROADMAP item 2, open).  The
projection and the trace stay exact.  Runs are deterministic given the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import Tables, label_cells, tables_for
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
            warm = rng.dirichlet(np.ones(A), size=n_labels)
        banks.append(LearnerBank(kind, n_labels, A, eta=eta, warm=warm))
    return banks


def counterfactual_matrix(stage: int, labels: np.ndarray, cells: np.ndarray,
                          n_labels: int, weight: np.ndarray,
                          values: np.ndarray, mass: np.ndarray = None,
                          sampled: bool = False):
    """Per label, the ``weight``-weighted mean of the rows of ``values``:
    entry [g, d] is sum(weight[k] * values[k, d]) / mass[g] over the rows k
    with ``labels[k] == g``; ``cells`` is ``engine.label_cells(labels, A)``,
    the (label, action) bin of each entry of ``values``.

    In the solver loop a row is a stage-``stage`` prefix, ``weight`` its
    floored reach and ``values[k, d]`` the value of its suffix with the
    stage forced to d, so the entry is the conditional forced-action
    expectation given the label.  ``mass``, if given, is the label mass of
    ``weight`` from an earlier call, and is not recomputed.  A label with
    no mass raises ZeroReachLabel, or gets a zero row when ``sampled``.
    Returns (matrix, label mass).
    """
    if mass is None:
        mass = np.bincount(labels, weights=weight, minlength=n_labels)
    ok = mass > 0.0
    if not sampled and not ok.all():
        raise ZeroReachLabel(f"zero conditioning mass at stage {stage}")
    A = values.shape[1]
    num = np.bincount(cells, weights=(weight[:, None] * values).reshape(-1),
                      minlength=n_labels * A).reshape(n_labels, A)
    theta = np.divide(num, mass[:, None], out=np.zeros_like(num),
                      where=ok[:, None])
    return theta, mass


def suffix_values(t: Tables, map_idx: int, mats, values: np.ndarray, w=None,
                  pen=None, lam: float = 0.0):
    """The backward pass.  Yields (i, after) for i = L - 1 down to 0, where
    ``after[p, d]`` is the expectation of the per-history ``values`` over
    the suffix of stage-i prefix p with action d at stage i, the later
    stages played by ``mats`` of map ``map_idx``, less ``lam * pen[j][q]``
    for every later stage j, with q the stage-j prefix passed.  With ``w``,
    Nature state w's block alone."""
    u = t.block(values, w)
    for i in reversed(range(t.game.num_stages)):
        lab = t.block(t.prefix_label[map_idx][i], w)
        after = u.reshape(len(lab), -1)
        yield i, after
        if i:
            u = np.einsum("pa,pa->p", mats[i][lab], after)
            if pen:
                u = u - lam * t.block(pen[i], w)


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
        # each stage owner and its stages, for one backward pass per owner
        self.owners = {p: game.stages_of(p)
                       for p in sorted(set(game.player_of_stage))}
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
        w = None
        if self.mode == "mc":
            w = self.rng.choice(len(self.game.nature), p=self.game.probs())
        gam, pen, thetas = self._step(mats, lam, w)
        for i in self.stages:
            self.accounting.update(i, thetas[i], mats[i])
            self.banks[i].observe(thetas[i], mats[i])
        self._record(mats, gam, pen, lam)
        self.projected = gam
        return gam

    def _step(self, mats, lam, w=None):
        """Returns the projected mats, each stage's per-prefix penalty (none
        when ``fine is coarse``), and the local rewards; with ``w``, those
        of Nature state w's block."""
        fl = floored_mats(mats)
        if self.fine is self.coarse:
            before = self.t.forward(fl[:-1], self.mf, w)
            return mats, {}, self._local_rewards(mats, fl, before, w)
        before, gam, pm = self._project(mats, fl)
        pen = {}
        for i in self.stages:
            d, pair_idx = pair_sq_distance(self.t, mats, gam, self.mf,
                                           self.mc, i)
            pen[i] = d[pair_idx]
        if w is not None:
            before = [self.t.block(b, w) for b in before]
            pm = self.t.pair_masses(before, self.mf, self.mc, w)
        return gam, pen, self._local_rewards(mats, fl, before, w, lam, gam,
                                             pm, pen)

    def _project(self, mats, fl):
        """Returns the forward pass of the floored mats ``fl`` up to stage
        L - 1, where the backward pass starts, the projection of ``mats``
        under it, and its pair masses."""
        before = self.t.forward(fl[:-1], self.mf)
        pm = self.t.pair_masses(before, self.mf, self.mc)
        return before, project_matrices(self.t, mats, self.mf, self.mc,
                                        pm), pm

    def _local_rewards(self, mats, fl, before, w, lam=0.0, gam=None, pm=None,
                       pen=None):
        """Each stage owner's counterfactual reward less the later stages'
        penalty, minus the linearized penalty of the stage itself.
        ``before`` is the forward pass of the floored mats ``fl`` and
        ``pm`` its pair masses, of Nature state w's block when ``w`` is
        given."""
        t, sampled = self.t, w is not None
        thetas = {}
        for p, own in self.owners.items():
            for i, after in suffix_values(t, self.mf, fl, t.rewards[:, p], w,
                                          pen, lam):
                if i not in own:
                    continue
                lab = t.block(t.prefix_label[self.mf][i], w)
                n_labels = len(t.labels[self.mf][i])
                mass = None
                if pen:
                    _, coarse, fine, _ = t.pairs(self.mf, self.mc, i)
                    mass = np.bincount(fine, weights=pm[i],
                                       minlength=n_labels)
                theta, mass = counterfactual_matrix(
                    i, lab, t.block(t.prefix_cell[self.mf][i], w), n_labels,
                    before[i], after, mass, sampled)
                if pen:
                    if i in self.f2c:
                        centre = gam[i][self.f2c[i]]
                    else:
                        # the pair-mass-weighted projected row per label
                        centre, _ = counterfactual_matrix(
                            i, fine, label_cells(fine, gam[i].shape[1]),
                            n_labels, pm[i], gam[i][coarse], mass, sampled)
                    lin = 2.0 * lam * (mats[i] - centre)
                    lin[mass <= 0.0] = 0.0
                    theta -= lin
                thetas[i] = theta
                if i == own[0]:
                    break
        return thetas

    def _record(self, mats, gam, pen, lam):
        """Appends one trace row; returns the raw iterate's forward pass."""
        raw = self.t.forward(mats, self.mf)
        q_gam = raw[-1] if gam is mats else self.t.forward(gam, self.mc)[-1]
        rewards = self.t.rewards[:, self.player]
        payoff = self.t.expect(q_gam, rewards)
        payoff_mu = self.t.expect(raw[-1], rewards)
        pen_mass = float(sum(raw[i] @ pen[i] for i in pen)) if pen else 0.0
        self.trace["payoff"].append(payoff)
        self.trace["payoff_mu"].append(payoff_mu)
        self.trace["penalty_mass"].append(pen_mass)
        self.trace["sum_pos_local"].append(self.accounting.sum_pos())
        self.trace["lambda"].append(lam)
        self.trace["rho_mu"].append(payoff_mu - lam * pen_mass)
        self.schedule.update(payoff)
        return raw

    # ------------------------------------------------------------------

    def projected_policy(self) -> BehavioralPolicy:
        if self.projected is None:
            mats = self.current_mats()
            self.projected = (mats if self.fine is self.coarse else
                              self._project(mats, floored_mats(mats))[1])
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
        raw = super()._record(mats, gam, pen, lam)
        for i in self.stages:
            w = self.t.label_mass(raw[i], self.mf, i)
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
    m, mp = t.map_index(info), t.map_index(policy.info)
    mats = floored_mats(t.matrices(policy))
    before = t.forward(mats, mp)
    p = game.player_of_stage[stage] if player is None else player
    for i, after in suffix_values(t, mp, mats, t.rewards[:, p]):
        if i == stage:
            break
    theta, _ = counterfactual_matrix(stage, t.prefix_label[m][stage],
                                     t.prefix_cell[m][stage],
                                     len(t.labels[m][stage]), before[stage],
                                     after)
    try:
        row = t.labels[m][stage].index(label)
    except ValueError:
        raise ZeroReachLabel(f"label {label!r} not reachable at stage {stage}")
    return theta[row]


def run_cfr(game: ProductGame, info: InformationMap, iterations: int,
            **kwargs) -> CfrRun:
    run = CfrRun(game, info, **kwargs)
    for _ in range(iterations):
        run.iterate()
    return run
