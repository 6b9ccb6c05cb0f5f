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

A loop runs R seeded repeats at once, one per seed, on a leading repeat
axis.  Each stage's learner rows, each prefix array and each stage's label
pairs are R blocks end to end, repeat by repeat, and an index into n bins
reads r·n + k in repeat r (``engine.stacked``); these offset index arrays
are built once, with the loop, the pairs from the stacked labels.  Each
``bincount``, ``reduceat`` and gather then runs once for all R repeats and
sums each bin in the order a lone run would, and the trace's dot products
run once per repeat, so each repeat's trace is bit for bit that of a run
of its seed alone.  Each repeat keeps its own ``Generator``, which draws
its initial rows and then its Nature states, and its own
``PenaltySchedule`` state.  A single run is R = 1 and uses the ``Tables``
arrays themselves; what reads one run (``trace``, the policies,
``hiding.regret_report``) raises ``BatchedRun`` when R > 1.

Exact mode enumerates the reachable set.  The optional Monte Carlo mode
does chance sampling: one Nature draw w per iteration and repeat, and the
backward pass runs on w's block of the repeat's prefixes alone.  Each
sampled row is E[v | label, w]: at a label that w reaches, the exact row of
the game with Nature fixed to w (for progressive hiding, with the
projection of the full game); a label that w does not reach gets a zero
row.  This is the state-conditioned estimator.  Its mean over the draw
weights Nature states by the prior, not by the posterior given the label,
so it is not an unbiased estimate of the exact row, and acceptance
criteria 6 and 7 measure learning under it: in exact mode plain CFR
escapes the signalling trap of criterion 6.  The draw is
``Generator.choice``'s, one uniform number per repeat inverted through
Nature's cumulative distribution, which is built once with the loop.  The
projection and the trace stay exact.  Runs are deterministic given the
seed.

A step allocates little beyond what it hands out.  The game's ``Tables``
owns the workspace (``Tables.work``): one buffer per (role, stage), lent
to every loop on the game and grown to the largest request.  A buffer's
contents live inside one ``iterate()`` and no longer (``_step``'s
penalty, too, only until the next step on the game), so loops on one game
may step in any interleaving, one thread at a time.  Nothing a loop hands out aliases a buffer: the
projected iterate, the local rewards, ``current_mats()`` and the policies
are new arrays.  Each learner bank updates its regrets in place and
returns the played reward that ``RegretAccounting`` adds, and at a stage
where the fine map refines the coarse one the difference between the
iterate and its projection is computed once, for the penalty and for its
linearization.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame, check_player
from .engine import (Tables, forward, label_cells, label_pairs, pair_masses,
                     refinement, scaled, stacked, tables_for, tiled)
from .errors import BatchedRun, InvalidSolver, ZeroReachLabel
from .infomaps import coarse_masses, pair_sq_distance, project_matrices
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


def floored_mats(mats, eps: float = EPS_FLOOR, out=None):
    """Each matrix of ``mats`` mixed with the uniform row: (1 - eps) m +
    eps / A, written to ``out[i]`` (of ``mats[i]``'s shape) if given."""
    fl = []
    for i, m in enumerate(mats):
        f = np.multiply(m, 1.0 - eps, out=None if out is None else out[i])
        f += eps / m.shape[1]
        fl.append(f)
    return fl


def make_banks(t: Tables, map_idx: int, kind: str, eta, rngs,
               randomize_init: bool):
    """One learner bank per stage, with a row per engine label for each
    generator of ``rngs`` in turn.  With ``randomize_init`` the rows of
    repeat r are one Dirichlet call per stage on ``rngs[r]``, stage by
    stage."""
    banks = []
    for i in range(t.game.num_stages):
        n_labels = len(t.labels[map_idx][i])
        A = t.game.stage_actions[i]
        warm = None
        if randomize_init:
            warm = np.concatenate([rng.dirichlet(np.ones(A), size=n_labels)
                                   for rng in rngs])
        banks.append(LearnerBank(kind, len(rngs) * n_labels, A, eta=eta,
                                 warm=warm))
    return banks


def _row_shapes(mats, labels) -> list:
    """Per stage i, the shape [len(labels[i]), A] of the rows of
    ``mats[i]`` that ``labels[i]`` picks."""
    return [(len(lab), m.shape[1]) for m, lab in zip(mats, labels)]


def nature_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative distribution that ``Generator.choice`` draws from
    when given ``p=probs``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def nature_draws(cdf: np.ndarray, rngs) -> np.ndarray:
    """One state per generator of ``rngs``: for ``cdf = nature_cdf(p)``,
    each is ``rng.choice(len(p), p=p)``, one uniform draw inverted through
    ``cdf``, and leaves ``rng`` in the same state."""
    return cdf.searchsorted([rng.random() for rng in rngs], side="right")


def counterfactual_matrix(stage: int, labels: np.ndarray, cells: np.ndarray,
                          n_labels: int, weight: np.ndarray,
                          values: np.ndarray, mass: np.ndarray = None,
                          sampled: bool = False, out: np.ndarray = None):
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
    ``out``, if given, is the array of ``values``' shape that the weighted
    values are written to.  Returns (matrix, label mass); the matrix is a
    new array.
    """
    if mass is None:
        mass = np.bincount(labels, weights=weight, minlength=n_labels)
    ok = mass > 0.0
    reached = ok.all()
    if not (sampled or reached):
        raise ZeroReachLabel(f"zero conditioning mass at stage {stage}")
    A = values.shape[1]
    weighted = np.multiply(weight[:, None], values, out=out)
    num = np.bincount(cells, weights=weighted.reshape(-1),
                      minlength=n_labels * A).reshape(n_labels, A)
    theta = np.divide(num, mass[:, None], out=num, where=ok[:, None])
    if not reached:
        theta[~ok] = 0.0  # the rows ``where`` left as they were
    return theta, mass


def suffix_values(labels, mats, values: np.ndarray, pen=None, out=None):
    """The backward pass.  Yields (i, after) for i = L - 1 down to 0, where
    ``after[p, d]`` is the expectation of the per-history ``values`` over
    the suffix of stage-i prefix p with action d at stage i, the later
    stages played by the rows of ``mats`` that ``labels`` picks at each
    prefix, less ``pen[j][q]`` for every later stage j, with q the stage-j
    prefix passed.  ``out[i]``, if given for i >= 1, is a pair of arrays
    that stage i's gathered rows [len(labels[i]), A] and its prefixes'
    expectation [len(labels[i])] are written to."""
    u = values
    for i in reversed(range(len(labels))):
        lab = labels[i]
        after = u.reshape(len(lab), -1)
        yield i, after
        if i:
            rows, u = (None, None) if out is None else out[i]
            rows = np.take(mats[i], lab, axis=0, out=rows, mode="clip")
            u = np.einsum("pa,pa->p", rows, after, out=u)
            if pen:
                u -= pen[i]


class RegretAccounting:
    """Tracks cumulative fed rewards and realized values per label row, for
    R stacked repeats."""

    def __init__(self, t: Tables, map_idx: int, repeats: int):
        stages = range(t.game.num_stages)
        self.repeats = repeats
        self.cum_theta = {
            i: np.zeros((repeats * len(t.labels[map_idx][i]),
                         t.game.stage_actions[i]))
            for i in stages
        }
        self.cum_real = {i: np.zeros(repeats * len(t.labels[map_idx][i]))
                         for i in stages}

    def update(self, stage: int, theta: np.ndarray, played: np.ndarray):
        """Adds the fed rewards ``theta`` and each row's played reward,
        ``LearnerBank.observe``'s result."""
        self.cum_theta[stage] += theta
        self.cum_real[stage] += played

    def sum_pos(self) -> np.ndarray:
        """Each repeat's sum of positive cumulative local regrets."""
        total = 0.0
        for i, ct in self.cum_theta.items():
            pos = np.maximum(ct.max(axis=1) - self.cum_real[i], 0.0)
            total = total + pos.reshape(self.repeats, -1).sum(axis=1)
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
    _state: float = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidSolver(f"unknown schedule kind {self.kind!r}; known "
                                f"kinds: {', '.join(SCHEDULE_KINDS)}")
        if not 0 <= self.value < math.inf:
            raise InvalidSolver(f"value must be finite and nonnegative, got "
                                f"{self.value!r}")
        if not 0 < self.factor < math.inf:
            raise InvalidSolver(f"factor must be positive and finite, got "
                                f"{self.factor!r}")

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
    stage has a learner; ``player`` names whose payoff the trace records.

    ``seed`` is one seed, for a single run, or a sequence of R seeds, for R
    repeats on the leading axis (module docstring); each repeat gets its
    own copy of ``schedule``, and ``traces[r]`` is repeat r's trace."""

    def __init__(self, game: ProductGame, coarse: InformationMap,
                 fine: InformationMap, schedule: PenaltySchedule, *,
                 learner: str, eta, seed, randomize_init: bool,
                 mode: str, player: int):
        if mode not in MODES:
            raise InvalidSolver(f"mode must be 'exact' or 'mc', got {mode!r}")
        check_player(game, player)
        seeds = [seed] if np.ndim(seed) == 0 else list(seed)
        if not seeds:
            raise InvalidSolver(f"need at least one seed, got {seed!r}")
        self.game = game
        self.coarse = coarse
        self.fine = fine
        self.player = player
        self.mode = mode
        self.R = R = len(seeds)
        self.schedules = [copy.copy(schedule) for _ in seeds]
        for s in self.schedules:
            s.reset()
        self.t = t = tables_for(game, coarse, fine)
        self.mf = t.map_index(fine)
        self.mc = t.map_index(coarse)
        self.stages = range(game.num_stages)
        A = game.stage_actions
        n_fine = [len(t.labels[self.mf][i]) for i in self.stages]
        # each stage owner and its stages, for one backward pass per owner
        self.owners = {p: game.stages_of(p)
                       for p in sorted(set(game.player_of_stage))}
        # the R repeats' prefix arrays; repeat r's Nature blocks are blocks
        # r·W to r·W + W - 1 of each
        self._n_blocks = len(t.nature_probs) * R
        self._first_block = len(t.nature_probs) * np.arange(R)
        self.start = tiled(t.nature_probs, R)
        self.labels = [stacked(t.prefix_label[self.mf][i], n_fine[i], R)
                       for i in self.stages]
        self.cells = [stacked(t.cells(self.mf, i), n_fine[i] * A[i], R)
                      for i in self.stages]
        self.values = {p: tiled(t.rewards[:, p], R) for p in self.owners}
        # the (coarse, fine) label pairs of the stacked labels and the fine
        # -> coarse label index on the stages where fine refines coarse;
        # unused, so not built, when fine is coarse
        self.pairs, self.f2c = [], {}
        if fine is not coarse:
            n_coarse = [len(t.labels[self.mc][i]) for i in self.stages]
            self.coarse_labels = [
                stacked(t.prefix_label[self.mc][i], n_coarse[i], R)
                for i in self.stages]
            self.pairs = [label_pairs(self.labels[i], self.coarse_labels[i],
                                      R * n_fine[i], R * n_coarse[i])
                          for i in self.stages]
            f2c = [refinement(pairs, R * n)
                   for pairs, n in zip(self.pairs, n_fine)]
            self.f2c = {i: arr for i, arr in enumerate(f2c) if arr is not None}
            # per stage that does not refine, each pair's (fine label,
            # action) bins
            self.pair_cells = {i: label_cells(self.pairs[i][2], A[i])
                               for i in self.stages if i not in self.f2c}
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self._cdf = nature_cdf(t.nature_probs)
        self.banks = make_banks(t, self.mf, learner, eta, self.rngs,
                                randomize_init)
        self.accounting = RegretAccounting(t, self.mf, R)
        self.iteration = 0
        self.projected = None  # coarse matrices of the latest iterate
        self.traces = [{k: [] for k in TRACE_KEYS} for _ in seeds]

    # ------------------------------------------------------------------

    def _single(self, what: str):
        """Raises BatchedRun, naming ``what``, unless this is one run."""
        if self.R > 1:
            raise BatchedRun(f"{what} reads a single run, and this run "
                             f"stacks {self.R} repeats")

    @property
    def trace(self) -> dict:
        """The trace of a single run."""
        self._single("trace")
        return self.traces[0]

    def current_mats(self):
        return [bank.decide() for bank in self.banks]

    def iterate(self):
        """One step of every repeat; returns the projected iterate in
        matrix form, the repeats' rows stacked."""
        self.iteration += 1
        lam = np.array([s.current(self.iteration) for s in self.schedules])
        mats = self.current_mats()
        w = None
        if self.mode == "mc":
            w = nature_draws(self._cdf, self.rngs)
        gam, pen, thetas = self._step(mats, lam, w)
        for i in self.stages:
            played = self.banks[i].observe(
                thetas[i], mats[i],
                out=self.t.work("weighted", i, mats[i].shape))
            self.accounting.update(i, thetas[i], played)
        self._record(mats, gam, pen, lam)
        self.projected = gam
        return gam

    # A step's per-prefix and per-label arrays live in the workspace of
    # ``self.t`` (``Tables.work``), one buffer per (role, stage i).  A step
    # uses them in five phases: projection, penalty, backward pass, observe,
    # record.  Each role holds one live value at a time:
    #   floor     the floored iterate at stage i (projection to backward
    #             pass);
    #   reach     the floored forward pass's stage-(i + 1) reach (projection
    #             to backward pass);
    #   pen       the penalty of each stage-i prefix (penalty to record);
    #   diff      the stage-i iterate less its centre, then its linearized
    #             penalty (penalty, or backward pass, to backward pass);
    #   later, suffix  per stage-i prefix, the penalty times lambda and the
    #             suffix value (backward pass);
    #   rows      rows gathered from a stage-i matrix: the projection's fine
    #             rows, the backward pass's rows, then the raw iterate's
    #             forward pass;
    #   weighted  the projection's weighted rows, the squared difference,
    #             the counterfactual weighted values, the learners' scratch,
    #             then the projected iterate's forward pass.
    # What a step returns (the projection, the local rewards) is new.

    def _work(self, role: str, shapes) -> list:
        """Per stage i, the workspace array of (``role``, i) with shape
        ``shapes[i]``."""
        return [self.t.work(role, i, shape) for i, shape in enumerate(shapes)]

    def _block(self, x: np.ndarray, rows) -> np.ndarray:
        """The Nature blocks ``rows`` of the stacked prefix array ``x``, end
        to end; all of ``x`` when ``rows`` is None."""
        if rows is None:
            return x
        return x.reshape(self._n_blocks, -1)[rows].reshape(-1)

    def _step(self, mats, lam, w=None):
        """Returns the projected mats, each stage's per-prefix penalty (none
        when ``fine is coarse``), and the local rewards under the penalty
        weight ``lam``, one for all repeats or one each.  With ``w``, each
        repeat's Nature state, the rewards are of its block alone.  The
        penalty lives in the workspace until the next step on the game."""
        lam = np.broadcast_to(np.asarray(lam, dtype=float), (self.R,))
        rows = None if w is None else self._first_block + w
        labels = [self._block(lab, rows) for lab in self.labels]
        fl = floored_mats(mats, out=self._work("floor",
                                               [m.shape for m in mats]))
        if not self.pairs:
            before = forward(self._block(self.start, rows), fl[:-1], labels,
                             out=self._work("reach", _row_shapes(fl[:-1],
                                                                 labels)))
            return mats, {}, self._local_rewards(mats, fl, before, labels,
                                                 rows)
        before, gam, pm = self._project(mats, fl)
        pen, diff = self._penalty(mats, gam)
        if rows is not None:
            before = [self._block(b, rows) for b in before]
            # the pair masses of the Nature blocks ``rows``
            pm = pair_masses([(self._block(idx, rows), c, f, o)
                              for idx, c, f, o in self.pairs], before)
        return gam, pen, self._local_rewards(mats, fl, before, labels, rows,
                                             lam, gam, pm, pen, diff)

    def _project(self, mats, fl):
        """Returns the forward pass of the floored mats ``fl`` up to stage
        L - 1, where the backward pass starts, the projection of ``mats``
        under it, and its pair masses."""
        before = forward(self.start, fl[:-1], self.labels,
                         out=self._work("reach", _row_shapes(fl[:-1],
                                                             self.labels)))
        pm = pair_masses(self.pairs, before)
        shapes = [(len(fine), m.shape[1])
                  for (_, _, fine, _), m in zip(self.pairs, mats)]
        gam = project_matrices(self.pairs, mats, pm,
                               coarse_masses(self.pairs, pm),
                               out=list(zip(self._work("rows", shapes),
                                            self._work("weighted", shapes))))
        return before, gam, pm

    def _penalty(self, mats, gam):
        """Each stage's penalty per prefix, the squared distance between
        its fine row of ``mats`` and its coarse row of ``gam``, and, at each
        stage where fine refines coarse, ``mats[i] - gam[i][f2c[i]]``, the
        difference that the penalty and its linearization share."""
        pen, diff = {}, {}
        for i, pairs in enumerate(self.pairs):
            if i in self.f2c:
                d = self.t.work("diff", i, mats[i].shape)
                np.take(gam[i], self.f2c[i], axis=0, out=d, mode="clip")
                diff[i] = d = np.subtract(mats[i], d, out=d)
                sq = np.multiply(d, d, out=self.t.work("weighted", i, d.shape)
                                 ).sum(axis=1)
                idx = self.labels[i]
            else:
                sq = pair_sq_distance(pairs, mats[i], gam[i])
                idx = pairs[0]
            pen[i] = np.take(sq, idx, out=self.t.work("pen", i, idx.shape),
                             mode="clip")
        return pen, diff

    def _local_rewards(self, mats, fl, before, labels, rows, lam=None,
                       gam=None, pm=None, pen=None, diff=None):
        """Each stage owner's counterfactual reward less the later stages'
        penalty ``lam`` · ``pen``, minus the linearized penalty of the
        stage itself, ``diff[i]`` where given.  ``before`` is the forward
        pass of the floored mats ``fl``, ``labels`` its prefixes' labels
        and ``pm`` its pair masses, of the Nature blocks ``rows`` when
        given."""
        sampled = rows is not None
        later = None
        if pen:
            later = {}
            for i in pen:
                if i:  # stage 0's penalty is no later stage's
                    x = self._block(pen[i], rows)
                    later[i] = scaled(lam, x,
                                      out=self.t.work("later", i, x.shape))
        shapes = _row_shapes(fl, labels)
        back = list(zip(self._work("rows", shapes),
                        self._work("suffix", [s[:1] for s in shapes])))
        thetas = {}
        for p, own in self.owners.items():
            values = self._block(self.values[p], rows)
            for i, after in suffix_values(labels, fl, values, later, back):
                if i not in own:
                    continue
                n_rows = len(mats[i])
                mass = None
                if pen:
                    _, coarse, fine, _ = self.pairs[i]
                    mass = np.bincount(fine, weights=pm[i], minlength=n_rows)
                theta, mass = counterfactual_matrix(
                    i, labels[i], self._block(self.cells[i], rows), n_rows,
                    before[i], after, mass, sampled,
                    out=self.t.work("weighted", i, after.shape))
                if pen:
                    d = diff.get(i)
                    if d is None:
                        # the pair-mass-weighted projected row per label
                        centre, _ = counterfactual_matrix(
                            i, fine, self.pair_cells[i], n_rows, pm[i],
                            gam[i][coarse], mass, sampled)
                        d = np.subtract(mats[i], centre, out=self.t.work(
                            "diff", i, mats[i].shape))
                    lin = scaled(2.0 * lam, d, out=d)
                    lin[mass <= 0.0] = 0.0
                    theta -= lin
                thetas[i] = theta
                if i == own[0]:
                    break
        return thetas

    def _record(self, mats, gam, pen, lam):
        """Appends each repeat's trace row; returns the raw iterate's
        forward pass.  Each payoff and penalty mass is a dot product over
        one repeat's block, as in a lone run."""
        R = self.R
        shapes = _row_shapes(mats, self.labels)
        raw = forward(self.start, mats, self.labels,
                      out=self._work("rows", shapes))
        q_gam = (raw[-1] if gam is mats
                 else forward(self.start, gam, self.coarse_labels,
                              out=self._work("weighted", shapes))[-1])
        rewards = self.t.rewards[:, self.player]
        payoff = [float(q @ rewards) for q in q_gam.reshape(R, -1)]
        payoff_mu = [float(q @ rewards) for q in raw[-1].reshape(R, -1)]
        pen_mass = [0.0] * R
        if pen:
            blocks = [(raw[i].reshape(R, -1), pen[i].reshape(R, -1))
                      for i in pen]
            pen_mass = [float(sum(q[r] @ d[r] for q, d in blocks))
                        for r in range(R)]
        sum_pos = self.accounting.sum_pos().tolist()
        for r, (trace, schedule) in enumerate(zip(self.traces,
                                                  self.schedules)):
            lam_r = float(lam[r])
            trace["payoff"].append(payoff[r])
            trace["payoff_mu"].append(payoff_mu[r])
            trace["penalty_mass"].append(pen_mass[r])
            trace["sum_pos_local"].append(sum_pos[r])
            trace["lambda"].append(lam_r)
            trace["rho_mu"].append(payoff_mu[r] - lam_r * pen_mass[r])
            schedule.update(payoff[r])
        return raw

    # ------------------------------------------------------------------

    def projected_policy(self) -> BehavioralPolicy:
        self._single("projected_policy")
        if self.projected is None:
            mats = self.current_mats()
            self.projected = (self._project(mats, floored_mats(mats))[1]
                              if self.pairs else mats)
        return self.t.to_policy(self.projected, self.coarse)

    def current_policy(self) -> BehavioralPolicy:
        self._single("current_policy")
        return self.t.to_policy(self.current_mats(), self.fine)


class CfrRun(SolverLoop):
    """CFR on one map: the loop with no relaxation and no penalty.  Each
    stage's learner is fed its owner's reward; the trace reports
    ``player``'s payoff."""

    def __init__(self, game: ProductGame, info: InformationMap, *,
                 learner: str = "regret_matching", eta: float = None,
                 seed=0, randomize_init: bool = False,
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
            w = np.bincount(self.labels[i], weights=raw[i],
                            minlength=len(mats[i]))
            self.avg_num[i] += w[:, None] * mats[i]
            self.avg_den[i] += w

    def average_policy(self) -> BehavioralPolicy:
        self._single("average_policy")
        mats = []
        for i in self.stages:
            den = self.avg_den[i]
            A = self.game.stage_actions[i]
            rows = np.full((len(den), A), 1.0 / A)
            ok = den > 0
            rows[ok] = self.avg_num[i][ok] / den[ok, None]
            mats.append(rows)
        return self.t.to_policy(mats, self.coarse)


def run_cfr(game: ProductGame, info: InformationMap, iterations: int,
            **kwargs) -> CfrRun:
    run = CfrRun(game, info, **kwargs)
    for _ in range(iterations):
        run.iterate()
    return run
