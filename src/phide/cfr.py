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

The loop builds its iteration plan once, with the loop: per stage
(``_Stage``), the stacked labels and (label, action) bins, the row count
and action count, the (coarse, fine) label pairs and either the fine ->
coarse index or the pairs' bins, and each stacked array again with one
Nature block per row.  A step is then one loop over the plan per phase.
In ``mc`` mode a repeat's Nature block is a row of those arrays, and a
step gathers the R repeats' rows with one ``take`` per array.  Stages of
one action count share one ``LearnerBank`` (``make_banks``), their rows
one stage after another, so a step makes one decide and one observe per
width; ``mats[i]`` and the accounting's ``cum_theta[i]`` and
``cum_real[i]`` are stage i's rows of its bank.  All the arithmetic is row
by row, and each repeat's regret sum adds its stages' sums in stage order,
so sharing changes no bit.

A step allocates little beyond what it hands out.  Each loop owns its
workspace: one float64 buffer per (role, stage), allocated once, before
the loop's first views, at the largest size that the loop asks of it, and
never replaced.  The views of those buffers that a step writes are built
once per kind of step, exact or sampled (``SolverLoop._workspace``), so a
step looks none up.  A buffer's contents live inside one ``iterate()`` and
no longer (``_step``'s penalty, too, only until this loop's next step), and
loops share no memory, so loops on one game may step in any interleaving.
Nothing a loop hands out aliases a buffer: the projected iterate,
``_step``'s local rewards, ``current_mats()`` and the policies are new
arrays.  Each learner bank updates its regrets in place and returns the
played reward that ``RegretAccounting`` adds, and at a stage where the fine
map refines the coarse one the difference between the iterate and its
projection is computed once, for the penalty and for its linearization.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame, check_player
from .engine import (Tables, forward, label_cells, label_pairs, pair_masses,
                     refinement, stacked, tables_for, tiled)
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
    """One learner bank per action width, in order of first use.  A bank
    holds its stages' rows one stage after another, in stage order, and a
    stage's rows are a row per engine label for each generator of ``rngs``
    in turn.  Returns the banks and, per stage, (its bank, its row slice).
    With ``randomize_init`` the rows of stage i for repeat r are one
    Dirichlet call on ``rngs[r]``, stage by stage."""
    widths, sizes, warm, where = {}, [], [], []
    for i, A in enumerate(t.game.stage_actions):
        k = widths.setdefault(A, len(widths))
        if k == len(sizes):
            sizes.append(0)
            warm.append([])
        n_labels = len(t.labels[map_idx][i])
        if randomize_init:
            warm[k] += [rng.dirichlet(np.ones(A), size=n_labels)
                        for rng in rngs]
        where.append((k, slice(sizes[k], sizes[k] + len(rngs) * n_labels)))
        sizes[k] += len(rngs) * n_labels
    banks = [LearnerBank(kind, n, A, eta=eta,
                         warm=np.concatenate(rows) if randomize_init else None)
             for A, n, rows in zip(widths, sizes, warm)]
    return banks, where


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
                          sampled: bool = False, out: np.ndarray = None,
                          into: np.ndarray = None):
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
    values are written to, and ``into`` the [n_labels, A] array that the
    matrix is.  Returns (matrix, label mass); without ``into`` the matrix
    is a new array.
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
    # a label without mass has no weight in ``num``: its row is 0 / 1
    div = mass if reached else np.where(ok, mass, 1.0)
    theta = np.divide(num, div[:, None], out=num if into is None else into)
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
            rows = mats[i].take(lab, axis=0, out=rows, mode="clip")
            u = np.einsum("pa,pa->p", rows, after, out=u)
            if pen:
                u -= pen[i]


class RegretAccounting:
    """Tracks cumulative fed rewards and realized values per label row, for
    R stacked repeats: one array each per learner bank, with ``cum_theta[i]``
    and ``cum_real[i]`` the row views of stage i (``make_banks``)."""

    def __init__(self, banks, where, repeats: int):
        self.repeats = repeats
        self.where = where
        self.theta = [np.zeros(bank.cum.shape) for bank in banks]
        self.real = [np.zeros(len(bank.cum)) for bank in banks]
        self.cum_theta = {i: self.theta[k][rows]
                          for i, (k, rows) in enumerate(where)}
        self.cum_real = {i: self.real[k][rows]
                         for i, (k, rows) in enumerate(where)}

    def update(self, bank: int, theta: np.ndarray, played: np.ndarray):
        """Adds the fed rewards ``theta`` of a bank and each row's played
        reward, ``LearnerBank.observe``'s result."""
        self.theta[bank] += theta
        self.real[bank] += played

    def sum_pos(self) -> np.ndarray:
        """Each repeat's sum of positive cumulative local regrets, summed
        stage by stage."""
        pos = [np.maximum(ct.max(axis=1) - cr, 0.0)
               for ct, cr in zip(self.theta, self.real)]
        total = 0.0
        for k, rows in self.where:
            total = total + pos[k][rows].reshape(self.repeats, -1).sum(axis=1)
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


class _Stage:
    """Stage ``i`` of a loop's iteration plan, built once with the loop.

    Its ``rows`` learner rows, of width ``A``, are rows ``sl`` of learner
    bank ``bank``.  ``labels`` and ``cells`` are each stacked stage-i
    prefix's fine label and (label, action) bins.  With a relaxation,
    ``coarse_labels`` are its coarse labels, ``pairs`` the (coarse, fine)
    label pairs, and ``f2c`` each fine label's coarse label where the fine
    map refines the coarse one, else None, with ``pair_cells`` each pair's
    (fine label, action) bins.  ``labels2``, ``cells2`` and ``idx2`` (the
    pairs' prefix index) hold one Nature block per row."""

    __slots__ = ("i", "A", "rows", "bank", "sl", "labels", "cells",
                 "coarse_labels", "pairs", "f2c", "pair_cells", "labels2",
                 "cells2", "idx2")


class _Views:
    """The views of a loop's workspace buffers that its step writes to, per
    stage, for a step on all the prefixes or on one Nature state per repeat
    (``SolverLoop._workspace``).  Several views of one (role, stage) buffer
    hold its live values at different times of a step (the roles are
    listed above ``SolverLoop._step``)."""

    __slots__ = ("floor", "reach", "project", "sq", "diff", "pen", "later",
                 "back", "cf", "raw", "gam", "scratch", "before2", "pen2",
                 "raw_r", "diff_r", "pen_r", "later_r", "gam_r", "fed")


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
        # each stage owner and its stages, for one backward pass per owner
        self.owners = {p: game.stages_of(p)
                       for p in sorted(set(game.player_of_stage))}
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self._cdf = nature_cdf(t.nature_probs)
        self.banks, where = make_banks(t, self.mf, learner, eta, self.rngs,
                                       randomize_init)
        self.accounting = RegretAccounting(self.banks, where, R)
        # the R repeats' prefix arrays; repeat r's Nature blocks are blocks
        # r·W to r·W + W - 1 of each, and the rows of ``x.reshape(blocks,
        # -1)``
        blocks = len(t.nature_probs) * R
        self._first_block = len(t.nature_probs) * np.arange(R)
        self.start = tiled(t.nature_probs, R)
        self._start2 = self.start.reshape(blocks, -1)
        self.values = {p: tiled(t.rewards[:, p], R) for p in self.owners}
        self._values2 = {p: np.ascontiguousarray(v).reshape(blocks, -1)
                         for p, v in self.values.items()}
        self.plan = []
        for i, A in enumerate(game.stage_actions):
            s = _Stage()
            n_fine = len(t.labels[self.mf][i])
            s.i, s.A, s.rows, (s.bank, s.sl) = i, A, R * n_fine, where[i]
            s.labels = stacked(t.prefix_label[self.mf][i], n_fine, R)
            s.cells = stacked(t.cells(self.mf, i), n_fine * A, R)
            s.labels2 = s.labels.reshape(blocks, -1)
            s.cells2 = s.cells.reshape(blocks, -1)
            s.coarse_labels = s.pairs = s.f2c = s.pair_cells = s.idx2 = None
            if fine is not coarse:
                n_coarse = len(t.labels[self.mc][i])
                s.coarse_labels = stacked(t.prefix_label[self.mc][i],
                                          n_coarse, R)
                s.pairs = label_pairs(s.labels, s.coarse_labels, s.rows,
                                      R * n_coarse)
                s.idx2 = s.pairs[0].reshape(blocks, -1)
                s.f2c = refinement(s.pairs, s.rows)
                if s.f2c is None:
                    s.pair_cells = label_cells(s.pairs[2], A)
            self.plan.append(s)
        self._work = None  # (role, stage) -> buffer, with the first views
        self._views = {}  # sampled -> the views of its kind of step
        self.iteration = 0
        self.projected = None  # coarse matrices of the latest iterate
        self.traces = [{k: [] for k in TRACE_KEYS} for _ in seeds]

    # ------------------------------------------------------------------

    @property
    def f2c(self) -> dict:
        """Each stage's fine -> coarse label index, by stage, on the
        stages where the fine map refines the coarse one."""
        return {s.i: s.f2c for s in self.plan if s.f2c is not None}

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

    def _decide(self):
        """Each bank's rows, and per stage its rows of them."""
        play = [bank.decide() for bank in self.banks]
        return play, [play[s.bank][s.sl] for s in self.plan]

    def current_mats(self):
        return self._decide()[1]

    def iterate(self):
        """One step of every repeat; returns the projected iterate in
        matrix form, the repeats' rows stacked."""
        self.iteration += 1
        lam = np.array([s.current(self.iteration) for s in self.schedules])
        play, mats = self._decide()
        w = None
        if self.mode == "mc":
            w = nature_draws(self._cdf, self.rngs)
        v = self._workspace(w is not None)
        gam, pen, _ = self._step(mats, lam, w, v.fed)
        for k, bank in enumerate(self.banks):
            played = bank.observe(v.fed[k], play[k], out=v.scratch[k])
            self.accounting.update(k, v.fed[k], played)
        self._record(mats, gam, pen, lam)
        self.projected = gam
        return gam

    # A step's per-prefix and per-label arrays live in the loop's workspace,
    # one buffer per (role, stage i), and the step writes them through the
    # views of ``_workspace``.  A step uses them in five phases: projection,
    # penalty, backward pass, observe, record.
    # Each role holds one live value at a time:
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
    #             the counterfactual weighted values, the learners' scratch
    #             (a bank's, at its last stage), then the projected
    #             iterate's forward pass;
    #   fed       a bank's local rewards, at its last stage (backward pass
    #             to observe, in ``iterate``).
    # What ``_step`` returns (the projection, the local rewards) is new.

    def _workspace(self, sampled: bool) -> _Views:
        """The views of a step, on one Nature block per repeat if
        ``sampled``, built on first use.  The first views built allocate the
        loop's buffers, one per (role, stage), each at the largest size that
        an exact step's views ask of it: a sampled step's view is never
        larger, and is a leading slice of the same buffer."""
        v = self._views.get(sampled)
        if v is None:
            if self._work is None:  # a sizing pass over an exact step's views
                sizes = {}

                def size(role, i, shape):  # an array of no memory
                    n = max(sizes.get((role, i), 0), math.prod(shape))
                    sizes[role, i] = n
                    return np.broadcast_to(0.0, shape)

                self._make_views(size, False)
                self._work = {key: np.empty(n) for key, n in sizes.items()}

            def view(role, i, shape):
                return self._work[role, i][:math.prod(shape)].reshape(shape)

            v = self._views[sampled] = self._make_views(view, sampled)
        return v

    def _make_views(self, work, sampled: bool) -> _Views:
        """The views of a step, each ``work(role, stage, shape)``.  A name
        ending in ``_r`` is a view with one row per repeat."""
        t, plan, R = self.t, self.plan, self.R
        relaxed, v = self.fine is not self.coarse, _Views()
        W = len(t.nature_probs)
        back = [len(s.labels) // W if sampled else len(s.labels)
                for s in plan]  # the backward pass's prefixes per stage
        v.floor = [work("floor", s.i, (s.rows, s.A)) for s in plan]
        v.reach = [work("reach", s.i, (len(s.labels) if relaxed
                                       else back[s.i], s.A))
                   for s in plan[:-1]]
        v.back = [None] + [(work("rows", s.i, (back[s.i], s.A)),
                            work("suffix", s.i, (back[s.i],)))
                           for s in plan[1:]]
        v.cf = [work("weighted", s.i, (back[s.i], s.A)) for s in plan]
        v.raw = [work("rows", s.i, (len(s.labels), s.A)) for s in plan]
        v.raw_r = [x.reshape(R, -1) for x in [self.start] + v.raw]
        last = {s.bank: s.i for s in plan}
        v.scratch = [work("weighted", last[k], bank.cum.shape)
                     for k, bank in enumerate(self.banks)]
        v.fed = [work("fed", last[k], bank.cum.shape)
                 for k, bank in enumerate(self.banks)]
        if relaxed:
            v.project = [(work("rows", s.i, (len(s.pairs[2]), s.A)),
                          work("weighted", s.i, (len(s.pairs[2]), s.A)))
                         for s in plan]
            v.sq = [None if s.f2c is None
                    else work("weighted", s.i, (s.rows, s.A))
                    for s in plan]
            v.diff = [work("diff", s.i, (s.rows, s.A)) for s in plan]
            v.diff_r = [x.reshape(R, -1) for x in v.diff]
            v.pen = [work("pen", s.i, (len(s.labels),)) for s in plan]
            v.pen_r = [x.reshape(R, -1) for x in v.pen]
            v.later = [None] + [work("later", s.i, (back[s.i],))
                                for s in plan[1:]]
            v.later_r = [None] + [x.reshape(R, -1) for x in v.later[1:]]
            v.gam = [work("weighted", s.i, (len(s.labels), s.A))
                     for s in plan]
            v.gam_r = v.gam[-1].reshape(R, -1)
            blocks = len(self._start2)
            v.before2 = [x.reshape(blocks, -1) for x in [self.start] +
                         [r.reshape(-1) for r in v.reach]]
            v.pen2 = [x.reshape(blocks, -1) for x in v.pen]
        return v

    def _step(self, mats, lam, w=None, fed=None):
        """Returns the projected mats, each stage's per-prefix penalty (none
        when ``fine is coarse``), and the local rewards under the penalty
        weight ``lam``, one for all repeats or one each.  With ``w``, each
        repeat's Nature state, the rewards are of its block alone.  The
        penalty lives in the workspace until this loop's next step.
        ``fed``, if given, is one array per bank, of its shape, that the
        rewards are written to; stage i's are then its rows of them."""
        R = self.R
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (R,):
            lam = np.broadcast_to(lam, (R,))
        sampled = w is not None
        v = self._workspace(sampled)
        if fed is None:
            fed = [np.empty(bank.cum.shape) for bank in self.banks]
        fl = floored_mats(mats, out=v.floor)
        relaxed = self.fine is not self.coarse
        gam, pen, before, pm, later = mats, {}, None, None, None
        if relaxed:
            before, gam, pm = self._project(mats, fl, v)
            pen = self._penalty(mats, gam, v)
            later = v.pen_r
        if sampled:
            # the rows of each repeat's Nature block, one gather per array
            rows = self._first_block + w
            labels, cells, values = [], [], {}
            if relaxed:
                before, pm, later = [], [], []
            for s in self.plan:
                labels.append(s.labels2.take(rows, axis=0).reshape(-1))
                cells.append(s.cells2.take(rows, axis=0).reshape(-1))
                if relaxed:
                    before.append(v.before2[s.i].take(rows, axis=0)
                                  .reshape(-1))
                    # the pair masses of the blocks
                    pm.append(np.bincount(s.idx2.take(rows, axis=0)
                                          .reshape(-1), weights=before[-1],
                                          minlength=len(s.pairs[2])))
                    later.append(v.pen2[s.i].take(rows, axis=0))
            for p, v2 in self._values2.items():
                values[p] = v2.take(rows, axis=0).reshape(-1)
        else:
            labels = [s.labels for s in self.plan]
            cells = [s.cells for s in self.plan]
            values = self.values
        if before is None:
            start = (self._start2.take(rows, axis=0).reshape(-1) if sampled
                     else self.start)
            before = forward(start, fl[:-1], labels, out=v.reach)
        thetas = self._local_rewards(mats, fl, before, labels, cells, values,
                                     fed, sampled, lam, gam, pm, later, v)
        return gam, pen, thetas

    def _project(self, mats, fl, v: _Views):
        """Returns the forward pass of the floored mats ``fl`` up to stage
        L - 1, where the backward pass starts, the projection of ``mats``
        under it, and its pair masses."""
        pairs = [s.pairs for s in self.plan]
        before = forward(self.start, fl[:-1], [s.labels for s in self.plan],
                         out=v.reach)
        pm = pair_masses(pairs, before)
        gam = project_matrices(pairs, mats, pm, coarse_masses(pairs, pm),
                               out=v.project)
        return before, gam, pm

    def _penalty(self, mats, gam, v: _Views):
        """Each stage's penalty per prefix, the squared distance between
        its fine row of ``mats`` and its coarse row of ``gam``.  At each
        stage where fine refines coarse, ``mats[i] - gam[i][f2c[i]]``, the
        difference that the penalty and its linearization share, is left
        in the stage's diff view."""
        pen = {}
        for s in self.plan:
            i = s.i
            if s.f2c is not None:
                d = gam[i].take(s.f2c, axis=0, out=v.diff[i], mode="clip")
                d = np.subtract(mats[i], d, out=d)
                sq = np.multiply(d, d, out=v.sq[i]).sum(axis=1)
                idx = s.labels
            else:
                sq = pair_sq_distance(s.pairs, mats[i], gam[i])
                idx = s.pairs[0]
            pen[i] = sq.take(idx, out=v.pen[i], mode="clip")
        return pen

    def _local_rewards(self, mats, fl, before, labels, cells, values, fed,
                       sampled, lam, gam, pm, pen, v: _Views):
        """Each stage owner's counterfactual reward less the later stages'
        penalty ``lam`` · ``pen``, minus the linearized penalty of the
        stage itself, written to its rows of ``fed``.  ``before`` is the
        forward pass of the floored mats ``fl``, ``labels`` and ``cells``
        its prefixes' labels and bins, ``values`` the rewards per owner and
        ``pm`` its pair masses, of one Nature block per repeat if
        ``sampled``; ``pen[i]`` has a row per repeat."""
        later = None
        if pen:
            later, lam_r = {}, lam[:, None]
            lam2 = 2.0 * lam_r
            for s in self.plan[1:]:  # stage 0's penalty is no later stage's
                np.multiply(lam_r, pen[s.i], out=v.later_r[s.i])
                later[s.i] = v.later[s.i]
        thetas = {}
        for p, own in self.owners.items():
            for i, after in suffix_values(labels, fl, values[p], later,
                                          v.back):
                if i not in own:
                    continue
                s = self.plan[i]
                mass = None
                if pen:
                    mass = np.bincount(s.pairs[2], weights=pm[i],
                                       minlength=s.rows)
                theta, mass = counterfactual_matrix(
                    i, labels[i], cells[i], s.rows, before[i], after, mass,
                    sampled, out=v.cf[i], into=fed[s.bank][s.sl])
                if pen:
                    lin = v.diff[i]
                    if s.f2c is None:
                        # the pair-mass-weighted projected row per label
                        centre, _ = counterfactual_matrix(
                            i, s.pairs[2], s.pair_cells, s.rows, pm[i],
                            gam[i][s.pairs[1]], mass, sampled)
                        np.subtract(mats[i], centre, out=lin)
                    np.multiply(lam2, v.diff_r[i], out=v.diff_r[i])
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
        v = self._workspace(False)  # of every prefix, in either kind of step
        raw = forward(self.start, mats, [s.labels for s in self.plan],
                      out=v.raw)
        q_raw = q_gam = v.raw_r[-1]
        if gam is not mats:
            forward(self.start, gam, [s.coarse_labels for s in self.plan],
                    out=v.gam)
            q_gam = v.gam_r
        rewards = self.t.rewards[:, self.player]
        sum_pos = self.accounting.sum_pos().tolist()
        for r, (trace, schedule) in enumerate(zip(self.traces,
                                                  self.schedules)):
            payoff = float(q_gam[r] @ rewards)
            payoff_mu = float(q_raw[r] @ rewards)
            pen_mass = 0
            for i in pen:
                pen_mass = pen_mass + v.raw_r[i][r] @ v.pen_r[i][r]
            pen_mass = float(pen_mass)
            lam_r = float(lam[r])
            trace["payoff"].append(payoff)
            trace["payoff_mu"].append(payoff_mu)
            trace["penalty_mass"].append(pen_mass)
            trace["sum_pos_local"].append(sum_pos[r])
            trace["lambda"].append(lam_r)
            trace["rho_mu"].append(payoff_mu - lam_r * pen_mass)
            schedule.update(payoff)
        return raw

    # ------------------------------------------------------------------

    def projected_policy(self) -> BehavioralPolicy:
        self._single("projected_policy")
        if self.projected is None:
            mats = self.current_mats()
            if self.fine is not self.coarse:
                mats = self._project(mats, floored_mats(mats),
                                     self._workspace(False))[1]
            self.projected = mats
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
        for s in self.plan:
            w = np.bincount(s.labels, weights=raw[s.i], minlength=s.rows)
            self.avg_num[s.i] += w[:, None] * mats[s.i]
            self.avg_den[s.i] += w

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
