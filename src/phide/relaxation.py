"""Alternating projection / proximal ascent on a penalized Lagrangian.

The relaxed strategy set (a finer information map) is searched by repeating
two steps: project the iterate onto the original map, then maximize expected
reward minus a weighted squared distance to that projection.  The penalty is
separable across (stage, label) slots because the weights come from a fixed
full-support base policy, so each block maximization is an exact quadratic
program over the simplex.

One loop on per-stage matrices serves ``rir_run`` and the ``rir`` experiment;
policies appear only at the API edge.  A sweep of the proximal step runs on
the stage prefixes of ``engine.Tables``: one forward pass and one backward
pass, O(L) passes over prefixes and not O(L^2 n) work over histories, and
its objective comes from the same passes.  The sweeps need no perfect
recall of the relaxed map.

A ``RelaxationProblem`` compiles its sweep plan once, and a sweep is one
loop over it with each stage's update inline.  Each ``rir`` iteration
gathers its centres once, and a step's first sweep reuses the forward pass
that scored its start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import (BehavioralPolicy, InformationMap, ProductGame,
                   check_player, uniform_policy)
from .engine import forward, pair_masses, refinement, tables_for
from .errors import InvalidRelaxation
from .infomaps import coarse_masses, project_matrices

# A proximal step stops after MAX_SWEEPS sweeps, or once a sweep raises the
# objective by at most SWEEP_TOL.
MAX_SWEEPS = 50
SWEEP_TOL = 1e-9


@dataclass(eq=False)
class RelaxationProblem:
    """The proximal problem of ``fine`` relaxing ``coarse``, with penalty
    weight ``lam`` and distances weighted by the reach of ``base``."""

    game: ProductGame
    coarse: InformationMap
    fine: InformationMap
    lam: float
    player: int = 0
    base: BehavioralPolicy = None
    _t: object = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise InvalidRelaxation(f"penalty weight must be positive and "
                                    f"finite, got lam={self.lam!r}")
        check_player(self.game, self.player)
        t = self._t = tables_for(self.game, self.coarse, self.fine)
        self.mf, self.mc = t.map_index(self.fine), t.map_index(self.coarse)
        # each stage's (coarse, fine) label pairs and fine -> coarse label
        self.pairs = t.pairs(self.fine, self.coarse)
        self.f2c = [refinement(p, len(labels))
                    for p, labels in zip(self.pairs, t.labels[self.mf])]
        if any(arr is None for arr in self.f2c):
            raise InvalidRelaxation(
                "the relaxed map must be finer than the original: "
                + _not_finer(t, self.mf, self.mc, self.pairs, self.f2c))
        if self.base is None:
            self.base = uniform_policy(self.game, self.fine)
        mb = t.map_index(self.base.info)
        before = t.forward(t.matrices(self.base), mb)
        if np.min(before[-1]) <= 0.0:
            raise InvalidRelaxation("base policy must have full support: "
                                    + _unreached(t, mb, before))
        # the base reach of each label pair, coarse label and fine label
        self.pair_mass = pair_masses(self.pairs, before)
        self.coarse_mass = coarse_masses(self.pairs, self.pair_mass)
        L = self.game.num_stages
        self.weights = [t.label_mass(before[i], self.mf, i) for i in range(L)]
        # the sweep plan, per stage of the relaxed map: each prefix's label,
        # each next prefix's (label, action) cell, the cell count, the shape
        # (labels, actions), the scale 2 lam w and the ranks 1, ..., A in
        # that shape (same-shape arithmetic skips broadcasting), the weights
        # w, the flat index of each label's last action, and the shape in
        # which the stage before reads this stage's prefix values
        self.labels = t.prefix_label[self.mf]
        self.plan = []
        for i, (lab, w) in enumerate(zip(self.labels, self.weights)):
            n, A = len(w), self.game.stage_actions[i]
            up = (len(self.labels[i - 1]), -1) if i else (-1,)
            self.plan.append((
                lab, t.cells(self.mf, i), n * A, (n, A),
                np.repeat(2.0 * self.lam * w[:, None], A, axis=1),
                np.tile(np.arange(1.0, A + 1.0), (n, 1)), w,
                np.arange(A - 1, n * A, A), up))
        self.values = t.rewards[:, self.player]
        self.last_values = self.values.reshape(len(self.labels[-1]), -1)


def _not_finer(t, mf: int, mc: int, pairs, f2c) -> str:
    """Names the first stage where a fine label spans two coarse labels."""
    i = next(i for i, arr in enumerate(f2c) if arr is None)
    _, coarse, fine, _ = pairs[i]
    g = int(np.flatnonzero(np.bincount(fine) > 1)[0])
    c0, c1 = coarse[fine == g][:2]
    return (f"at stage {i}, fine label {t.labels[mf][i][g]!r} spans coarse "
            f"labels {t.labels[mc][i][c0]!r} and {t.labels[mc][i][c1]!r}")


def _unreached(t, m: int, before) -> str:
    """Names where the forward pass ``before`` of map ``m`` first reaches a
    prefix with probability zero."""
    i, p = next((i, int(np.argmin(b))) for i, b in enumerate(before)
                if np.min(b) <= 0.0)
    if i == 0:
        return f"Nature state {t.game.nature[p]!r} has probability 0"
    A = t.game.stage_actions[i - 1]
    g = t.labels[m][i - 1][t.prefix_label[m][i - 1][p // A]]
    return f"at stage {i - 1}, label {g!r} gives action {p % A} probability 0"


def _penalty(problem: RelaxationProblem, mats, centers) -> float:
    """Sum over slots of w(g) times the squared distance to ``centers``, the
    projection read on the relaxed map."""
    total = 0.0
    for w, mat, centre in zip(problem.weights, mats, centers):
        d = mat - centre
        d *= d
        total += float(np.add.reduce(w * np.add.reduce(d, axis=1)))
    return total


def _centers(problem: RelaxationProblem, gam):
    """The projection ``gam`` read on the relaxed map."""
    return [g.take(f, axis=0) for g, f in zip(gam, problem.f2c)]


def _project(problem: RelaxationProblem, mats):
    return project_matrices(problem.pairs, mats, problem.pair_mass,
                            problem.coarse_mass)


def lagrangian(problem: RelaxationProblem, policy: BehavioralPolicy) -> float:
    """Expected reward minus lam times the weighted squared distance between
    the policy and its projection."""
    mats = problem._t.matrices(policy)
    return _objective(problem, mats,
                      _centers(problem, _project(problem, mats)))[0]


def _objective(problem: RelaxationProblem, mats, centers):
    """``lagrangian`` on matrices, towards ``centers``; returns (objective,
    payoff, penalty, forward pass of ``mats``)."""
    before = forward(problem._t.nature_probs, mats, problem.labels)
    payoff = float(before[-1] @ problem.values)
    pen = _penalty(problem, mats, centers)
    return payoff - problem.lam * pen, payoff, pen, before


def _sweep(problem: RelaxationProblem, mats, centers, before=None) -> float:
    """One reverse-stage sweep: each stage of ``mats``, in place, becomes
    the exact maximizer of the objective given the others, the simplex
    projection of its centre plus its linear term over its scale 2 lam w.
    Returns the objective of the updated ``mats``.

    The forward pass runs once, before any update, unless ``before``, the
    forward pass of ``mats``, is given: a stage's reach depends only on the
    earlier stages, which are updated after it.  The backward pass reads
    stage i only after it is updated, so each suffix value is under the
    stages already updated.
    """
    start = problem._t.nature_probs
    if before is None:
        before = forward(start, mats[:-1], problem.labels)
    after, pen = problem.last_values, 0.0
    for i in range(len(mats) - 1, -1, -1):
        lab, cells, size, shape, scale, ranks, w, last, up = problem.plan[i]
        centre = centers[i]
        # entry [g, a]: the expected reward over the histories whose
        # stage-i label is g, with stage i forced to a
        c = np.bincount(cells, weights=(before[i][:, None] * after).reshape(-1),
                        minlength=size).reshape(shape)
        # the block maximizer: each row of x = centre + c / scale projected
        # onto the simplex, x less the threshold tau = (sum of its rho + 1
        # largest entries - 1) / (rho + 1), clamped at zero, where rho is
        # the last rank whose entry exceeds its running threshold; the
        # thresholds are read off the flat index
        x = centre + c / scale
        u = x.copy()
        u.sort(axis=1)
        u = u[:, ::-1]
        avg = u.cumsum(axis=1)
        avg -= 1.0
        avg /= ranks
        x -= avg.take(last - (u > avg)[:, ::-1].argmax(axis=1))[:, None]
        mats[i] = mat = np.maximum(x, 0.0, out=x)
        # the stage's term of ``_penalty``
        d = mat - centre
        d *= d
        pen += float(np.add.reduce(w * np.add.reduce(d, axis=1)))
        # each stage-i prefix's value under the new stage i
        after = np.einsum("pa,pa->p", mat.take(lab, axis=0),
                          after).reshape(up)
    return float(start @ after) - problem.lam * pen


def _maximize(problem: RelaxationProblem, centers, start, start_val,
              start_before):
    """The proximal step towards ``centers``, the projection read on the
    relaxed map; returns (mats, objective, sweeps, converged).  It starts at
    the centres, or at ``start``, whose objective is ``start_val`` and
    forward pass ``start_before``, if that scores higher.  The centres'
    penalty is exactly zero, so their objective is their payoff.  The first
    sweep reuses the forward pass of its start."""
    before = forward(problem._t.nature_probs, centers, problem.labels)
    mats, best = list(centers), float(before[-1] @ problem.values)
    if start is not None and start_val > best:
        mats, best, before = list(start), start_val, start_before
    sweeps, converged = 0, False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        val = _sweep(problem, mats, centers, before)
        before = None
        if val - best <= SWEEP_TOL:
            converged = True
            best = max(best, val)
            break
        best = val
    return mats, best, sweeps, converged


def proximal_step(problem: RelaxationProblem, gamma: BehavioralPolicy,
                  start: BehavioralPolicy = None, return_info: bool = False):
    """Maximize expected reward minus lam * weighted distance to ``gamma``.

    Reverse-stage sweeps of exact per-stage block maximizations, repeated to
    a fixed point: on return, unless ``MAX_SWEEPS`` sweeps ran out, no
    single (stage, label) deviation improves the objective by more than
    ``SWEEP_TOL``.  A sweep is one forward and one backward pass over the
    stage prefixes.  The sweeps run on any relaxed map but may stop at a
    local maximum.
    """
    t = problem._t
    centers = _centers(problem, t.matrices(gamma))
    cand = val = before = None
    if start is not None:
        cand = t.matrices(start)
        val, _, _, before = _objective(problem, cand, centers)
    mats, best, sweeps, converged = _maximize(problem, centers, cand, val,
                                              before)
    policy = t.to_policy(mats, problem.fine)
    if return_info:
        return policy, {"objective": best, "sweeps": sweeps,
                        "converged": converged}
    return policy


def _rir_steps(problem: RelaxationProblem, mats):
    """Yields (iterate, projection, objective, payoff, penalty) for the
    start ``mats``, then after each proximal step towards the last
    projection; the iterate and projection are matrices.  Each step starts
    from the iterate's objective and forward pass, and shares its centres
    with the objective."""
    while True:
        gam = _project(problem, mats)
        centers = _centers(problem, gam)
        val, payoff, pen, before = _objective(problem, mats, centers)
        yield mats, gam, val, payoff, pen
        mats = _maximize(problem, centers, mats, val, before)[0]


def rir_run(problem: RelaxationProblem, mu0: BehavioralPolicy = None,
            iterations: int = 100):
    """Alternate projection and proximal maximization for a number of rounds.

    Returns (final iterate, its projection, per-round Lagrangian trace); the
    trace includes the initial iterate, so it has iterations + 1 entries and
    is non-decreasing.
    """
    t = problem._t
    mu = mu0 if mu0 is not None else uniform_policy(problem.game, problem.fine)
    steps = _rir_steps(problem, t.matrices(mu))
    trace = []
    for mats, gam, val, _, _ in islice(steps, max(iterations, 0) + 1):
        trace.append(val)
    if iterations > 0:
        mu = t.to_policy(mats, problem.fine)
    return mu, t.to_policy(gam, problem.coarse), trace
