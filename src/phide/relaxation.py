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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .cfr import suffix_values
from .core import BehavioralPolicy, InformationMap, ProductGame, uniform_policy
from .engine import tables_for
from .infomaps import coarse_masses, project_matrices

# A proximal step stops after MAX_SWEEPS sweeps, or once a sweep raises the
# objective by at most SWEEP_TOL.
MAX_SWEEPS = 50
SWEEP_TOL = 1e-9


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    return _rows_to_simplex(np.reshape(v, (1, -1)))[0]


@functools.lru_cache(maxsize=32)
def _ranks(n: int) -> np.ndarray:
    """1.0, ..., n, read only."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def _rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection: each row less the threshold tau of its
    largest rho + 1 entries, clamped at zero, where tau is (sum of those
    entries - 1) / (rho + 1) and rho is the last rank whose entry exceeds
    its threshold."""
    v = np.asarray(mat, dtype=float)
    rows, n = v.shape
    u = v.copy()
    u.sort(axis=1)
    u = u[:, ::-1]
    avg = u.cumsum(axis=1)
    avg -= 1.0
    avg /= _ranks(n)
    rho = n - 1 - (u > avg)[:, ::-1].argmax(axis=1)
    out = v - avg[np.arange(rows), rho][:, None]
    return np.maximum(out, 0.0, out=out)


@dataclass
class RelaxationProblem:
    game: ProductGame
    coarse: InformationMap
    fine: InformationMap
    lam: float
    player: int = 0
    base: BehavioralPolicy = None
    _t: object = field(default=None, repr=False)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("penalty weight must be positive")
        self._t = tables_for(self.game, self.coarse, self.fine)
        self.f2c = self._t.refinement(self.fine, self.coarse)
        if any(arr is None for arr in self.f2c):
            raise ValueError("the relaxed map must be finer than the original")
        if self.base is None:
            self.base = uniform_policy(self.game, self.fine)
        before = self._t.forward(
            self._t.matrices(self.base), self._t.map_index(self.base.info))
        if np.min(before[-1]) <= 0.0:
            raise ValueError("base policy must have full support")
        # the base reach of each (coarse, fine) label pair, coarse label
        # and fine label
        self.pairs = self._t.stage_pairs(self.mf, self.mc)
        self.pair_mass = self._t.pair_masses(before, self.mf, self.mc)
        self.coarse_mass = coarse_masses(self.pairs, self.pair_mass)
        self.weights = [self._t.label_mass(before[i], self.mf, i)
                        for i in range(self.game.num_stages)]

    @property
    def mf(self):
        return self._t.map_index(self.fine)

    @property
    def mc(self):
        return self._t.map_index(self.coarse)


def _stage_penalty(w: np.ndarray, mat: np.ndarray, centre: np.ndarray) -> float:
    """Sum over one stage's labels g of w(g) times the squared distance
    between the rows of ``mat`` and ``centre``."""
    d = mat - centre
    d *= d
    return float((w * d.sum(axis=1)).sum())


def _penalty(problem: RelaxationProblem, mats, gam) -> float:
    """Sum over slots of w(g) times the squared distance to the projection
    ``gam`` read on the relaxed map."""
    total = 0.0
    for i in range(problem.game.num_stages):
        total += _stage_penalty(problem.weights[i], mats[i],
                                gam[i][problem.f2c[i]])
    return total


def _project(problem: RelaxationProblem, mats):
    return project_matrices(problem.pairs, mats, problem.pair_mass,
                            problem.coarse_mass)


def lagrangian(problem: RelaxationProblem, policy: BehavioralPolicy) -> float:
    """Expected reward minus lam times the weighted squared distance between
    the policy and its projection."""
    mats = problem._t.matrices(policy)
    return _objective(problem, mats, _project(problem, mats))


def _objective(problem: RelaxationProblem, mats, gam) -> float:
    """``lagrangian`` on matrices, with the payoff from one forward pass."""
    t = problem._t
    q = t.forward(mats, problem.mf)[-1]
    payoff = t.expect(q, t.rewards[:, problem.player])
    return payoff - problem.lam * _penalty(problem, mats, gam)


def _linear_term(t, mf: int, i: int, before_i: np.ndarray,
                 after: np.ndarray) -> np.ndarray:
    """Entry [g, a]: the expected reward over the histories whose stage-i
    label is g, with stage i forced to a; ``before_i`` is the reach of each
    stage-i prefix and ``after`` its suffix value per action."""
    n, A = len(t.labels[mf][i]), after.shape[1]
    return np.bincount(t.prefix_cell[mf][i],
                       weights=(before_i[:, None] * after).reshape(-1),
                       minlength=n * A).reshape(n, A)


def _sweep(problem: RelaxationProblem, mats, centers, scale) -> float:
    """One reverse-stage sweep: each stage of ``mats``, in place, becomes
    the exact maximizer of the objective given the others, the simplex
    projection of its centre plus its linear term over ``scale``, that is
    2 lam w.  Returns the objective of the updated ``mats``.

    The forward pass runs once, before any update: a stage's reach depends
    only on the earlier stages, which are updated after it.  The backward
    pass (``cfr.suffix_values``) reads ``mats[i]`` only after stage i is
    updated, so each suffix value is under the stages already updated.
    """
    t, mf = problem._t, problem.mf
    before = t.forward(mats[:-1], mf)
    pen = 0.0
    for i, after in suffix_values(t.prefix_label[mf], mats,
                                  t.rewards[:, problem.player]):
        c = _linear_term(t, mf, i, before[i], after)
        mats[i] = _rows_to_simplex(centers[i] + c / scale[i])
        pen += _stage_penalty(problem.weights[i], mats[i], centers[i])
    # the pass ends at stage 0's suffix values; under the new stage 0 they
    # give each Nature state's value
    u = np.einsum("pa,pa->p", mats[0][t.prefix_label[mf][0]], after)
    return float(t.nature_probs @ u) - problem.lam * pen


def _maximize(problem: RelaxationProblem, gam, start, start_val):
    """The proximal step towards the projection ``gam``, on matrices; returns
    (mats, objective, sweeps, converged).  It starts at the centres, ``gam``
    read on the relaxed map, or at ``start``, whose objective is
    ``start_val``, if that scores higher.  The centres' penalty is exactly
    zero, so their objective is their payoff.  Each sweep (``_sweep``) is
    one forward and one backward pass over the stage prefixes."""
    t, lam = problem._t, problem.lam
    L = problem.game.num_stages
    centers = [gam[i][problem.f2c[i]] for i in range(L)]
    mats = list(centers)
    best = t.expect(t.forward(centers, problem.mf)[-1],
                    t.rewards[:, problem.player])
    if start is not None and start_val > best:
        mats, best = list(start), start_val
    scale = [2.0 * lam * w[:, None] for w in problem.weights]
    sweeps, converged = 0, False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        val = _sweep(problem, mats, centers, scale)
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
    gam = t.matrices(gamma)
    cand = val = None
    if start is not None:
        cand = t.matrices(start)
        val = _objective(problem, cand, gam)
    mats, best, sweeps, converged = _maximize(problem, gam, cand, val)
    policy = t.to_policy(mats, problem.fine)
    if return_info:
        return policy, {"objective": best, "sweeps": sweeps,
                        "converged": converged}
    return policy


def _rir_steps(problem: RelaxationProblem, mats):
    """Yields (iterate, projection, objective) for the start ``mats``, then
    after each proximal step towards the last projection; the iterate and
    projection are matrices, and the step starts from the objective
    yielded."""
    while True:
        gam = _project(problem, mats)
        val = _objective(problem, mats, gam)
        yield mats, gam, val
        mats = _maximize(problem, gam, mats, val)[0]


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
    for mats, gam, val in islice(steps, max(iterations, 0) + 1):
        trace.append(val)
    if iterations > 0:
        mu = t.to_policy(mats, problem.fine)
    return mu, t.to_policy(gam, problem.coarse), trace
