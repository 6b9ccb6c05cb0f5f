"""Alternating projection / proximal ascent on a penalized Lagrangian.

The relaxed strategy set (a finer information map) is searched by repeating
two steps: project the iterate onto the original map, then maximize expected
reward minus a weighted squared distance to that projection.  The penalty is
separable across (stage, label) slots because the weights come from a fixed
full-support base policy, so each block maximization is an exact quadratic
program over the simplex.

One loop on per-stage matrices serves ``rir_run`` and the ``rir`` experiment;
policies appear only at the API edge.  The sweeps need no perfect recall of
the relaxed map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame, uniform_policy
from .engine import tables_for
from .infomaps import project_matrices

# A proximal step stops after MAX_SWEEPS sweeps, or once a sweep raises the
# objective by at most SWEEP_TOL.
MAX_SWEEPS = 50
SWEEP_TOL = 1e-9


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    return _rows_to_simplex(np.reshape(v, (1, -1)))[0]


def _rows_to_simplex(mat: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection."""
    v = np.asarray(mat, dtype=float)
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(len(v)), rho] / (rho + 1.0)
    return np.maximum(v - tau[:, None], 0.0)


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
        # the base reach of each (coarse, fine) label pair and fine label
        self.pair_mass = self._t.pair_masses(before, self.mf, self.mc)
        self.weights = [self._t.label_mass(before[i], self.mf, i)
                        for i in range(self.game.num_stages)]

    @property
    def mf(self):
        return self._t.map_index(self.fine)

    @property
    def mc(self):
        return self._t.map_index(self.coarse)


def _penalty(problem: RelaxationProblem, mats, gam) -> float:
    """Sum over slots of w(g) times the squared distance to the projection
    ``gam`` read on the relaxed map."""
    total = 0.0
    for i in range(problem.game.num_stages):
        d = mats[i] - gam[i][problem.f2c[i]]
        total += float(np.sum(problem.weights[i] * np.sum(d * d, axis=1)))
    return total


def _project(problem: RelaxationProblem, mats):
    return project_matrices(problem._t, mats, problem.mf, problem.mc,
                            problem.pair_mass)


def lagrangian(problem: RelaxationProblem, policy: BehavioralPolicy) -> float:
    """Expected reward minus lam times the weighted squared distance between
    the policy and its projection."""
    mats = problem._t.matrices(policy)
    return _objective(problem, mats, _project(problem, mats))


def _objective(problem: RelaxationProblem, mats, gam, pf=None) -> float:
    """``pf``, if given, holds the stage columns of ``mats``, which are then
    not recomputed."""
    t = problem._t
    q = t.pushforward(mats, problem.mf)[0] if pf is None else t.reach(pf)
    payoff = t.expect(q, t.rewards[:, problem.player])
    return payoff - problem.lam * _penalty(problem, mats, gam)


def _maximize(problem: RelaxationProblem, gam, start):
    """The proximal step towards the projection ``gam``, on matrices; returns
    (mats, objective, sweeps, converged).  It starts at the centres, ``gam``
    read on the relaxed map, or at ``start`` if that scores higher."""
    t, lam, mf = problem._t, problem.lam, problem.mf
    L = problem.game.num_stages
    centers = [gam[i][problem.f2c[i]] for i in range(L)]
    mats, best = list(centers), _objective(problem, centers, gam)
    if start is not None:
        val = _objective(problem, start, gam)
        if val > best:
            mats, best = list(start), val
    rewards = t.rewards[:, problem.player]
    pf = [t.stage_prob(mats, mf, j) for j in range(L)]
    sweeps, converged = 0, False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        for i in reversed(range(L)):
            q_minus = t.nat_prob
            for j in range(L):
                if j != i:
                    q_minus = q_minus * pf[j]
            c = t.segment_sum(q_minus * rewards, mf, i)
            w = problem.weights[i]
            mats[i] = _rows_to_simplex(centers[i] + c / (2.0 * lam * w[:, None]))
            pf[i] = t.stage_prob(mats, mf, i)
        val = _objective(problem, mats, gam, pf)
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
    ``SWEEP_TOL``.  The sweeps run on any relaxed map but may stop at a
    local maximum.
    """
    t = problem._t
    cand = None if start is None else t.matrices(start)
    mats, best, sweeps, converged = _maximize(problem, t.matrices(gamma), cand)
    policy = t.to_policy(mats, problem.fine)
    if return_info:
        return policy, {"objective": best, "sweeps": sweeps,
                        "converged": converged}
    return policy


def _rir_steps(problem: RelaxationProblem, mats):
    """Yields (iterate, projection) matrices for the start ``mats``, then
    after each proximal step towards the last projection."""
    gam = _project(problem, mats)
    yield mats, gam
    while True:
        mats = _maximize(problem, gam, mats)[0]
        gam = _project(problem, mats)
        yield mats, gam


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
    for mats, gam in islice(steps, max(iterations, 0) + 1):
        trace.append(_objective(problem, mats, gam))
    if iterations > 0:
        mu = t.to_policy(mats, problem.fine)
    return mu, t.to_policy(gam, problem.coarse), trace
