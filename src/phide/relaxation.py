"""Alternating projection / proximal ascent on a penalized Lagrangian.

The relaxed strategy set (a finer information map) is searched by repeating
two steps: project the iterate onto the original map, then maximize expected
reward minus a weighted squared distance to that projection.  The penalty is
separable across (stage, label) slots because the weights come from a fixed
full-support base policy, so each block maximization is an exact quadratic
program over the simplex.

One loop on per-stage matrices serves ``rir_run`` and the ``rir`` experiment;
policies appear only at the API edge.  Both proximal modes run the same
sweeps; ``backward_induction`` only adds a perfect-recall precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame, uniform_policy
from .engine import tables_for
from .errors import PerfectRecallRequired
from .infomaps import has_perfect_recall, is_finer, project_matrices

PROX_MODES = ("backward_induction", "coordinate_ascent")


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
        if not is_finer(self.fine, self.coarse, self.game):
            raise ValueError("the relaxed map must be finer than the original")
        if self.base is None:
            self.base = uniform_policy(self.game, self.fine)
        self._t = tables_for(self.game, self.coarse, self.fine, self.base.info)
        q0, _ = self._t.pushforward(
            self._t.matrices(self.base), self._t.map_index(self.base.info))
        if np.min(q0) <= 0.0:
            raise ValueError("base policy must have full support")
        self.q0 = q0
        t, mf, mc = self._t, self.mf, self.mc
        self.weights = [t.label_mass(q0, mf, i)
                        for i in range(self.game.num_stages)]
        self.f2c = t.refinement(self.fine, self.coarse)

    @cached_property
    def fine_has_perfect_recall(self) -> bool:
        """Whether the relaxed map has perfect recall for the player, judged
        on first use, since only ``backward_induction`` needs it."""
        return has_perfect_recall(self.game, self.fine, self.player)

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
                            problem.q0)


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


def _check_mode(problem: RelaxationProblem, mode: str):
    if mode not in PROX_MODES:
        raise ValueError(f"unknown proximal mode {mode!r}")
    if mode == "backward_induction" and not problem.fine_has_perfect_recall:
        raise PerfectRecallRequired(
            "relaxed map lacks perfect recall; use coordinate_ascent")


def _maximize(problem: RelaxationProblem, gam, start, max_sweeps: int,
              tol: float = 1e-9):
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
    while sweeps < max_sweeps:
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
        if val - best <= tol:
            converged = True
            best = max(best, val)
            break
        best = val
    return mats, best, sweeps, converged


def proximal_step(problem: RelaxationProblem, gamma: BehavioralPolicy,
                  start: BehavioralPolicy = None,
                  mode: str = "backward_induction", max_sweeps: int = 50,
                  tol: float = 1e-9, return_info: bool = False):
    """Maximize expected reward minus lam * weighted distance to ``gamma``.

    Reverse-stage sweeps of exact per-stage block maximizations, repeated to
    a fixed point: on return no single (stage, label) deviation improves the
    objective by more than ``tol``.  ``backward_induction`` requires the
    relaxed map to have perfect recall; ``coordinate_ascent`` runs on any
    relaxed map but may stop at a local maximum.
    """
    _check_mode(problem, mode)
    t = problem._t
    cand = None if start is None else t.matrices(start)
    mats, best, sweeps, converged = _maximize(problem, t.matrices(gamma), cand,
                                              max_sweeps, tol)
    policy = t.to_policy(mats, problem.fine)
    if return_info:
        return policy, {"objective": best, "sweeps": sweeps,
                        "converged": converged}
    return policy


def _rir_steps(problem: RelaxationProblem, mats, mode: str,
               max_sweeps: int = 50):
    """Yields (iterate, projection) matrices for the start ``mats``, then
    after each proximal step towards the last projection; ``mode`` is checked
    once, before the first step."""
    gam = _project(problem, mats)
    yield mats, gam
    _check_mode(problem, mode)
    while True:
        mats = _maximize(problem, gam, mats, max_sweeps)[0]
        gam = _project(problem, mats)
        yield mats, gam


def rir_run(problem: RelaxationProblem, mu0: BehavioralPolicy = None,
            iterations: int = 100, mode: str = "backward_induction",
            max_sweeps: int = 50):
    """Alternate projection and proximal maximization for a number of rounds.

    Returns (final iterate, its projection, per-round Lagrangian trace); the
    trace includes the initial iterate, so it has iterations + 1 entries and
    is non-decreasing.
    """
    t = problem._t
    mu = mu0 if mu0 is not None else uniform_policy(problem.game, problem.fine)
    steps = _rir_steps(problem, t.matrices(mu), mode, max_sweeps)
    trace = []
    for mats, gam in islice(steps, max(iterations, 0) + 1):
        trace.append(_objective(problem, mats, gam))
    if iterations > 0:
        mu = t.to_policy(mats, problem.fine)
    return mu, t.to_policy(gam, problem.coarse), trace
