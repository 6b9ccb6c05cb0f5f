"""Alternating projection / proximal ascent on a penalized Lagrangian.

The relaxed strategy set (a finer information map) is searched by repeating
two steps: project the iterate onto the original map, then maximize expected
reward minus a weighted squared distance to that projection.  The penalty is
separable across (stage, label) slots because the weights come from a fixed
full-support base policy, so each block maximization is an exact quadratic
program over the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame, uniform_policy
from .engine import tables_for
from .errors import PerfectRecallRequired
from .infomaps import has_perfect_recall, is_finer, project_matrices


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


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


def _penalty(problem: RelaxationProblem, mats, centers) -> float:
    """Sum over slots of w(g) times the squared distance to the center."""
    total = 0.0
    for i in range(problem.game.num_stages):
        d = mats[i] - centers[i]
        total += float(np.sum(problem.weights[i] * np.sum(d * d, axis=1)))
    return total


def _centers_from_gamma(problem: RelaxationProblem, gam_mats):
    return [gam_mats[i][problem.f2c[i]]
            for i in range(problem.game.num_stages)]


def _project(problem: RelaxationProblem, mats):
    return project_matrices(problem._t, mats, problem.mf, problem.mc,
                            problem.q0)


def lagrangian(problem: RelaxationProblem, policy: BehavioralPolicy) -> float:
    """Expected reward minus lam times the weighted squared distance between
    the policy and its projection."""
    mats = problem._t.matrices(policy)
    return _lagrangian_mats(problem, mats)


def _lagrangian_mats(problem: RelaxationProblem, mats) -> float:
    centers = _centers_from_gamma(problem, _project(problem, mats))
    return _objective(problem, mats, centers)


def _objective(problem: RelaxationProblem, mats, centers) -> float:
    t = problem._t
    q, _ = t.pushforward(mats, problem.mf)
    payoff = t.expect(q, t.rewards[:, problem.player])
    return payoff - problem.lam * _penalty(problem, mats, centers)


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
    if mode not in ("backward_induction", "coordinate_ascent"):
        raise ValueError(f"unknown proximal mode {mode!r}")
    game, t, lam = problem.game, problem._t, problem.lam
    if mode == "backward_induction" and not problem.fine_has_perfect_recall:
        raise PerfectRecallRequired(
            "relaxed map lacks perfect recall; use coordinate_ascent")
    gam_mats = t.matrices(gamma)
    centers = _centers_from_gamma(problem, gam_mats)
    mats = [c.copy() for c in centers]
    if start is not None:
        cand = t.matrices(start)
        if _objective(problem, cand, centers) > _objective(problem, mats, centers):
            mats = [c.copy() for c in cand]
    rewards = t.rewards[:, problem.player]
    mf = problem.mf
    best = _objective(problem, mats, centers)
    sweeps, converged = 0, False
    while sweeps < max_sweeps:
        sweeps += 1
        for i in reversed(range(game.num_stages)):
            _, pf = t.pushforward(mats, mf)
            q_minus = t.nat_prob.copy()
            for j in range(game.num_stages):
                if j != i:
                    q_minus = q_minus * pf[j]
            c = t.segment_sum(q_minus * rewards, mf, i)
            w = problem.weights[i]
            mats[i] = _rows_to_simplex(centers[i] + c / (2.0 * lam * w[:, None]))
        val = _objective(problem, mats, centers)
        if val - best <= tol:
            converged = True
            best = max(best, val)
            break
        best = val
    policy = t.to_policy(mats, problem.fine)
    if return_info:
        return policy, {"objective": best, "sweeps": sweeps,
                        "converged": converged}
    return policy


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
    mats = t.matrices(mu)
    trace = [_lagrangian_mats(problem, mats)]
    gam = _project(problem, mats)
    for _ in range(iterations):
        gamma = t.to_policy(gam, problem.coarse)
        mu = proximal_step(problem, gamma, start=mu, mode=mode,
                           max_sweeps=max_sweeps)
        mats = t.matrices(mu)
        gam = _project(problem, mats)
        trace.append(_lagrangian_mats(problem, mats))
    return mu, t.to_policy(gam, problem.coarse), trace
