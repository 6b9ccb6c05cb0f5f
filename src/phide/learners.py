"""Local no-regret learners with the two-call Decide/Observe contract.

Three kinds: regret matching, regret matching+, and FTRL with entropic
regularization.  The same array math backs both the single-slot learner and
the per-stage banks used by the game solvers, so a bank of size one behaves
bit-for-bit like a lone learner.
"""

from __future__ import annotations

import math

import numpy as np

KINDS = ("regret_matching", "regret_matching_plus", "ftrl_entropic")


def default_eta(n_actions: int, horizon: int = None) -> float:
    if horizon:
        return math.sqrt(math.log(max(n_actions, 2)) / horizon)
    return 0.1


def rm_decide(cum: np.ndarray) -> np.ndarray:
    """Positive parts normalized; uniform where all regrets are <= 0."""
    pos = np.maximum(cum, 0.0)
    tot = pos.sum(axis=-1, keepdims=True)
    return np.divide(pos, tot, out=np.full_like(cum, 1.0 / cum.shape[-1]),
                     where=tot > 0.0)


def ftrl_decide(cum: np.ndarray, eta: float) -> np.ndarray:
    z = eta * cum
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_rewards(reward: np.ndarray):
    if not np.isfinite(reward).all():
        raise ValueError("reward vector entries must be finite")


class LearnerBank:
    """Bank of local learners of one kind; one row per information label."""

    def __init__(self, kind: str, n_labels: int, n_actions: int,
                 eta: float = None, warm: np.ndarray = None):
        if kind not in KINDS:
            raise ValueError(f"unknown learner kind {kind!r}")
        self.kind = kind
        self.eta = default_eta(n_actions) if eta is None else float(eta)
        self.cum = np.zeros((n_labels, n_actions))
        if warm is not None:
            warm = np.asarray(warm, dtype=float)
            if kind == "ftrl_entropic":
                self.cum = np.log(np.maximum(warm, 1e-300)) / self.eta
            else:
                self.cum = warm.copy()

    @property
    def n_actions(self) -> int:
        return self.cum.shape[1]

    def decide(self) -> np.ndarray:
        if self.kind == "ftrl_entropic":
            return ftrl_decide(self.cum, self.eta)
        return rm_decide(self.cum)

    def observe(self, reward: np.ndarray, play: np.ndarray = None):
        """Feeds one reward row per label.  ``play``, the rows ``decide``
        returned since the last observe, spares regret matching computing
        them again."""
        reward = np.asarray(reward, dtype=float)
        _check_rewards(reward)
        if self.kind == "ftrl_entropic":
            self.cum = self.cum + reward
            return
        if play is None:
            play = rm_decide(self.cum)
        inst = reward - (play * reward).sum(axis=-1, keepdims=True)
        self.cum = self.cum + inst
        if self.kind == "regret_matching_plus":
            self.cum = np.maximum(self.cum, 0.0)


class RegretMinimizer(LearnerBank):
    """Single local learner: Decide returns a probability vector, Observe
    takes the realized linear reward vector."""

    def __init__(self, kind: str, n_actions: int, eta: float = None,
                 warm: np.ndarray = None):
        if n_actions < 1:
            raise ValueError("need at least one action")
        w = None if warm is None else np.asarray(warm, dtype=float)[None, :]
        super().__init__(kind, 1, n_actions, eta=eta, warm=w)

    def decide(self) -> np.ndarray:
        return super().decide()[0]

    def observe(self, reward):
        super().observe(np.asarray(reward, dtype=float)[None, :])


def external_regret(decisions, rewards) -> float:
    """max_x sum_t <x, r_t> - sum_t <x_t, r_t> over the simplex vertices."""
    if len(decisions) != len(rewards):
        raise ValueError("decisions and rewards must be aligned")
    if len(decisions) == 0:
        return 0.0
    D = np.asarray(decisions, dtype=float)
    R = np.asarray(rewards, dtype=float)
    return float(np.max(R.sum(axis=0)) - np.sum(D * R))
