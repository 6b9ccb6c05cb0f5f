"""Local no-regret learners with the two-call Decide/Observe contract.

Three kinds: regret matching, regret matching+, and FTRL with entropic
regularization, in banks of one learner per information label; a bank of one
row is a lone learner.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSolver

KINDS = ("regret_matching", "regret_matching_plus", "ftrl_entropic")


def rm_decide(cum: np.ndarray) -> np.ndarray:
    """Positive parts normalized; uniform where all regrets are <= 0."""
    pos = np.maximum(cum, 0.0)
    tot = pos.sum(axis=-1, keepdims=True)
    ok = tot > 0.0
    np.divide(pos, tot, out=pos, where=ok)
    np.copyto(pos, 1.0 / cum.shape[-1], where=~ok)
    return pos


def ftrl_decide(cum: np.ndarray, eta: float) -> np.ndarray:
    z = eta * cum
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_rewards(reward: np.ndarray):
    if not np.isfinite(reward).all():
        raise ValueError("reward vector entries must be finite")


class LearnerBank:
    """Bank of local learners of one kind; one row per information label.
    ``eta``, the FTRL step size, defaults to 0.1 and must be positive and
    finite; ``warm``, the initial rows, has shape (n_labels, n_actions)."""

    def __init__(self, kind: str, n_labels: int, n_actions: int,
                 eta: float = None, warm: np.ndarray = None):
        if kind not in KINDS:
            raise InvalidSolver(f"unknown learner kind {kind!r}; known "
                                f"kinds: {', '.join(KINDS)}")
        self.kind = kind
        self.eta = 0.1 if eta is None else float(eta)
        if not 0.0 < self.eta < math.inf:
            raise InvalidSolver(f"eta must be positive and finite, got "
                                f"{eta!r}")
        self.cum = np.zeros((n_labels, n_actions))
        if warm is not None:
            warm = np.asarray(warm, dtype=float)
            if warm.shape != self.cum.shape or not np.isfinite(warm).all():
                raise InvalidSolver(f"warm must be finite with shape "
                                    f"{self.cum.shape}, got shape "
                                    f"{warm.shape}")
            if kind == "ftrl_entropic":
                self.cum = np.log(np.maximum(warm, 1e-300)) / self.eta
            else:
                self.cum = warm.copy()

    def decide(self) -> np.ndarray:
        if self.kind == "ftrl_entropic":
            return ftrl_decide(self.cum, self.eta)
        return rm_decide(self.cum)

    def observe(self, reward: np.ndarray, play: np.ndarray,
                out: np.ndarray = None) -> np.ndarray:
        """Feeds one reward row per label, updating ``cum`` in place;
        ``play`` holds the rows ``decide`` returned since the last observe.
        Returns each row's played reward, ``play · reward``.  ``out``, if
        given, is a scratch array of ``cum``'s shape."""
        reward = np.asarray(reward, dtype=float)
        _check_rewards(reward)
        scratch = np.multiply(play, reward, out=out)
        played = scratch.sum(axis=-1)
        if self.kind == "ftrl_entropic":
            self.cum += reward
            return played
        self.cum += np.subtract(reward, played[..., None], out=scratch)
        if self.kind == "regret_matching_plus":
            np.maximum(self.cum, 0.0, out=self.cum)
        return played
