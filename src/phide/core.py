"""Core types: games in product form, information maps, behavioral policies.

A game lives on the product set Ω × ∏ᵢ [Aᵢ].  Histories are pairs
(nature value, action tuple of length L); actions are 0-based integers.
Information maps assign each stage a label computed from the nature value
and the actions played before that stage.  Policies are tables from
(stage, label) to a probability vector over the legal actions.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (IllegalSupport, InvalidGame, InvalidMap,
                     WellPosednessViolation)

PROB_TOL = 1e-12


class History(NamedTuple):
    nature: tuple
    actions: tuple


# Tokens for declaratively built information maps: ("nature", k) reveals the
# k-th component of the nature value, ("action", j) reveals the action taken
# at stage j (0-based; a negative index counts from the end).  Whether an
# index exists and whether j lies before the stage depend on the game, so
# ``check_token_stages`` judges both when the map meets one.
RevealToken = tuple


class InformationMap:
    """Per-stage labeling of histories.

    Each stage holds either a list of reveal tokens or an arbitrary callable
    ``fn(nature_value, actions) -> hashable`` that must only depend on the
    actions played before that stage.  Labels are tagged with the stage index
    so that labels from different stages never collide.

    A map meets a game in ``Tables.add_map``, which checks every map the
    same way, first or later.  Prefer tokens: a token stage compiles to
    array gathers, one label call per distinct label, while a callable
    stage costs one label call per history.
    """

    def __init__(self, stages, name: str = ""):
        self.name = name
        self._stages = []  # per stage: its tokens, or its callable
        for spec in stages:
            if not callable(spec):
                spec = tuple(_token(token, self) for token in spec)
            self._stages.append(spec)

    @property
    def revealed(self) -> list[Optional[tuple]]:
        """Per stage, its reveal tokens, or None for a callable stage."""
        return [None if callable(s) else s for s in self._stages]

    @property
    def num_stages(self) -> int:
        return len(self._stages)

    def label(self, stage: int, nature, actions) -> Hashable:
        spec = self._stages[stage]
        if callable(spec):
            return (stage, spec(nature, actions))
        out = []  # a loop, not a comprehension: labels are hot at set-up
        for kind, idx in spec:
            out.append(nature[idx] if kind == "nature" else actions[idx])
        return (stage, tuple(out))

    @classmethod
    def from_tables(cls, tables: Sequence[dict], name: str = "") -> "InformationMap":
        """Build a map from per-stage dicts keyed by (nature, prefix)."""

        def make(i, tab):
            def fn(nature, actions):
                return tab[(nature, tuple(actions[:i]))]

            return fn

        return cls([make(i, t) for i, t in enumerate(tables)], name=name)

    def __repr__(self):
        return f"InformationMap({self.name or hex(id(self))}, stages={self.num_stages})"


def _token(token, info: InformationMap) -> RevealToken:
    """The reveal token (kind, idx) of map ``info``, or an ``InvalidMap``
    naming both unless it is a pair, the kind is known and the index an
    integer."""
    where = f"information map {info.name or hex(id(info))}: "
    try:
        kind, idx = token
    except (TypeError, ValueError):
        raise InvalidMap(f"{where}reveal token {token!r} is not a (kind, "
                         f"index) pair") from None
    if str(kind) not in ("nature", "action"):
        raise InvalidMap(f"{where}unknown reveal token kind {kind!r}")
    try:
        return str(kind), operator.index(idx)
    except TypeError:
        raise InvalidMap(f"{where}reveal token {(kind, idx)!r} needs an "
                         f"integer index") from None


@dataclass(frozen=True, eq=False)
class ProductGame:
    """Finite game in product form.

    ``reward_fn(nature_value, actions)`` returns one reward per player; in
    team games all components are equal.  Stage i has ``stage_actions[i]``
    actions and its owner is ``player_of_stage[i]``.
    """

    nature: tuple
    nature_probs: tuple
    player_of_stage: tuple
    stage_actions: tuple
    reward_fn: Callable
    num_players: int = 1
    name: str = ""

    def __post_init__(self):
        if not all(isinstance(p, numbers.Real) and not isinstance(p, bool)
                   for p in self.nature_probs):
            raise invalid_game(self, f"nature weights must be numbers, got "
                                     f"{tuple(self.nature_probs)!r}")
        if not all(isinstance(a, numbers.Integral) and not isinstance(a, bool)
                   for a in self.stage_actions):
            raise invalid_game(self, f"action counts must be integers, got "
                                     f"{tuple(self.stage_actions)!r}")
        probs = np.asarray(self.nature_probs, dtype=float)
        if len(self.nature) != len(probs):
            raise invalid_game(self, "nature and nature_probs length mismatch")
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails too
            raise invalid_game(self, "nature weights must lie in [0, 1]")
        if not abs(probs.sum() - 1.0) <= PROB_TOL:
            raise invalid_game(self,
                               "nature weights must sum to 1 within 1e-12")
        if not self.stage_actions or min(self.stage_actions) < 1:
            raise invalid_game(self,
                               "a game needs stages, each with an action")
        if len(self.player_of_stage) != self.num_stages:
            raise invalid_game(self,
                               "player_of_stage must have one entry per stage")
        for i, p in enumerate(self.player_of_stage):
            check_player(self, p, f" (the owner of stage {i})")

    @property
    def num_stages(self) -> int:
        return len(self.stage_actions)

    def probs(self) -> np.ndarray:
        return np.asarray(self.nature_probs, dtype=float)

    def reward(self, nature, actions) -> np.ndarray:
        r = np.atleast_1d(np.asarray(self.reward_fn(nature, actions), dtype=float))
        if r.shape != (self.num_players,):
            raise invalid_game(self,
                               "reward_fn must return one value per player")
        return r

    def stages_of(self, player: int) -> tuple:
        return tuple(i for i, p in enumerate(self.player_of_stage) if p == player)


def invalid_game(game: ProductGame, msg: str) -> InvalidGame:
    """An ``InvalidGame`` of ``msg`` that names ``game``."""
    return InvalidGame(f"{msg} (game {game.name or hex(id(game))})")


def check_player(game: ProductGame, player: int, role: str = ""):
    """An ``InvalidGame`` naming ``player``, its ``role`` and the player
    count unless ``player`` indexes one of the game's players."""
    if player not in range(game.num_players):
        raise InvalidGame(f"player {player!r}{role} is out of range: game "
                          f"{game.name or hex(id(game))} has "
                          f"{game.num_players} player(s)")


def enumerate_reachable(game: ProductGame, info: InformationMap, validate: bool = True):
    """All histories, lexicographic in (nature index, action entries): the
    product of the per-stage action ranges for each Nature state, whatever
    the map.  The stage count is always checked; with ``validate``, ``info``
    gets the one map check, ``Tables.add_map``."""
    from .engine import tables_for  # the engine builds on this module

    t = tables_for(game, info) if validate else tables_for(game)
    check_stage_count(game, info)
    return list(t.histories)


def check_stage_count(game: ProductGame, info: InformationMap):
    """An ``InvalidMap`` naming the map and both counts unless they agree."""
    if info.num_stages != game.num_stages:
        raise InvalidMap(f"information map {info.name or hex(id(info))} has "
                         f"{info.num_stages} stages, game "
                         f"{game.name or hex(id(game))} has {game.num_stages}")


def _peek_error(i: int, j: int) -> WellPosednessViolation:
    return WellPosednessViolation(
        f"stage-{i} label depends on the action at stage {j}")


def check_token_stages(game: ProductGame, info: InformationMap):
    """Static verdict for the token stages of ``info``, smallest stage first.

    A token whose index names no nature component or no stage (the valid
    range is -len to len - 1, as for a tuple) raises a
    ``WellPosednessViolation`` that names the stage and the token.  A token
    stage i peeks if and only if it reveals ``("action", j)`` for a stage
    j >= i with at least two legal actions (a negative j counts from the
    end, as in the label); the error names the smallest such i, then the
    smallest j, and no label is computed.
    """
    L = game.num_stages
    for i, tokens in enumerate(info.revealed):
        if tokens is None:
            continue
        for kind, j in tokens:
            size = L if kind == "action" else min(len(w) for w in game.nature)
            if not -size <= j < size:
                raise WellPosednessViolation(
                    f"stage-{i} token {(kind, j)!r} is out of range: {kind} "
                    f"indices run from {-size} to {size - 1}")
        peeked = [j % L for kind, j in tokens
                  if kind == "action" and j % L >= i
                  and game.stage_actions[j % L] >= 2]
        if peeked:
            raise _peek_error(i, min(peeked))


def check_callable_stage(game: ProductGame, i: int, labels: np.ndarray):
    """Verdict for a callable stage i from ``labels``, each history's
    stage-i label index in the order of ``enumerate_reachable`` (history k
    has the mixed-radix digits (nature, a_0, ..., a_{L-1})).

    A stage-i label peeks if and only if it differs between two histories
    that differ only in the action at one stage j >= i: it is not constant
    along axis j + 1 of the indices shaped to the radices.  The error names
    the smallest such j; checked in stage order, the smallest i comes
    first, as in ``check_token_stages``.  O(n·L) array work, no label call.
    """
    lab = labels.reshape((len(game.nature),) + tuple(game.stage_actions))
    for j in range(i, game.num_stages):  # one action: constant axis
        if (lab != lab.take([0], axis=j + 1)).any():
            raise _peek_error(i, j)


@dataclass(eq=False)
class BehavioralPolicy:
    """Map (stage, information label) -> probability vector over actions.

    The policy carries the information map its table is keyed by; whether it
    is implementable for some other (coarser) map is a separate question.
    """

    info: InformationMap
    table: dict = field(default_factory=dict)

    def local(self, stage: int, nature, actions) -> np.ndarray:
        return self.table[(stage, self.info.label(stage, nature, actions))]

    def validate(self):
        for (stage, label), vec in self.table.items():
            v = np.asarray(vec, dtype=float)
            if not np.all(v >= -PROB_TOL):  # NaN fails too
                raise IllegalSupport(f"negative or NaN mass at "
                                     f"{(stage, label)}")
            if not abs(v.sum() - 1.0) <= PROB_TOL:
                raise IllegalSupport(f"mass at {(stage, label)} does not sum to 1")
        return self

    def copy(self) -> "BehavioralPolicy":
        return BehavioralPolicy(self.info, {k: np.array(v) for k, v in self.table.items()})

    def is_deterministic(self, tol: float = 0.0) -> bool:
        return all(np.max(v) >= 1.0 - tol for v in self.table.values())


def uniform_policy(game: ProductGame, info: InformationMap) -> BehavioralPolicy:
    """The uniform vector at every label of ``info`` on the reachable set.

    Keys are ordered by the first reachable history carrying the label, then
    by stage, as a walk over the histories and their stages meets them;
    ``random_policy`` draws in this order.
    """
    from .engine import tables_for  # the engine builds on this module

    t = tables_for(game, info)
    m = t.map_index(info)
    keys = []  # (first history, stage, label)
    for i, idx in enumerate(t.prefix_label[m]):
        first = np.unique(idx, return_index=True)[1] * t.stride[i]
        keys += zip(first.tolist(), [i] * len(first), t.labels[m][i])
    table = {}
    for _, i, g in sorted(keys, key=lambda k: k[:2]):
        n = game.stage_actions[i]
        table[(i, g)] = np.full(n, 1.0 / n)
    return BehavioralPolicy(info, table)


def random_policy(game: ProductGame, info: InformationMap, rng) -> BehavioralPolicy:
    pol = uniform_policy(game, info)
    for key, vec in pol.table.items():
        pol.table[key] = rng.dirichlet(np.ones(len(vec)))
    return pol

