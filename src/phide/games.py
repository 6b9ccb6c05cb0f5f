"""Operations on games in product form: well-posedness of deterministic
profiles and the exact best response, one branch-and-bound search over
labels bounded by the perfect-recall relaxation of the map, all on the
stage-prefix labels of ``Tables``."""

from __future__ import annotations

import numpy as np

from .core import (BehavioralPolicy, History, InformationMap, ProductGame,
                   check_player)
from .engine import label_cells, tables_for
from .errors import EnumerationTooLarge

DEFAULT_ENUM_CAP = 10_000_000


def check_well_posed(game: ProductGame, info: InformationMap,
                     profile: BehavioralPolicy) -> dict:
    """Fixed-point histories of a deterministic profile, one per nature
    state: a forward walk over the profile's stage prefixes.  ``tables_for``
    rejects a map that peeks at future components, and on any other map
    each nature state has exactly one fixed point."""
    if not profile.is_deterministic():
        raise ValueError("check_well_posed needs a deterministic profile")
    t = tables_for(game, info, profile.info)
    lab = t.prefix_label[t.map_index(profile.info)]
    k = np.arange(len(game.nature))  # each state's prefix on the walk
    for i, mat in enumerate(t.matrices(profile)):
        k = k * game.stage_actions[i] + mat.argmax(axis=1)[lab[i][k]]
    digits = np.unravel_index(k, (len(game.nature), *game.stage_actions))
    return {w: History(w, tuple(a)) for w, a
            in zip(game.nature, np.transpose(digits[1:]).tolist())}


def best_response_value(game: ProductGame, info: InformationMap, player: int,
                        fixed: BehavioralPolicy = None, *,
                        cap: int = DEFAULT_ENUM_CAP, values=None,
                        return_policy: bool = False):
    """Exact max over deterministic implementable policies of ``player``.

    Other players follow ``fixed`` (may be randomized); a deterministic best
    response exists because the objective is linear in each local component.
    ``values``, one number per history of ``tables_for(game,
    info).histories``, overrides the player's game reward, which lets the
    same maximization bound arbitrary per-history criteria.

    One branch-and-bound search over the player's labels.  A node's bound
    is backward induction on the recall closure of ``info`` (its coarsest
    refinement with perfect recall, where backward induction is exact, Kuhn
    1953) with the node's labels forced; a finer map can only raise the
    optimum (information relaxation, Brown, Smith & Sun 2010).  A node whose
    relaxed optimum plays one action per label of ``info`` is solved; else
    the search branches on a conflicting label, best bound first, and prunes
    bounds no better than the best solution.  On a perfect-recall map the
    root, one backward pass over the stage prefixes, solves it.  Otherwise
    it is NP-hard (Koller & Megiddo 1992), and ``EnumerationTooLarge`` is
    raised once the children evaluated exceed ``cap`` histories in all.

    With ``return_policy`` the maximizing deterministic policy of ``player``
    is returned too; it covers every label.
    """
    check_player(game, player)
    t = tables_for(game, info)
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape != (len(t.rewards),):
            raise ValueError(f"values must hold one entry per reachable "
                             f"history ({len(t.rewards)}), got shape "
                             f"{values.shape}")
    else:
        values = t.rewards[:, player]
    own = game.stages_of(player)
    weight = _weights(t, own, values, fixed)
    m = t.map_index(info)
    closure = [(idx, orig, label_cells(idx, game.stage_actions[i]),
                (weight.reshape(len(idx), -1) != 0.0).any(axis=1))
               for i, (idx, orig) in zip(own, t.recall_closure(m, own))]
    spent, value, choice = 0, -np.inf, None
    stack = [_relaxed(t, own, closure, weight, {})]
    while stack:
        bound, forced, acts, clash = stack.pop()
        if bound <= value:
            continue
        if clash is None:
            value, choice = bound, acts
            continue
        i, g = clash
        spent += game.stage_actions[i] * len(t.rewards)
        if spent > cap:
            raise EnumerationTooLarge(
                f"best-response enumeration exceeded cap={cap}")
        children = [_relaxed(t, own, closure, weight, {**forced, clash: a})
                    for a in range(game.stage_actions[i])]
        # pops the best bound first, the lowest action among equal bounds
        stack += sorted(children, key=lambda node: node[0], reverse=True)[::-1]
    if not return_policy:
        return value
    table = {(i, g): np.eye(game.stage_actions[i])[a]
             for i, act in zip(own, choice) for g, a in zip(t.labels[m][i], act)}
    return value, BehavioralPolicy(info, table)


def _weights(t, own, values, fixed):
    """Each history's ``values`` entry times its Nature probability and every
    other player's probability of the action it plays, in stage order."""
    val = np.repeat(t.nature_probs, t.stride[0]) * values
    others = [i for i in range(t.game.num_stages) if i not in own]
    if others and fixed is None:
        raise ValueError("fixed policies required for other players")
    mx = t.map_index(fixed.info) if others else None
    for i in others:
        played = t.stage_matrix(fixed, i).reshape(-1)[t.cells(mx, i)]
        val = (val.reshape(len(played), -1) * played[:, None]).reshape(-1)
    return val


def _relaxed(t, own, closure, weight, forced):
    """Backward induction on the recall closure (per own stage: label and
    cells per prefix, map labels, weight below), with each (stage, label
    index) of ``forced`` playing its action.  Returns (value, forced, per
    own stage the action of each map label, None) when the optimum plays one
    action per map label on the closure labels its path reaches with nonzero
    weight, else (value, forced, None, a conflicting (stage, label index))."""
    val, best = weight, []
    for i, (idx, orig, cells, _) in zip(reversed(own), reversed(closure)):
        A = t.game.stage_actions[i]
        v = val.reshape(len(cells), -1).sum(axis=1)  # other players' stages
        s = np.bincount(cells, weights=v,
                        minlength=len(orig) * A).reshape(-1, A)
        for (j, g), a in forced.items():
            if j == i:
                rows = orig == g
                s[rows, :a] = s[rows, a + 1:] = -np.inf
        best.append(np.argmax(s, axis=1))
        val = v.reshape(-1, A)[np.arange(len(idx)), best[-1][idx]]
    value = float(val.sum())
    on, at, acts = np.arange(len(t.nature_probs)), 0, []  # prefixes on path
    for i, (idx, orig, _, reached), b in zip(own, closure, reversed(best)):
        on = label_cells(on, t.stride[at] // t.stride[i])  # descendants
        live = np.zeros(len(orig), dtype=bool)
        live[idx[on[reached[on]]]] = True
        act = np.empty(int(orig.max()) + 1, dtype=np.int64)
        act[orig] = b  # a label off the path keeps a choice of its own
        act[orig[live]] = b[live]
        clash = live & (act[orig] != b)
        if clash.any():
            return value, forced, None, (i, int(orig[clash].min()))
        acts.append(act)
        on, at = on * t.game.stage_actions[i] + b[idx[on]], i + 1
    return value, forced, acts, None
