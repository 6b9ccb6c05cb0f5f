"""Operations on games in product form: well-posedness of deterministic
profiles, policy surgery, and the exact best response, one branch-and-bound
search over labels bounded by the perfect-recall relaxation of the map."""

from __future__ import annotations

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import tables_for
from .errors import EnumerationTooLarge, IllegalSupport, WellPosednessViolation

DEFAULT_ENUM_CAP = 10_000_000


def check_well_posed(game: ProductGame, info: InformationMap,
                     profile: BehavioralPolicy) -> dict:
    """Fixed-point histories of a deterministic profile, one per nature state.

    Scans the full product set, so a map that peeks at future components is
    caught as zero or several fixed points for some nature state.
    """
    if not profile.is_deterministic():
        raise ValueError("check_well_posed needs a deterministic profile")
    found = {w: [] for w in game.nature}
    for h in tables_for(game).histories:
        if all(int(np.argmax(profile.local(i, *h))) == a
               for i, a in enumerate(h.actions)):
            found[h.nature].append(h)
    for w, points in found.items():
        if len(points) != 1:
            raise WellPosednessViolation(
                f"nature state {w!r} admits {len(points)} fixed points"
            )
    return {w: points[0] for w, points in found.items()}


def modify_policy(policy: BehavioralPolicy, stage: int, local) -> BehavioralPolicy:
    """Replace the stage-``stage`` component; chain calls for multi-edits.

    ``local`` is either a probability vector applied at every label of the
    stage, or a dict label -> vector.
    """
    out = policy.copy()
    keys = [k for k in out.table if k[0] == stage]
    if not keys:
        raise KeyError(f"policy has no component at stage {stage}")
    for key in keys:
        vec = local[key[1]] if isinstance(local, dict) else local
        v = np.asarray(vec, dtype=float)
        if len(v) != len(out.table[key]):
            raise IllegalSupport("replacement vector has wrong action count")
        if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-12:
            raise IllegalSupport("replacement is not a probability vector")
        out.table[key] = v
    return out


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
    root solves the problem, O(n·L) on n histories of L stages.  Otherwise
    it is NP-hard (Koller & Megiddo 1992), and ``EnumerationTooLarge`` is
    raised once the children evaluated exceed ``cap`` histories in all.

    With ``return_policy`` the maximizing deterministic policy of ``player``
    is returned too; it covers every label.
    """
    t = tables_for(game, info)
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape != t.nature_idx.shape:
            raise ValueError(f"values must hold one entry per reachable "
                             f"history ({len(t.nature_idx)}), got shape "
                             f"{values.shape}")
    else:
        values = t.rewards[:, player]
    own = game.stages_of(player)
    weight = _weights(t, own, values, fixed)
    m = t.map_index(info)
    closure = t.recall_closure(m, own)
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
        spent += game.stage_actions[i] * len(t.nature_idx)
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
    game = t.game
    val = t.nat_prob * values
    others = [i for i in range(game.num_stages) if i not in own]
    if others and fixed is None:
        raise ValueError("fixed policies required for other players")
    mx = t.map_index(fixed.info) if others else None
    for i in others:
        rows = np.array([fixed.table[(i, g)] for g in t.labels[mx][i]],
                        dtype=float)
        val = val * rows[t.label_idx[mx][i], t.action_cols[:, i]]
    return val


def _relaxed(t, own, closure, weight, forced):
    """Backward induction on the recall closure with each (stage, label
    index) of ``forced`` playing its action.  Returns (value, forced, per own
    stage the action of each map label, None) when the optimum plays one
    action per map label on the closure labels its path reaches with nonzero
    weight, else (value, forced, None, a conflicting (stage, label index))."""
    val, best = weight, []
    for i, (idx, orig) in zip(reversed(own), reversed(closure)):
        A = t.game.stage_actions[i]
        s = np.bincount(idx * A + t.action_cols[:, i], weights=val,
                        minlength=len(orig) * A).reshape(-1, A)
        for (j, g), a in forced.items():
            if j == i:
                rows = orig == g
                s[rows, :a] = s[rows, a + 1:] = -np.inf
        best.append(np.argmax(s, axis=1))
        val = np.where(t.action_cols[:, i] == best[-1][idx], val, 0.0)
    value = float(val.sum())
    on, acts = weight != 0.0, []
    for i, (idx, orig), b in zip(own, closure, reversed(best)):
        live = np.zeros(len(orig), dtype=bool)
        live[idx[on]] = True
        act = np.empty(int(orig.max()) + 1, dtype=np.int64)
        act[orig] = b  # a label off the path keeps a choice of its own
        act[orig[live]] = b[live]
        clash = live & (act[orig] != b)
        if clash.any():
            return value, forced, None, (i, int(orig[clash].min()))
        acts.append(act)
        on &= t.action_cols[:, i] == b[idx]
    return value, forced, acts, None
