"""Operations on games in product form: well-posedness of deterministic
profiles, policy surgery, and the exact best-response oracle."""

from __future__ import annotations

import numpy as np

from .core import BehavioralPolicy, History, InformationMap, ProductGame
from .engine import tables_for
from .errors import EnumerationTooLarge, IllegalSupport, WellPosednessViolation
from .infomaps import has_perfect_recall

DEFAULT_ENUM_CAP = 10_000_000


def check_well_posed(game: ProductGame, info: InformationMap,
                     profile: BehavioralPolicy) -> dict:
    """Fixed-point histories of a deterministic profile, one per nature state.

    Scans the full product set, so a map that peeks at future components is
    caught as zero or several fixed points for some nature state.
    """
    if not profile.is_deterministic():
        raise ValueError("check_well_posed needs a deterministic profile")
    L = game.num_stages
    out = {}
    for w in game.nature:
        found = []

        def scan(depth, acts):
            if depth == L:
                h = tuple(acts)
                ok = True
                for i in range(L):
                    vec = profile.local(i, w, h)
                    if int(np.argmax(vec)) != h[i]:
                        ok = False
                        break
                if ok:
                    found.append(h)
                return
            for a in range(game.stage_actions[depth]):
                scan(depth + 1, acts + [a])

        scan(0, [])
        if len(found) != 1:
            raise WellPosednessViolation(
                f"nature state {w!r} admits {len(found)} fixed points"
            )
        out[w] = History(w, found[0])
    return out


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
                        cap: int = DEFAULT_ENUM_CAP, reward_fn=None,
                        values=None, return_policy: bool = False):
    """Exact max over deterministic implementable policies of ``player``.

    Other players follow ``fixed`` (may be randomized); a deterministic best
    response exists because the objective is linear in each local component.
    ``reward_fn(history) -> float`` overrides the player's game reward, and
    ``values`` does the same with one number per history of
    ``tables_for(game, info).histories``, which lets the same maximization
    bound arbitrary per-history criteria.

    Two exact routes:

    - when ``info`` has perfect recall for ``player``, backward induction
      over the engine's arrays (behavioural strategies lose nothing there,
      Kuhn 1953): O(n·L) on n reachable histories of L stages, with
      ``reward_fn`` called once per history;
    - otherwise a lazy search that assigns actions to information labels,
      branching only on labels reachable under the current partial
      assignment.  Its cost is exponential in the number of labels (the
      problem is NP-hard without perfect recall, Koller & Megiddo 1992), and
      it raises ``EnumerationTooLarge`` after ``cap`` leaf visits.  ``cap``
      bounds only this search.

    With ``return_policy`` the maximizing deterministic policy of ``player``
    is returned too; the backward-induction route covers every label.
    """
    t = tables_for(game, info)
    if values is not None:
        if reward_fn is not None:
            raise ValueError("pass reward_fn or values, not both")
        values = np.asarray(values, dtype=float)
        if values.shape != (len(t.histories),):
            raise ValueError(f"values must hold one entry per reachable "
                             f"history ({len(t.histories)}), got shape "
                             f"{values.shape}")
    if has_perfect_recall(game, info, player):
        if values is None:
            values = (t.rewards[:, player] if reward_fn is None else
                      np.array([float(reward_fn(h)) for h in t.histories]))
        return _backward_induction(t, info, player, values, fixed,
                                   return_policy)
    if values is not None:
        row = {h: k for k, h in enumerate(t.histories)}
        reward_fn = lambda h: values[row[h]]
    return _search(game, info, player, fixed, cap, reward_fn, return_policy)


def _backward_induction(t, info, player, values, fixed, return_policy):
    """Best response on a perfect-recall map, last own stage first.

    Every other player's stage probability is applied up front, since it
    weighs the histories an own label pools.  Perfect recall makes the
    earlier own choices along a history a function of its label, so each
    label's best action is independent of them.
    """
    game = t.game
    own = game.stages_of(player)
    val = t.nat_prob * values
    others = [i for i in range(game.num_stages) if i not in own]
    if others and fixed is None:
        raise ValueError("fixed policies required for other players")
    mx = t.map_index(fixed.info) if others else None
    for i in others:
        rows = np.array([fixed.table[(i, g)] for g in t.labels[mx][i]],
                        dtype=float)
        val = val * rows[t.label_idx[mx][i], t.action_cols[:, i]]
    m = t.map_index(info)
    best = {}
    for i in reversed(own):
        best[i] = np.argmax(t.segment_sum(val, m, i), axis=1)
        val = np.where(t.action_cols[:, i] == best[i][t.label_idx[m][i]],
                       val, 0.0)
    value = float(val.sum())
    if not return_policy:
        return value
    table = {}
    for i in own:
        onehot = np.eye(game.stage_actions[i])
        for g, a in zip(t.labels[m][i], best[i]):
            table[(i, g)] = onehot[a].copy()
    return value, BehavioralPolicy(info, table)


def _search(game, info, player, fixed, cap, reward_fn, return_policy):
    """The lazy label-assignment search behind ``best_response_value``."""
    L = game.num_stages
    nodes = [0]

    def reward(w, acts):
        h = History(w, tuple(acts))
        if reward_fn is not None:
            return float(reward_fn(h))
        return float(game.reward(w, h.actions)[player])

    def go(jobs, j, assignment):
        """Max over completions of pending weighted prefixes jobs[j:]."""
        if j == len(jobs):
            return 0.0
        w, acts, wgt = jobs[j]
        i = len(acts)
        if i == L:
            nodes[0] += 1
            if nodes[0] > cap:
                raise EnumerationTooLarge(
                    f"best-response enumeration exceeded cap={cap}"
                )
            return wgt * reward(w, acts) + go(jobs, j + 1, assignment)
        if game.player_of_stage[i] != player:
            if fixed is None:
                raise ValueError("fixed policies required for other players")
            vec = fixed.local(i, w, tuple(acts) + (0,) * (L - i))
            children = [
                (w, acts + [a], wgt * float(vec[a]))
                for a in range(len(vec)) if vec[a] > 0.0
            ]
            return go(jobs[:j] + children + jobs[j + 1:], j, assignment)
        g = info.label(i, w, tuple(acts) + (0,) * (L - i))
        n = game.num_actions(i, g)
        if g in assignment:
            return go(jobs[:j] + [(w, acts + [assignment[g]], wgt)] + jobs[j + 1:],
                      j, assignment)
        best = -np.inf
        for a in range(n):
            assignment[g] = a
            v = go(jobs[:j] + [(w, acts + [a], wgt)] + jobs[j + 1:], j, assignment)
            if v > best:
                best = v
            del assignment[g]
        return best

    jobs = [(w, [], float(p)) for w, p in zip(game.nature, game.probs()) if p > 0.0]
    value = go(jobs, 0, {})
    if not return_policy:
        return value
    # second pass to recover one maximizing assignment
    policy = _recover_best_policy(game, info, player, fixed, reward, jobs, value)
    return value, policy


def _recover_best_policy(game, info, player, fixed, reward, jobs, value):
    """Greedy re-descent: fix each branch to a choice achieving the optimum."""
    L = game.num_stages
    assignment = {}

    def go(jobs, j):
        if j == len(jobs):
            return 0.0
        w, acts, wgt = jobs[j]
        i = len(acts)
        if i == L:
            return wgt * reward(w, acts) + go(jobs, j + 1)
        if game.player_of_stage[i] != player:
            vec = fixed.local(i, w, tuple(acts) + (0,) * (L - i))
            children = [
                (w, acts + [a], wgt * float(vec[a]))
                for a in range(len(vec)) if vec[a] > 0.0
            ]
            return go(jobs[:j] + children + jobs[j + 1:], j)
        g = info.label(i, w, tuple(acts) + (0,) * (L - i))
        if g in assignment:
            return go(jobs[:j] + [(w, acts + [assignment[g]], wgt)] + jobs[j + 1:], j)
        best, best_a = -np.inf, 0
        for a in range(game.num_actions(i, g)):
            assignment[g] = a
            v = go(jobs[:j] + [(w, acts + [a], wgt)] + jobs[j + 1:], j)
            del assignment[g]
            if v > best:
                best, best_a = v, a
        assignment[g] = best_a
        return go(jobs[:j] + [(w, acts + [best_a], wgt)] + jobs[j + 1:], j)

    go(list(jobs), 0)
    table = {}
    for g, a in assignment.items():
        stage = g[0]
        vec = np.zeros(game.num_actions(stage, g))
        vec[a] = 1.0
        table[(stage, g)] = vec
    return BehavioralPolicy(info, table)
