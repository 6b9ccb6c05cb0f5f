"""Non-anticipativity, refinement and perfect-recall checks, the projector,
and the reweighted squared distance between policies."""

from __future__ import annotations

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import Tables, tables_for
from .errors import ZeroReachLabel


def is_implementable(game: ProductGame, info: InformationMap,
                     policy: BehavioralPolicy, atol: float = 1e-12) -> bool:
    """True iff equal ``info`` labels imply equal local vectors.

    Trivially true when the policy is keyed by ``info`` itself; the check
    matters for policies keyed by a finer map and judged against ``info``.
    """
    t = tables_for(game, info, policy.info)
    mats = t.matrices(policy)
    mp = t.map_index(policy.info)
    mc = t.map_index(info)
    for i in range(game.num_stages):
        rows = mats[i][t.label_idx[mp][i]]
        idx = t.label_idx[mc][i]
        n = len(t.labels[mc][i])
        mn = np.full((n, rows.shape[1]), np.inf)
        mx = np.full((n, rows.shape[1]), -np.inf)
        np.minimum.at(mn, idx, rows)
        np.maximum.at(mx, idx, rows)
        if np.max(mx - mn) > atol:
            return False
    return True


def is_finer(fine: InformationMap, coarse: InformationMap,
             game: ProductGame) -> bool:
    """True iff at every stage, ``coarse`` separating two reachable histories
    implies ``fine`` separates them (same fine label => same coarse label)."""
    t = tables_for(game, coarse, fine)
    return all(arr is not None for arr in t.refinement(fine, coarse))


def has_perfect_recall(game: ProductGame, info: InformationMap,
                       player: int) -> bool:
    """The two recall conditions for every ordered pair of the player's stages:
    distinctions once made persist, and own past actions are remembered."""
    t = tables_for(game, info)
    m = t.map_index(info)
    own = game.stages_of(player)
    for a, i in enumerate(own):
        for j in own[a + 1:]:
            lj = t.label_idx[m][j]
            n = len(t.labels[m][j])
            for vals in (t.label_idx[m][i], t.action_cols[:, i]):
                mn = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
                mx = np.full(n, -1, dtype=np.int64)
                np.minimum.at(mn, lj, vals)
                np.maximum.at(mx, lj, vals)
                if np.any(mn != mx):
                    return False
    return True


def project_matrices(t: Tables, mu_mats, m_fine: int, m_coarse: int,
                     q0: np.ndarray, stages=None):
    """Pushforward-weighted average of fine local vectors per coarse label.

    A stage costs O(n + pairs · A), with n histories and the (coarse, fine)
    label pairs of ``Tables.pairs``: ``q0`` is binned by pair in one pass,
    and the average runs over pairs, not histories.  When every fine vector
    merged into a coarse label is bit-identical the common vector is
    returned unchanged, so projecting an implementable policy is an exact
    fixed point.
    """
    L = t.game.num_stages
    if stages is None:
        stages = range(L)
    out = []
    for i in range(L):
        if i not in stages:
            out.append(None)
            continue
        pair_idx, coarse, fine, offsets = t.pairs(m_fine, m_coarse, i)
        pm = np.bincount(pair_idx, weights=q0, minlength=len(fine))
        mass = np.bincount(coarse, weights=pm,
                           minlength=len(t.labels[m_coarse][i]))
        if np.any(mass <= 0.0):
            raise ZeroReachLabel(
                f"stage {i}: coarse label with zero base mass; use a "
                "full-support base policy"
            )
        rows = mu_mats[i][fine]
        starts = offsets[:-1]
        gamma = (np.add.reduceat(pm[:, None] * rows, starts, axis=0)
                 / mass[:, None])
        mn = np.minimum.reduceat(rows, starts, axis=0)
        mx = np.maximum.reduceat(rows, starts, axis=0)
        const = np.all(mn == mx, axis=1)
        gamma[const] = mn[const]
        out.append(gamma)
    return out


def project(game: ProductGame, info_coarse: InformationMap,
            info_fine: InformationMap, base: BehavioralPolicy,
            policy: BehavioralPolicy, stages=None) -> BehavioralPolicy:
    """Conditional expectation of ``policy`` onto ``info_coarse`` under the
    pushforward of ``base``; always yields an implementable policy."""
    t = tables_for(game, info_coarse, info_fine, base.info, policy.info)
    q0, _ = t.pushforward(t.matrices(base), t.map_index(base.info))
    mats = t.matrices(policy)
    gam = project_matrices(
        t, mats, t.map_index(policy.info), t.map_index(info_coarse), q0,
        stages=stages,
    )
    table = {}
    mc = t.map_index(info_coarse)
    for i in range(game.num_stages):
        if gam[i] is None:
            continue
        for r, g in enumerate(t.labels[mc][i]):
            table[(i, g)] = np.array(gam[i][r])
    return BehavioralPolicy(info_coarse, table)


def weighted_sq_distance(game: ProductGame, base: BehavioralPolicy,
                         mu: BehavioralPolicy, gamma: BehavioralPolicy,
                         stages=None) -> float:
    """Sum over stages of the base-pushforward expectation of the squared
    Euclidean distance between the two local action distributions."""
    t = tables_for(game, base.info, mu.info, gamma.info)
    q0, _ = t.pushforward(t.matrices(base), t.map_index(base.info))
    mm, mg = t.matrices(mu), t.matrices(gamma)
    im, ig = t.map_index(mu.info), t.map_index(gamma.info)
    if stages is None:
        stages = range(game.num_stages)
    total = 0.0
    for i in stages:
        diff = mm[i][t.label_idx[im][i]] - mg[i][t.label_idx[ig][i]]
        total += float(q0 @ np.sum(diff * diff, axis=1))
    return total
