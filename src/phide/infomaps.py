"""Non-anticipativity, refinement and perfect-recall checks, the projector,
and the reweighted squared distance between policies.

Every question about label structure is read off two ``Tables``
primitives: the (coarse, fine) label pairs of ``Tables.pairs`` and the
recall closure of ``Tables.recall_closure``.
"""

from __future__ import annotations

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import Tables, tables_for
from .errors import ZeroReachLabel


def _label_range(rows: np.ndarray, offsets: np.ndarray):
    """Per coarse label, the elementwise min and max of ``rows``, one row per
    (coarse, fine) pair of ``Tables.pairs``, over the label's pairs."""
    starts = offsets[:-1]
    return (np.minimum.reduceat(rows, starts, axis=0),
            np.maximum.reduceat(rows, starts, axis=0))


def pair_sq_distance(t: Tables, mats, gam, m_fine: int, m_coarse: int, i: int):
    """Squared Euclidean distance between the fine row ``mats[i]`` and the
    coarse row ``gam[i]`` of each (coarse, fine) label pair at stage i, and
    each stage-i prefix's pair index."""
    pair_idx, coarse, fine, _ = t.pairs(m_fine, m_coarse, i)
    diff = mats[i][fine] - gam[i][coarse]
    return np.sum(diff * diff, axis=1), pair_idx


def is_implementable(game: ProductGame, info: InformationMap,
                     policy: BehavioralPolicy, atol: float = 1e-12) -> bool:
    """True iff equal ``info`` labels imply equal local vectors.

    Trivially true when the policy is keyed by ``info`` itself; the check
    matters for policies keyed by a finer map and judged against ``info``.
    """
    t = tables_for(game, info, policy.info)
    mats = t.matrices(policy)
    mp, mc = t.map_index(policy.info), t.map_index(info)
    for i in range(game.num_stages):
        _, _, fine, offsets = t.pairs(mp, mc, i)
        mn, mx = _label_range(mats[i][fine], offsets)
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
    """True iff at every stage of ``player`` the recall closure of ``info``
    (``Tables.recall_closure``) has exactly as many labels as ``info``.

    A closure label encodes the map's labels at the player's stages so far
    and the player's earlier actions, so equal counts mean each label
    determines both: distinctions once made persist, and own past actions
    are remembered.
    """
    t = tables_for(game, info)
    m = t.map_index(info)
    own = game.stages_of(player)
    return all(len(orig) == len(t.labels[m][i])
               for i, (_, orig) in zip(own, t.recall_closure(m, own)))


def project_matrices(t: Tables, mu_mats, m_fine: int, m_coarse: int,
                     pair_mass):
    """Reach-weighted average of fine local vectors per coarse label.

    ``pair_mass[i]`` is the base reach of each (coarse, fine) label pair of
    ``Tables.pairs`` at stage i (``Tables.pair_masses`` of a forward pass),
    so a stage costs O(pairs · A), whatever the number of histories.  When
    every fine vector merged into a coarse label is bit-identical the common
    vector is returned unchanged, so projecting an implementable policy is
    an exact fixed point.
    """
    out = []
    for i, pm in enumerate(pair_mass):
        _, coarse, fine, offsets = t.pairs(m_fine, m_coarse, i)
        mass = np.bincount(coarse, weights=pm,
                           minlength=len(t.labels[m_coarse][i]))
        if np.any(mass <= 0.0):
            raise ZeroReachLabel(
                f"stage {i}: coarse label with zero base mass; use a "
                "full-support base policy"
            )
        rows = mu_mats[i][fine]
        gamma = (np.add.reduceat(pm[:, None] * rows, offsets[:-1], axis=0)
                 / mass[:, None])
        mn, mx = _label_range(rows, offsets)
        const = np.all(mn == mx, axis=1)
        gamma[const] = mn[const]
        out.append(gamma)
    return out


def project(game: ProductGame, info_coarse: InformationMap,
            info_fine: InformationMap, base: BehavioralPolicy,
            policy: BehavioralPolicy) -> BehavioralPolicy:
    """Conditional expectation of ``policy`` onto ``info_coarse`` under the
    pushforward of ``base``; always yields an implementable policy."""
    t = tables_for(game, info_coarse, info_fine, base.info, policy.info)
    mf, mc = t.map_index(policy.info), t.map_index(info_coarse)
    before = t.forward(t.matrices(base), t.map_index(base.info))
    gam = project_matrices(t, t.matrices(policy), mf, mc,
                           t.pair_masses(before, mf, mc))
    return t.to_policy(gam, info_coarse)


def weighted_sq_distance(game: ProductGame, base: BehavioralPolicy,
                         mu: BehavioralPolicy,
                         gamma: BehavioralPolicy) -> float:
    """Sum over stages of the base-pushforward expectation of the squared
    Euclidean distance between the two local action distributions."""
    t = tables_for(game, base.info, mu.info, gamma.info)
    before = t.forward(t.matrices(base), t.map_index(base.info))
    mm, mg = t.matrices(mu), t.matrices(gamma)
    im, ig = t.map_index(mu.info), t.map_index(gamma.info)
    total = 0.0
    for i, pm in enumerate(t.pair_masses(before, im, ig)):
        total += float(pm @ pair_sq_distance(t, mm, mg, im, ig, i)[0])
    return total
