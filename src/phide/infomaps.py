"""Non-anticipativity, refinement and perfect-recall checks, the projector,
and the reweighted squared distance between policies.

Every question about label structure is read off two ``Tables``
primitives: the (coarse, fine) label pairs of ``Tables.pairs``, built once
per call, and the recall closure of ``Tables.recall_closure``.
"""

from __future__ import annotations

import numpy as np

from .core import BehavioralPolicy, InformationMap, ProductGame
from .engine import pair_masses, refinement, tables_for
from .errors import ZeroReachLabel


def _label_range(rows: np.ndarray, offsets: np.ndarray):
    """Per coarse label, the elementwise min and max of ``rows``, one row per
    (coarse, fine) pair of ``Tables.pairs``, over the label's pairs."""
    starts = offsets[:-1]
    return (np.minimum.reduceat(rows, starts, axis=0),
            np.maximum.reduceat(rows, starts, axis=0))


def pair_sq_distance(pairs, mat: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between the fine row of ``mat`` and the
    coarse row of ``gam`` of each (coarse, fine) label pair of ``pairs``,
    one stage's ``Tables.pairs``."""
    _, coarse, fine, _ = pairs
    diff = mat[fine] - gam[coarse]
    return (diff * diff).sum(axis=1)


def is_implementable(game: ProductGame, info: InformationMap,
                     policy: BehavioralPolicy, atol: float = 1e-12) -> bool:
    """True iff equal ``info`` labels imply equal local vectors.

    Trivially true when the policy is keyed by ``info`` itself; the check
    matters for policies keyed by a finer map and judged against ``info``.
    """
    t = tables_for(game, info, policy.info)
    for mat, (_, _, fine, offsets) in zip(t.matrices(policy),
                                          t.pairs(policy.info, info)):
        mn, mx = _label_range(mat[fine], offsets)
        if np.max(mx - mn) > atol:
            return False
    return True


def is_finer(fine: InformationMap, coarse: InformationMap,
             game: ProductGame) -> bool:
    """True iff at every stage, ``coarse`` separating two reachable histories
    implies ``fine`` separates them (same fine label => same coarse label)."""
    t = tables_for(game, coarse, fine)
    return all(refinement(pairs, len(labels)) is not None
               for pairs, labels in zip(t.pairs(fine, coarse),
                                        t.labels[t.map_index(fine)]))


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


def coarse_masses(pairs, pair_mass) -> list[np.ndarray]:
    """Per stage, each coarse label's mass: the sum of ``pair_mass[i]``
    over its pairs in ``pairs[i]``, stage i of ``Tables.pairs``.  A
    coarse label with no mass raises ZeroReachLabel."""
    out = []
    for i, ((_, coarse, _, offsets), pm) in enumerate(zip(pairs, pair_mass)):
        mass = np.bincount(coarse, weights=pm, minlength=len(offsets) - 1)
        if (mass <= 0.0).any():
            raise ZeroReachLabel(
                f"stage {i}: coarse label with zero base mass; use a "
                "full-support base policy"
            )
        out.append(mass)
    return out


def project_matrices(pairs, mu_mats, pair_mass, coarse_mass, out=None):
    """Reach-weighted average of fine local vectors per coarse label.

    ``pairs[i]`` is ``Tables.pairs`` at stage i, ``pair_mass[i]`` the base
    reach of each of its (coarse, fine) label pairs (``engine.pair_masses``
    of a forward pass) and ``coarse_mass[i]`` their sums per coarse label
    (``coarse_masses``), so a stage costs O(pairs · A), whatever the number
    of histories.  When every fine vector merged into a coarse label is
    bit-identical the common vector is returned unchanged, so projecting an
    implementable policy is an exact fixed point.  ``out[i]``, if given, is
    a pair of [pairs, A] arrays that stage i's fine rows and weighted rows
    are written to; the projection itself is always a new array.
    """
    gammas = []
    for i, ((_, coarse, fine, offsets), mat, pm, mass) in enumerate(
            zip(pairs, mu_mats, pair_mass, coarse_mass)):
        rows_out, weighted_out = (None, None) if out is None else out[i]
        rows = mat.take(fine, axis=0, out=rows_out, mode="clip")
        weighted = np.multiply(pm[:, None], rows, out=weighted_out)
        gamma = np.add.reduceat(weighted, offsets[:-1], axis=0)
        gamma /= mass[:, None]
        mn, mx = _label_range(rows, offsets)
        const = (mn == mx).all(axis=1)
        np.copyto(gamma, mn, where=const[:, None])
        gammas.append(gamma)
    return gammas


def project(game: ProductGame, info_coarse: InformationMap,
            info_fine: InformationMap, base: BehavioralPolicy,
            policy: BehavioralPolicy) -> BehavioralPolicy:
    """Conditional expectation of ``policy`` onto ``info_coarse`` under the
    pushforward of ``base``; always yields an implementable policy."""
    t = tables_for(game, info_coarse, info_fine, base.info, policy.info)
    before = t.forward(t.matrices(base), t.map_index(base.info))
    pairs = t.pairs(policy.info, info_coarse)
    pm = pair_masses(pairs, before)
    gam = project_matrices(pairs, t.matrices(policy), pm,
                           coarse_masses(pairs, pm))
    return t.to_policy(gam, info_coarse)


def weighted_sq_distance(game: ProductGame, base: BehavioralPolicy,
                         mu: BehavioralPolicy,
                         gamma: BehavioralPolicy) -> float:
    """Sum over stages of the base-pushforward expectation of the squared
    Euclidean distance between the two local action distributions."""
    t = tables_for(game, base.info, mu.info, gamma.info)
    before = t.forward(t.matrices(base), t.map_index(base.info))
    pairs = t.pairs(mu.info, gamma.info)
    total = 0.0
    for p, pm, m, g in zip(pairs, pair_masses(pairs, before),
                           t.matrices(mu), t.matrices(gamma)):
        total += float(pm @ pair_sq_distance(p, m, g))
    return total
