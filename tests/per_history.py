"""Per-history views of the stage-prefix arrays of ``Tables``, for the
reference computations that run over histories: a history's label is its
stage prefix's, its Nature probability its Nature state's, and its actions
the digits of its index after Nature's, from the full index grid."""

import numpy as np


def hist_actions(t):
    """Each history's actions, one row per history."""
    shape = (len(t.nature_probs), *t.game.stage_actions)
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1)[1:].T


def hist_labels(t, m, i):
    """Each history's stage-i label index under map ``m``."""
    return np.repeat(t.prefix_label[m][i], t.stride[i])


def hist_probs(t):
    """Each history's Nature probability."""
    return t.nature_probs[t.nature_idx]
