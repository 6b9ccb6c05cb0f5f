"""Per-history views of the stage-prefix arrays of ``Tables``, for the
reference computations that run over histories: a history's label is its
stage prefix's, and its Nature probability its Nature state's."""

import numpy as np


def hist_labels(t, m, i):
    """Each history's stage-i label index under map ``m``."""
    return np.repeat(t.prefix_label[m][i], t.stride[i])


def hist_probs(t):
    """Each history's Nature probability."""
    return t.nature_probs[t.nature_idx]
