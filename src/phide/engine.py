"""Vectorized tables over the reachable set of a game.

Compiles a game, and each information map added, into flat numpy arrays:
one per history, the rewards, and each map's labels per stage prefix.  Every
exact-enumeration computation in the library (pushforwards, projections,
best responses) runs off these arrays.

The histories are the product Omega x prod_i [A_i] in mixed-radix order, so
the stage-i prefixes (w, a_0, ..., a_{i-1}) are in the same order, and
history k has prefix k // stride_i with stride_i = prod_{j>=i} A_j.  Every
map that ``add_map`` accepts is non-anticipative, so its stage-i label is a
function of the prefix: ``prefix_label[m][i]`` holds it, one entry per
prefix, |Omega|·prod_{j<i} A_j in all; no per-history copy is kept, and a
history's digits and a prefix's (label, action) cell (``Tables.cells``) are
computed where they are read.  The solver loop, recall closure and
best-response search run on these: a forward pass (``forward``) gives the
reach of every prefix, stage by stage, and the (coarse, fine) label pairs of
two maps (``Tables.pairs``, which each caller builds once and keeps) and
their masses under a forward pass (``pair_masses``) are indexed by prefix
too.  Nature state w's prefixes are the w-th of |Omega| equal blocks of each
prefix array.  A solver loop of R repeats runs on R copies of these arrays
end to end (``stacked``, ``tiled``), its label pairs too (``label_pairs`` of
stacked labels).

``Tables`` also owns the solver loop's workspace (``Tables.work``): one flat
float64 buffer per (role, stage), grown only to the largest request and
kept as long as the Tables.  A solver step's temporaries as long as a
history array, a stage's prefixes or its (label, action) cells live in it,
so a step allocates little beyond what it hands out.  A buffer's contents
live only inside one ``SolverLoop.iterate()``, so every loop on a game
shares its buffers, one at a time: the workspace serves one thread.
Nothing a loop hands out aliases a buffer.  ``forward``, ``scaled`` and the
loop's other helpers write into a buffer through ``out=``; without it they
allocate.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref

import numpy as np

from .core import (BehavioralPolicy, History, InformationMap, ProductGame,
                   check_callable_stage, check_stage_count,
                   check_token_stages, invalid_game)
from .errors import IllegalSupport

# A mixed-radix label key is ranked down to dense codes before it could
# pass this bound.
_KEY_BOUND = 2 ** 62


class Tables:
    """A game's rewards, one row per history of the product Omega x prod_i
    [A_i] in the order of ``enumerate_reachable``, and the labels of every map
    added, one per stage prefix.  ``add_map`` checks every map the same way,
    first or later.  A token stage costs one label call per distinct label, a
    callable stage one per history."""

    def __init__(self, game: ProductGame, *maps: InformationMap):
        self._game = weakref.ref(game)
        self.nature_probs = game.probs()
        # stride[i] histories share each stage-i prefix; stride[L] is 1
        self.stride = [int(np.prod(game.stage_actions[i:], dtype=np.int64))
                       for i in range(game.num_stages + 1)]
        self.rewards = _rewards(game)
        self.reward_inf_norm = float(np.max(np.abs(self.rewards)))

        self._map_ids: dict[int, int] = {}
        self.maps: list[InformationMap] = []
        # per map: labels[i] (first-seen order), prefix_label[i] (per prefix)
        self.labels: list[list[list]] = []
        self.prefix_label: list[list[np.ndarray]] = []
        # (role, stage) -> (buffer, the view of it last lent)
        self._work: dict[tuple, tuple] = {}
        for m in maps:
            self.add_map(m)

    @property
    def game(self) -> ProductGame:
        """The game, held weakly, so a dead game's Tables needs no cycle
        collection."""
        return self._game()

    @property
    def nature_idx(self) -> np.ndarray:
        """Each history's Nature state index, computed on read."""
        return np.repeat(np.arange(len(self.nature_probs)), self.stride[0])

    @functools.cached_property
    def histories(self) -> list[History]:
        """One ``History`` per history, built on first read: callable
        stages, ``check_well_posed`` and serialization read it, the array
        work does not."""
        game = self.game
        plays = list(itertools.product(*map(range, game.stage_actions)))
        return [History(w, a) for w in game.nature for a in plays]

    # ------------------------------------------------------------------ maps

    def add_map(self, info: InformationMap) -> int:
        """The map's index.  On first sight, the one map check: the stage
        count, ``check_token_stages``, then ``check_callable_stage`` on each
        callable stage's labels; a map that fails is not added.  The check
        makes every stage label a function of the prefix, which
        ``prefix_label`` reads off the prefix's first history."""
        if id(info) in self._map_ids:
            return self._map_ids[id(info)]
        check_stage_count(self.game, info)
        check_token_stages(self.game, info)
        labels, prefix = zip(*(self._stage_labels(info, i)
                               for i in range(self.game.num_stages)))
        self._map_ids[id(info)] = len(self.maps)
        self.maps.append(info)
        self.labels.append(list(labels))
        self.prefix_label.append(list(prefix))
        return self._map_ids[id(info)]

    def _stage_labels(self, info: InformationMap, i: int):
        """Stage-i labels in first-seen order and each stage-i prefix's
        label index; a callable stage's per-history index is checked by
        ``check_callable_stage`` and dropped."""
        tokens = info.revealed[i]
        if tokens is None:
            seen: dict = {}
            idx = np.empty(len(self.rewards), dtype=np.int64)
            for k, h in enumerate(self.histories):
                idx[k] = seen.setdefault(info.label(i, h.nature, h.actions),
                                         len(seen))
            check_callable_stage(self.game, i, idx)
            return list(seen), idx[::self.stride[i]].copy()
        # One mixed-radix key per prefix row; equal keys are equal labels.
        # Prefix order is history order, so first-seen order is unchanged.
        game, L = self.game, self.game.num_stages
        digits = np.unravel_index(  # of each prefix's first history
            np.arange(len(self.rewards) // self.stride[i]) * self.stride[i],
            (len(game.nature), *game.stage_actions))
        key, bound = np.zeros(len(digits[0]), dtype=np.int64), 1
        for kind, j in tokens:
            if kind == "action":
                radix = game.stage_actions[j % L]
                col = digits[1 + j % L]
            else:
                codes: dict = {}
                per_w = [codes.setdefault(w[j], len(codes))
                         for w in game.nature]
                radix = len(codes)
                col = np.array(per_w, dtype=np.int64)[digits[0]]
            if bound * radix >= _KEY_BOUND:
                key = np.unique(key, return_inverse=True)[1].reshape(-1)
                bound = int(key.max()) + 1
            key, bound = key * radix + col, bound * radix
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        labels = [info.label(i, game.nature[w], tuple(a)) for w, *a
                  in np.transpose([d[first[order]] for d in digits]).tolist()]
        return labels, rank[inverse.reshape(-1)]

    def map_index(self, info: InformationMap) -> int:
        return self.add_map(info)

    def pairs(self, fine: InformationMap, coarse: InformationMap):
        """Per stage, ``label_pairs`` of the two maps' labels."""
        mf, mc = self.map_index(fine), self.map_index(coarse)
        return [label_pairs(self.prefix_label[mf][i], self.prefix_label[mc][i],
                            len(self.labels[mf][i]), len(self.labels[mc][i]))
                for i in range(self.game.num_stages)]

    def cells(self, m: int, i: int) -> np.ndarray:
        """Each stage-(i + 1) prefix's (stage-i label, action) bin in map m."""
        return label_cells(self.prefix_label[m][i], self.game.stage_actions[i])

    def recall_closure(self, m: int, own):
        """Per stage i of ``own``, each stage-i prefix's label in the recall
        closure of map ``m`` (the map's labels at ``own`` stages so far and
        the actions at the earlier ones: its coarsest refinement with
        perfect recall) and the map's label of each closure label."""
        out, key = [], np.zeros(len(self.nature_probs), dtype=np.int64)
        for i in own:
            lab = self.prefix_label[m][i]
            key = np.repeat(key, len(lab) // len(key))  # stage-i prefixes
            _, first, idx = np.unique(key * len(self.labels[m][i]) + lab,
                                      return_index=True, return_inverse=True)
            out.append((idx.reshape(-1), lab[first]))
            key = label_cells(out[-1][0], self.game.stage_actions[i])
        return out

    def work(self, role: str, stage: int, shape) -> np.ndarray:
        """A float64 array of ``shape``, uninitialized, in the work buffer
        of (``role``, ``stage``), which grows to the largest request.  Its
        contents last until the next request of the same key, so they may
        live inside one solver step alone (module docstring)."""
        buf, view = self._work.get((role, stage), (None, None))
        if view is None or view.shape != shape:
            size = math.prod(shape)
            if buf is None or len(buf) < size:
                buf = np.empty(size)
            view = buf[:size].reshape(shape)
            self._work[role, stage] = buf, view  # the latest view, reused
        return view

    # -------------------------------------------------------------- policies

    def matrices(self, policy: BehavioralPolicy) -> list[np.ndarray]:
        """Per-stage [n_labels, A] matrix form of a policy table."""
        return [self.stage_matrix(policy, i)
                for i in range(self.game.num_stages)]

    def stage_matrix(self, policy: BehavioralPolicy, i: int) -> np.ndarray:
        """The [n_labels, A] matrix of a policy table at stage i alone, so
        the table need not cover the other stages.  A missing local vector,
        or one of the wrong length, raises ``IllegalSupport``."""
        m = self.map_index(policy.info)
        A = self.game.stage_actions[i]
        rows = np.empty((len(self.labels[m][i]), A))
        for r, g in enumerate(self.labels[m][i]):
            try:
                vec = np.asarray(policy.table[(i, g)], dtype=float)
            except KeyError:
                raise IllegalSupport(f"{policy.info!r} stage {i} label {g!r}: "
                                     f"no local vector") from None
            if len(vec) != A:
                raise IllegalSupport(
                    f"{policy.info!r} stage {i} label {g!r}: local "
                    f"vector of length {len(vec)}, expected {A}")
            rows[r] = vec
        return rows

    def to_policy(self, mats, info: InformationMap) -> BehavioralPolicy:
        m = self.map_index(info)
        table = {}
        for i in range(self.game.num_stages):
            for r, g in enumerate(self.labels[m][i]):
                table[(i, g)] = np.array(mats[i][r])
        return BehavioralPolicy(info, table)

    # ------------------------------------------------------------- operators

    def forward(self, mats, map_idx: int) -> list[np.ndarray]:
        """The forward pass through the stages of ``mats``, the per-stage
        matrices of map ``map_idx``: ``before[i][p]``, for i = 0 to
        len(mats), is the reach of stage-i prefix p.  With all L stages,
        ``before[L]`` is the pushforward over histories: Nature's
        probability times each stage's, multiplied in stage order."""
        return forward(self.nature_probs, mats, self.prefix_label[map_idx])

    def pushforward(self, mats, map_idx: int) -> np.ndarray:
        """The distribution over histories under the per-stage matrices
        ``mats`` of map ``map_idx``."""
        return self.forward(mats, map_idx)[-1]

    def label_mass(self, before_i: np.ndarray, map_idx: int,
                   i: int) -> np.ndarray:
        """Mass of each stage-i label under ``before_i``, the stage-i reach
        of a forward pass."""
        n = len(self.labels[map_idx][i])
        return np.bincount(self.prefix_label[map_idx][i], weights=before_i,
                           minlength=n)

    def segment_sum(self, values: np.ndarray, map_idx: int, i: int) -> np.ndarray:
        """Sum per (label at stage i, action at stage i): [n_labels, A]."""
        n, A = len(self.labels[map_idx][i]), self.game.stage_actions[i]
        flat = np.repeat(self.cells(map_idx, i), self.stride[i + 1])
        return np.bincount(flat, weights=values, minlength=n * A).reshape(n, A)

    def expected_reward(self, policy_or_mats, info: InformationMap = None,
                        player: int = 0) -> float:
        if isinstance(policy_or_mats, BehavioralPolicy):
            mats = self.matrices(policy_or_mats)
            m = self.map_index(policy_or_mats.info)
        else:
            mats = policy_or_mats
            m = self.map_index(info)
        return float(self.forward(mats, m)[-1] @ self.rewards[:, player])


def forward(start: np.ndarray, mats, labels, out=None) -> list[np.ndarray]:
    """The forward pass from ``start``, the reach of each stage-0 prefix:
    ``before[i + 1]`` is ``before[i]`` times the row of ``mats[i]`` that
    each prefix's label ``labels[i]`` picks, one entry per action, for i
    below len(mats).  ``out[i]``, if given, is the [len(labels[i]), A]
    array that stage i's rows are written to."""
    before = [start]
    for i, (mat, lab) in enumerate(zip(mats, labels)):
        rows = np.take(mat, lab, axis=0, out=None if out is None else out[i],
                       mode="clip")  # "raise" would buffer ``out``
        rows *= before[-1][:, None]
        before.append(rows.reshape(-1))
    return before


def label_cells(labels: np.ndarray, A: int) -> np.ndarray:
    """The (label, action) bin ``labels[k] * A + a`` of each row k and
    action a, flat in row-major order."""
    return (labels[:, None] * A + np.arange(A)).reshape(-1)


def label_pairs(fine: np.ndarray, coarse: np.ndarray, n_fine: int,
                n_coarse: int):
    """The (coarse, fine) label pairs that occur row by row in ``fine`` and
    ``coarse``: (pair_idx, pair_coarse, pair_fine, offsets), with
    ``pair_idx[p]`` row p's pair, the pairs sorted by coarse then fine
    label, and ``offsets[c]:offsets[c + 1]`` coarse label c's pairs.  On
    ``stacked`` labels the pairs come repeat by repeat, so stacked too."""
    codes, pair_idx = np.unique(coarse * n_fine + fine, return_inverse=True)
    pair_coarse, pair_fine = np.divmod(codes, n_fine)
    counts = np.bincount(pair_coarse, minlength=n_coarse)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return pair_idx, pair_coarse, pair_fine, offsets


def pair_masses(pairs, before) -> list[np.ndarray]:
    """Per stage, the mass of each (coarse, fine) label pair of ``pairs``,
    one ``label_pairs`` per stage, under the forward pass ``before``."""
    return [np.bincount(pair_idx, weights=b, minlength=len(fine))
            for (pair_idx, _, fine, _), b in zip(pairs, before)]


def refinement(pairs, n_fine: int):
    """Each fine label's coarse label under ``pairs``, or ``None`` when a
    fine label occurs in two pairs: the fine map does not refine."""
    _, pair_coarse, pair_fine, _ = pairs
    if len(pair_fine) != n_fine:
        return None
    arr = np.empty(n_fine, dtype=np.int64)
    arr[pair_fine] = pair_coarse
    return arr


def stacked(idx: np.ndarray, n: int, R: int) -> np.ndarray:
    """R copies of ``idx``, an index into n bins, end to end, copy r
    shifted into repeat r's bins r·n to r·n + n - 1.  At R = 1, ``idx``
    itself."""
    if R == 1:
        return idx
    return (idx + n * np.arange(R)[:, None]).reshape(-1)


def tiled(x: np.ndarray, R: int) -> np.ndarray:
    """R copies of ``x`` end to end; at R = 1, ``x`` itself."""
    return x if R == 1 else np.tile(x, R)


def scaled(lam: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """``x``, R equal blocks end to end, with block r times ``lam[r]``,
    written to ``out`` (of ``x``'s shape, and may be ``x``) if given."""
    blocks = (len(lam), -1)
    return np.multiply(lam[:, None], x.reshape(blocks),
                       out=None if out is None else out.reshape(blocks)
                       ).reshape(x.shape)


def _rewards(game: ProductGame) -> np.ndarray:
    """[n, players] rewards from one ``reward_fn`` call per history, with
    the shape check of ``ProductGame.reward``; one player may get a scalar.
    A bad shape raises ``InvalidGame``, and so does a reward that is not
    finite, naming the first history that gets one."""
    plays = list(itertools.product(*map(range, game.stage_actions)))
    vals = [game.reward_fn(w, a) for w in game.nature for a in plays]
    try:
        r = np.array(vals, dtype=float)
    except ValueError:  # ragged
        r = None
    if r is not None and r.ndim == 1:
        r = r[:, None]
    if r is None or r.shape[1:] != (game.num_players,):
        raise invalid_game(game, "reward_fn must return one value per player")
    bad = ~np.isfinite(r).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        w, a = divmod(k, len(plays))
        raise invalid_game(game, f"reward_fn returned {vals[k]!r} at history "
                                 f"{History(game.nature[w], plays[a])}; "
                                 f"rewards must be finite")
    return r


# id(game) -> the game's Tables.  The game holds its Tables (attribute
# ``_tables``) and the Tables holds its game weakly, so an entry lives as long
# as its game, unless something else keeps the Tables alive.
_cache: weakref.WeakValueDictionary[int, Tables] = weakref.WeakValueDictionary()


def tables_for(game: ProductGame, *maps: InformationMap) -> Tables:
    """The game's cached Tables with ``maps`` added, each checked by
    ``Tables.add_map``.  Games and maps are immutable, so identity is the
    key."""
    t = _cache.get(id(game))
    if t is None or t.game is not game:  # or the id of a dead game, reused
        t = _cache[id(game)] = Tables(game)
        object.__setattr__(game, "_tables", t)  # ProductGame is frozen
    for m in maps:
        t.add_map(m)
    return t
