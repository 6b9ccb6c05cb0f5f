import dataclasses
import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phide import engine
from phide.cfr import floored_mats
from phide.core import (BehavioralPolicy, History, InformationMap,
                        ProductGame, enumerate_reachable, random_policy,
                        uniform_policy)
from phide.engine import Tables, tables_for
from phide.errors import (IllegalSupport, InvalidGame, InvalidMap,
                          WellPosednessViolation)
from phide.hiding import run_ph
from phide.infomaps import is_finer
from phide.serialize import game_from_json, game_to_json
from phide.zoo import (TradeCommSpec, build_matching_pennies,
                       build_trade_comm, random_game)

from per_history import hist_actions, hist_labels, hist_probs


def test_history_fields():
    h = History((0, 1), (2, 0, 1))
    assert h.nature == (0, 1)
    assert h.actions == (2, 0, 1)


def test_information_map_reveal_tokens():
    m = InformationMap([[("nature", 0)], [("nature", 1), ("action", 0)]])
    assert m.label(0, (7, 8), (1, 2)) == (0, (7,))
    assert m.label(1, (7, 8), (1, 2)) == (1, (8, 1))


def test_labels_are_stage_tagged():
    m = InformationMap([[("nature", 0)], [("nature", 0)]])
    assert m.label(0, (3,), (0, 0)) != m.label(1, (3,), (0, 0))


def test_from_tables():
    tab0 = {((0,), ()): "a", ((1,), ()): "b"}
    tab1 = {((0,), (0,)): 0, ((0,), (1,)): 1, ((1,), (0,)): 0, ((1,), (1,)): 1}
    m = InformationMap.from_tables([tab0, tab1])
    assert m.label(0, (0,), (1, 0)) == (0, "a")
    assert m.label(1, (1,), (1, 0)) == (1, 1)


def test_bad_reveal_kind():
    with pytest.raises(ValueError):
        InformationMap([[("future", 0)]])
    # a float index is not truncated
    with pytest.raises(ValueError, match=re.escape(
            "reveal token ('nature', 0.7) needs an integer index")):
        InformationMap([[("nature", 0.7)]])
    assert InformationMap([[("nature", np.int64(1))]]).revealed == [
        (("nature", 1),)]


def test_game_validation():
    kw = dict(nature=((0,),), nature_probs=(1.0,),
              player_of_stage=(0,), stage_actions=(2,),
              reward_fn=lambda w, a: (0.0,))
    ProductGame(**kw)
    # each bad game raises the one typed error, naming the game
    for bad, msg in (({"nature_probs": (0.5,)}, "nature weights must sum"),
                     ({"nature_probs": (1.0, 0.0)}, "nature and nature_probs"),
                     ({"nature": ((0,), (1,)), "nature_probs": (1.5, -0.5)},
                      "nature weights must lie in"),
                     ({"stage_actions": (0,)}, "a game needs stages"),
                     ({"stage_actions": (), "player_of_stage": ()},
                      "a game needs stages"),
                     ({"player_of_stage": (0, 0)}, "player_of_stage must")):
        with pytest.raises(InvalidGame, match=f"^{msg}.* \\(game g\\)$"):
            ProductGame(**{**kw, **bad, "name": "g"})
    # NaN weights fail the range and the sum checks
    for probs in ((math.nan,), (math.nan, 0.5), (math.nan, 1.0)):
        with pytest.raises(InvalidGame, match="^nature weights must"):
            ProductGame(**{**kw, "nature": ((0,), (1,))[:len(probs)],
                           "nature_probs": probs})
    # rewards of the wrong shape, from the game and from its Tables
    g = ProductGame(**{**kw, "reward_fn": lambda w, a: (1.0, 2.0),
                       "name": "g"})
    for build in (lambda: g.reward((0,), (0,)), lambda: Tables(g)):
        with pytest.raises(InvalidGame, match=re.escape(
                "reward_fn must return one value per player (game g)")):
            build()
    # a stage owner outside the players
    for owner in (1, -1):
        with pytest.raises(InvalidGame, match=re.escape(
                f"player {owner} (the owner of stage 0) is out of range: "
                f"game g has 1 player(s)")):
            ProductGame(**{**kw, "player_of_stage": (owner,), "name": "g"})
    assert issubclass(InvalidGame, ValueError)


def test_game_validation_names_values_of_the_wrong_type():
    kw = dict(nature=((0,),), nature_probs=(1.0,), player_of_stage=(0,),
              stage_actions=(2,), reward_fn=lambda w, a: (0.0,), name="g")
    for bad, msg in (({"stage_actions": (2.5,)},
                      "action counts must be integers, got (2.5,)"),
                     ({"stage_actions": (True,)},
                      "action counts must be integers, got (True,)"),
                     ({"nature_probs": ("a",)},
                      "nature weights must be numbers, got ('a',)"),
                     ({"nature_probs": ("1.0",)},
                      "nature weights must be numbers, got ('1.0',)")):
        with pytest.raises(InvalidGame,
                           match=f"^{re.escape(msg)} \\(game g\\)$"):
            ProductGame(**{**kw, **bad})
    # numpy scalars are numbers
    ProductGame(**{**kw, "nature_probs": (np.float64(1.0),),
                   "stage_actions": (np.int64(2),)})


def test_reward_shape_checked():
    g = ProductGame(nature=((0,),), nature_probs=(1.0,),
                    player_of_stage=(0,), stage_actions=(2,),
                    reward_fn=lambda w, a: (1.0, 2.0), num_players=1)
    with pytest.raises(ValueError):
        g.reward((0,), (0,))


def test_enumerate_reachable_counts():
    g, maps = build_matching_pennies()
    assert len(enumerate_reachable(g, maps["original"])) == 2 * 2 * 3
    g2, maps2 = build_trade_comm()
    assert len(enumerate_reachable(g2, maps2["original"])) == 4 * 2 * 2 * 4 * 4


def test_enumeration_is_lexicographic():
    g, maps = build_matching_pennies()
    hs = enumerate_reachable(g, maps["original"])
    keys = [(h.nature, h.actions) for h in hs]
    assert keys == sorted(keys)


def test_peeking_map_rejected():
    g, _ = build_matching_pennies()
    peek = InformationMap([[("nature", 0)], lambda w, a: a[1]])
    with pytest.raises(WellPosednessViolation):
        enumerate_reachable(g, peek)


def test_uniform_and_random_policies():
    g, maps = build_matching_pennies()
    u = uniform_policy(g, maps["original"]).validate()
    assert np.allclose(u.table[(0, (0, (0,)))], [0.5, 0.5])
    rng = np.random.default_rng(0)
    r = random_policy(g, maps["original"], rng).validate()
    assert set(r.table) == set(u.table)
    assert not r.is_deterministic(tol=1e-3)


def _uniform_reference(game, info):
    """The uniform table built by walking every reachable history."""
    table = {}
    for h in enumerate_reachable(game, info, validate=False):
        for i in range(game.num_stages):
            g = info.label(i, h.nature, h.actions)
            if (i, g) not in table:
                n = game.stage_actions[i]
                table[(i, g)] = np.full(n, 1.0 / n)
    return table


def test_uniform_and_random_policy_match_per_history_reference():
    cases = [(g, m) for g, maps in (build_matching_pennies(),
                                    build_trade_comm(),
                                    build_trade_comm(TradeCommSpec(3, 2)))
             for m in maps.values()]
    for s in range(50):
        game, coarse, fine = random_game(s)
        cases += [(game, coarse), (game, fine)]
    for k, (game, info) in enumerate(cases):
        ref = _uniform_reference(game, info)
        u = uniform_policy(game, info)
        assert list(u.table) == list(ref)
        assert all(np.array_equal(u.table[key], ref[key]) for key in ref)
        # one Dirichlet call per label, in key order, on the same generator
        ours, rng = np.random.default_rng(k), np.random.default_rng(k)
        r = random_policy(game, info, ours)
        assert list(r.table) == list(ref)
        assert all(np.array_equal(r.table[key],
                                  rng.dirichlet(np.ones(len(ref[key]))))
                   for key in ref)
        assert ours.random() == rng.random()


def test_matrices_names_a_local_vector_of_the_wrong_length():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    pol.table[(1, (1, (0,)))] = np.full(4, 0.25)
    t = tables_for(g, maps["original"])
    msg = (r"^InformationMap\(original, stages=2\) stage 1 label "
           r"\(1, \(0,\)\): local vector of length 4, expected 3$")
    with pytest.raises(IllegalSupport, match=msg):
        t.matrices(pol)
    del pol.table[(1, (1, (0,)))]
    with pytest.raises(IllegalSupport, match=(
            r"^InformationMap\(original, stages=2\) stage 1 label "
            r"\(1, \(0,\)\): no local vector$")):
        t.matrices(pol)


def test_floored_full_support():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    for k in pol.table:
        pol.table[k] = np.eye(len(pol.table[k]))[0]
    t = tables_for(g, maps["original"])
    f = t.to_policy(floored_mats(t.matrices(pol), eps=1e-6), pol.info)
    f.validate()
    assert min(v.min() for v in f.table.values()) > 0.0


def test_validate_rejects_bad_mass():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    key = next(iter(pol.table))
    pol.table[key] = np.array([0.7, 0.7, -0.4][: len(pol.table[key])])
    with pytest.raises(IllegalSupport):
        pol.validate()
    for vec in ([math.nan, math.nan], [math.nan, 1.0], [0.5, 0.5, math.nan]):
        pol.table[key] = np.array(vec)
        with pytest.raises(IllegalSupport, match="^negative or NaN mass"):
            pol.validate()


def test_policy_local_lookup():
    g, maps = build_matching_pennies()
    pol = uniform_policy(g, maps["original"])
    vec = pol.local(1, (0,), (1, 0))
    assert np.allclose(vec, [1 / 3] * 3)


def _callable_twin(stages):
    """The same labels as the token map ``stages``, as opaque callables."""
    def make(tokens):
        return lambda w, a: tuple(w[j] if kind == "nature" else a[j]
                                  for kind, j in tokens)

    return InformationMap([make(t) for t in stages])


def _verdict(game, info):
    try:
        enumerate_reachable(game, info)
    except WellPosednessViolation as exc:
        return type(exc), str(exc)
    return None


def _reference_labels(t, info):
    """Per-history labels in first-seen order, straight from ``info.label``."""
    labels, idx = [], []
    for i in range(t.game.num_stages):
        seen = {}
        idx.append(np.array([seen.setdefault(info.label(i, *h), len(seen))
                             for h in t.histories]))
        labels.append(list(seen))
    return labels, idx


def _assert_labels_match_reference(t, info):
    m = t.map_index(info)
    labels, idx = _reference_labels(t, info)
    assert t.labels[m] == labels
    for got, want in zip(t.labels[m], labels):
        assert [type(g) for g in got] == [type(w) for w in want]
    # each history's label is its stage-i prefix's
    for i, want in enumerate(idx):
        got = hist_labels(t, m, i)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_token_verdict_and_labels_match_per_history_probe():
    rng = np.random.default_rng(3)
    outcomes = {"raised": 0, "passed": 0}
    for seed in range(60):
        game, _, _ = random_game(seed, max_nature=3, max_actions=3)
        L = game.num_stages
        for _ in range(3):
            stages = []
            for i in range(L):
                tokens = []
                for _ in range(int(rng.integers(0, 4))):
                    if rng.random() < 0.3:
                        tokens.append(("nature", int(rng.integers(-1, 1))))
                    elif rng.random() < 0.7 and i > 0:
                        tokens.append(("action", int(rng.integers(0, i))))
                    else:  # may peek; negative j counts from the end
                        tokens.append(("action", int(rng.integers(-L, L))))
                stages.append(tokens)
            info = InformationMap(stages)
            verdict = _verdict(game, info)
            assert verdict == _verdict(game, _callable_twin(stages))
            outcomes["raised" if verdict else "passed"] += 1
            if verdict is None:
                _assert_labels_match_reference(Tables(game, info), info)
    assert min(outcomes.values()) >= 30, outcomes


def test_tables_labels_match_per_history_reference():
    for game, maps in (build_matching_pennies(), build_trade_comm(),
                       build_trade_comm(TradeCommSpec(3, 2))):
        game2, maps2 = game_from_json(game_to_json(game, maps))
        for g, ms in ((game, maps), (game2, maps2)):
            t = Tables(g, *ms.values())
            for info in ms.values():
                _assert_labels_match_reference(t, info)


def test_token_labels_when_the_mixed_radix_key_outgrows_int64():
    # 2**140 key values before ranking: the key is ranked down on the way
    g, _ = build_matching_pennies()
    wide = [("action", 0)] * 70 + [("nature", 0)] * 70
    info = InformationMap([[("nature", 0)], wide])
    t = Tables(g, info)
    _assert_labels_match_reference(t, info)
    assert len(t.labels[0][1]) == 4


def test_re_ranked_token_labels_equal_their_callable_twin():
    # 70 two-valued tokens pass the 2**62 key bound at the 62nd, so the
    # key is re-ranked once; labels and prefix labels are the callable's
    g, _ = build_matching_pennies()
    stages = [[("nature", 0)], [("action", 0)] * 70]
    t = Tables(g)
    m, c = t.add_map(InformationMap(stages)), t.add_map(_callable_twin(stages))
    assert t.labels[m] == t.labels[c]
    assert t.labels[m][1] == [(1, (0,) * 70), (1, (1,) * 70)]
    for got, want in zip(t.prefix_label[m], t.prefix_label[c]):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_histories_built_on_first_read():
    g, maps = build_trade_comm()
    t = tables_for(g, *maps.values())
    run_ph(g, maps["original"], maps["cheat"], 3)
    assert "histories" not in vars(t)
    assert len(t.histories) == len(t.nature_idx)
    assert t.histories is t.histories


def test_every_token_map_added_is_checked():
    g, maps = build_matching_pennies()
    t = Tables(g, maps["original"])
    peek = InformationMap([[("nature", 0)], [("action", 0), ("action", 1)]])
    with pytest.raises(WellPosednessViolation,
                       match="stage-1 label depends on the action at stage 1"):
        t.add_map(peek)
    assert t.maps == [maps["original"]]


def test_out_of_range_token_rejected():
    # each kind just past and far past either end of its range, at a stage
    # after the first
    g, maps = build_trade_comm()  # 4 stages, nature values of 2 components
    for token, bound in ((("action", 4), "-4 to 3"),
                         (("action", 7), "-4 to 3"),
                         (("action", -5), "-4 to 3"),
                         (("action", -9), "-4 to 3"),
                         (("nature", 2), "-2 to 1"),
                         (("nature", 5), "-2 to 1"),
                         (("nature", -3), "-2 to 1")):
        info = InformationMap([[], [("nature", 0), token], [], []])
        msg = (f"^stage-1 token {re.escape(repr(token))} is out of range: "
               f"{token[0]} indices run from {bound}$")
        with pytest.raises(WellPosednessViolation, match=msg):
            Tables(g, info)
        with pytest.raises(WellPosednessViolation, match=msg):
            tables_for(g, maps["original"], info)


def test_tables_cache_entry_dies_with_its_game():
    g, maps = build_matching_pennies()
    t = tables_for(g, maps["original"])
    key, game_ref = id(g), weakref.ref(g)
    assert engine._cache[key] is t
    del g, t
    gc.collect()
    assert game_ref() is None
    assert key not in engine._cache


def test_tables_freed_with_their_game_without_the_cycle_collector():
    # the Tables holds its game weakly, so refcounting alone frees both
    g, maps = build_matching_pennies()
    t = tables_for(g, maps["original"])
    key, tables_ref = id(g), weakref.ref(t)
    assert t.game is g
    gc.collect()
    gc.disable()
    try:
        del g, t
        assert tables_ref() is None
        assert key not in engine._cache
    finally:
        gc.enable()


def test_tables_for_skips_a_tables_whose_game_died():
    # a Tables kept alive past its game keeps its cache entry; a new game
    # that reuses the dead game's id must get a Tables of its own
    g, maps = build_matching_pennies()
    stale = tables_for(g, maps["original"])
    del g
    gc.collect()
    assert stale.game is None
    g2, maps2 = build_matching_pennies()
    engine._cache[id(g2)] = stale
    t = tables_for(g2, maps2["original"])
    assert t is not stale and t.game is g2
    assert engine._cache[id(g2)] is t


def _peek_message(i, j):
    return f"^stage-{i} label depends on the action at stage {j}$"


def test_peeking_callable_map_rejected_in_every_position():
    g, maps = build_matching_pennies()
    original = maps["original"]
    peek = InformationMap([[("nature", 0)], lambda w, a: a[1]])
    tables_for(g, original)
    for call in (lambda: Tables(g, original).add_map(peek),
                 lambda: Tables(g, peek),
                 lambda: tables_for(g, original, peek),
                 lambda: tables_for(g, peek),
                 lambda: is_finer(peek, original, g),
                 lambda: run_ph(g, original, peek, 1)):
        with pytest.raises(WellPosednessViolation, match=_peek_message(1, 1)):
            call()
    assert tables_for(g).maps == [original]


def test_wrong_stage_count_rejected_in_every_position():
    g, maps = build_matching_pennies()
    original = maps["original"]
    for stages in ([[("nature", 0)]],
                   [[("nature", 0)], [("action", 0)], [("action", 1)]]):
        bad = InformationMap(stages, name="bad")
        msg = (f"^information map bad has {len(stages)} stages, "
               f"game matching_pennies has 2$")
        for call in (lambda: Tables(g, bad),
                     lambda: Tables(g, original).add_map(bad),
                     lambda: tables_for(g, original, bad),
                     lambda: enumerate_reachable(g, bad),
                     lambda: enumerate_reachable(g, bad, validate=False)):
            with pytest.raises(ValueError, match=msg):
                call()


def test_tables_and_tables_for_need_no_map():
    g, maps = build_matching_pennies()
    t = Tables(g)
    assert t.maps == [] and len(t.nature_idx) == 12
    cached = tables_for(g)
    assert cached.maps == [] and tables_for(g, maps["original"]) is cached


def _flip_probe(game, info):
    """Reference verdict: flip every action at or after each callable stage
    in every history; the smallest peeking (stage, action stage), or None."""
    L, found = game.num_stages, set()
    for h in enumerate_reachable(game, info, validate=False):
        for i in range(L):
            if info.revealed[i] is not None:
                continue
            base = info.label(i, *h)
            for j in range(i, L):
                for a in range(game.stage_actions[j]):
                    acts = h.actions[:j] + (a,) + h.actions[j + 1:]
                    if info.label(i, h.nature, acts) != base:
                        found.add((i, j))
    return min(found, default=None)


def _random_callable_map(game, rng, peek):
    """A callable label per stage: a hash of Nature and a few actions, folded
    into at most three values, so a read action may not show in the label.
    With ``peek`` a stage may read its own and later actions."""
    L, stages = game.num_stages, []
    for i in range(L):
        hi = L if peek else i
        reads = sorted({int(j) for j in rng.integers(0, hi, size=3)}) if hi else []
        reads = reads[:int(rng.integers(0, len(reads) + 1))]
        width, salt = int(rng.integers(1, 4)), int(rng.integers(1 << 30))
        stages.append(lambda w, a, reads=reads, width=width, salt=salt:
                      hash((salt, w, tuple(a[j] for j in reads))) % width)
    return InformationMap(stages)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 399), peek=st.booleans(), second=st.booleans())
def test_callable_check_agrees_with_flip_probe(seed, peek, second):
    game, coarse, _ = random_game(seed, max_nature=3, max_actions=3)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        info = _random_callable_map(game, rng, peek)
        want = _flip_probe(game, info)
        t = Tables(game, coarse) if second else Tables(game)
        if want is None:
            t.add_map(info)
            continue
        with pytest.raises(WellPosednessViolation,
                           match=_peek_message(*want)):
            t.add_map(info)
        assert info not in t.maps


def test_tables_arrays_match_per_history_walk():
    g, _ = build_matching_pennies()
    scalar = dataclasses.replace(g, reward_fn=lambda w, a: g.reward_fn(w, a)[0])
    two = dataclasses.replace(
        g, num_players=2,
        reward_fn=lambda w, a: (g.reward_fn(w, a)[0], float(a[1] - w[0])))
    games = [g, scalar, two, build_trade_comm()[0], random_game(7)[0]]
    for game in games:
        t = Tables(game)
        hs = [(k, w, a) for k, w in enumerate(game.nature) for a in
              itertools.product(*(range(A) for A in game.stage_actions))]
        assert t.histories == [History(w, a) for _, w, a in hs]
        assert np.array_equal(t.nature_idx, [k for k, _, _ in hs])
        assert hist_actions(t).dtype == np.int64
        assert np.array_equal(hist_actions(t), [a for _, _, a in hs])
        assert np.array_equal(hist_probs(t), [game.nature_probs[k]
                                              for k, _, _ in hs])
        want = np.array([game.reward(w, a) for _, w, a in hs])
        assert t.rewards.shape == (len(hs), game.num_players)
        assert np.array_equal(t.rewards, want)
        assert t.reward_inf_norm == float(np.max(np.abs(want)))


def test_tables_holds_one_per_history_array():
    # the rewards; history digits and (label, action) cells are derived
    # where they are read
    game, maps = build_trade_comm(TradeCommSpec(4, 3))
    t = Tables(game, maps["original"], maps["cheat"], maps["perfect_recall"])
    n = len(t.rewards)

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (list, tuple)):
            for y in x:
                yield from arrays(y)
        elif isinstance(x, dict):
            for y in x.values():
                yield from arrays(y)

    held = [a for k, v in vars(t).items() if k != "rewards"
            for a in arrays(v)]
    assert held and all(a.size < n for a in held)
    W = len(game.nature)
    assert np.array_equal(t.nature_idx, np.repeat(np.arange(W), n // W))
    for m in range(len(t.maps)):
        for i, A in enumerate(game.stage_actions):
            lab = t.prefix_label[m][i]
            assert np.array_equal(t.cells(m, i), (lab[:, None] * A
                                                  + np.arange(A)).reshape(-1))


def test_policy_equality_is_identity():
    g, maps = build_matching_pennies()
    a, b = (uniform_policy(g, maps["original"]) for _ in range(2))
    assert (a == a) is True and (a == b) is False and (a != b) is True


def test_reward_shape_checked_by_tables():
    g, _ = build_matching_pennies()
    msg = re.escape("reward_fn must return one value per player "
                    "(game matching_pennies)") + "$"
    for bad in (dataclasses.replace(g, reward_fn=lambda w, a: (1.0, 2.0)),
                dataclasses.replace(g, reward_fn=lambda w, a: (1.0,) * (1 + a[0])),
                dataclasses.replace(g, reward_fn=lambda w, a: ((1.0,),)),
                dataclasses.replace(g, num_players=2)):
        with pytest.raises(InvalidGame, match=msg):
            bad.reward((1,), (1, 0))
        with pytest.raises(InvalidGame, match=msg):
            Tables(bad)
    # a reward that is not finite is named with the first history to get it
    for bad in (math.nan, math.inf, -math.inf):
        game = dataclasses.replace(
            g, reward_fn=lambda w, a, x=bad: (x if a == (1, 2) else 0.5,))
        with pytest.raises(InvalidGame, match=re.escape(
                f"reward_fn returned ({bad},) at history History(nature=(0,), "
                f"actions=(1, 2)); rewards must be finite")):
            Tables(game)


def test_map_errors_are_typed_and_name_the_map():
    g, _ = build_matching_pennies()
    for stages, msg in (
            ([[("future", 0)]], "unknown reveal token kind 'future'"),
            ([[("nature", 0.7)]],
             "reveal token ('nature', 0.7) needs an integer index"),
            ([[("nature",)]], "reveal token ('nature',) is not a (kind, "
                              "index) pair"),
            ([[("nature", 0)], 5], "stage 1 must be a list of reveal tokens "
                                   "or a callable, got 5")):
        with pytest.raises(InvalidMap, match=re.escape(
                f"information map m: {msg}")):
            InformationMap(stages, name="m")
    with pytest.raises(InvalidMap, match="^information map bad has 1 stages"):
        Tables(g, InformationMap([[("nature", 0)]], name="bad"))
    opaque = InformationMap([lambda w, a: 0, lambda w, a: 0])
    with pytest.raises(InvalidMap, match="^map 'opaque' is not declarativ"):
        game_to_json(g, {"opaque": opaque})
