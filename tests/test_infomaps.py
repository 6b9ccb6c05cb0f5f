from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phide.core import random_policy, uniform_policy
from phide import engine
from phide.engine import (label_pairs, pair_masses, refinement, stacked,
                          tables_for)
from phide.errors import ZeroReachLabel
from phide.hiding import PhRun
from phide.relaxation import RelaxationProblem
from phide.infomaps import (coarse_masses, has_perfect_recall, is_finer,
                            is_implementable, project, project_matrices,
                            weighted_sq_distance)
from phide.zoo import (TradeCommSpec, build_matching_pennies, build_trade_comm,
                       random_game)

from per_history import hist_actions, hist_labels


def lift(game, fine, coarse_policy):
    """Key a coarse-implementable policy by the fine map."""
    out = uniform_policy(game, fine)
    from phide.core import enumerate_reachable
    for h in enumerate_reachable(game, fine, validate=False):
        for i in range(game.num_stages):
            g = fine.label(i, h.nature, h.actions)
            out.table[(i, g)] = np.array(
                coarse_policy.local(i, h.nature, h.actions))
    return out


def test_projection_is_implementable_and_idempotent():
    rng = np.random.default_rng(1)
    for s in range(25):
        game, coarse, fine = random_game(s)
        base = random_policy(game, fine, rng)
        mu = random_policy(game, fine, rng)
        gam = project(game, coarse, fine, base, mu)
        assert is_implementable(game, coarse, gam)
        lifted = lift(game, fine, gam)
        gam2 = project(game, coarse, fine, base, lifted)
        for k in gam.table:
            assert np.array_equal(gam.table[k], gam2.table[k])


def test_fixed_point_iff_implementable():
    rng = np.random.default_rng(2)
    for s in range(15):
        game, coarse, fine = random_game(100 + s)
        base = random_policy(game, fine, rng)
        # implementable policy: lifted from a coarse one; exact fixed point
        coarse_pol = random_policy(game, coarse, rng)
        mu = lift(game, fine, coarse_pol)
        gam = project(game, coarse, fine, base, mu)
        for (i, g), vec in gam.table.items():
            assert np.array_equal(vec, coarse_pol.table[(i, g)])
        # a generic random policy on a strictly finer map is not a fixed point
        mu2 = random_policy(game, fine, rng)
        gam2 = project(game, coarse, fine, base, mu2)
        lifted2 = lift(game, fine, gam2)
        moved = any(
            not np.allclose(mu2.table[k], lifted2.table[k], atol=1e-12)
            for k in mu2.table
        )
        assert moved == (not is_implementable(game, coarse, mu2))


def test_is_finer_zoo_maps():
    g, m = build_matching_pennies()
    assert is_finer(m["relaxed"], m["original"], g)
    assert not is_finer(m["original"], m["relaxed"], g)
    g2, m2 = build_trade_comm()
    assert is_finer(m2["perfect_recall"], m2["original"], g2)
    # the cheating map is incomparable with the original one
    assert not is_finer(m2["cheat"], m2["original"], g2)
    assert not is_finer(m2["original"], m2["cheat"], g2)


def test_perfect_recall_zoo_maps():
    g, m = build_matching_pennies()
    assert not has_perfect_recall(g, m["original"], 0)
    assert has_perfect_recall(g, m["relaxed"], 0)
    g2, m2 = build_trade_comm()
    assert not has_perfect_recall(g2, m2["original"], 0)
    assert not has_perfect_recall(g2, m2["cheat"], 0)
    assert has_perfect_recall(g2, m2["perfect_recall"], 0)


def test_project_requires_full_support_base():
    g, m = build_matching_pennies()
    base = uniform_policy(g, m["relaxed"])
    for k in base.table:
        v = np.zeros(len(base.table[k]))
        v[0] = 1.0
        base.table[k] = v
    mu = random_policy(g, m["relaxed"], np.random.default_rng(0))
    with pytest.raises(ZeroReachLabel):
        project(g, m["original"], m["relaxed"], base, mu)


def test_weighted_sq_distance_zero_iff_equal():
    g, m = build_matching_pennies()
    rng = np.random.default_rng(3)
    base = uniform_policy(g, m["relaxed"])
    mu = random_policy(g, m["relaxed"], rng)
    assert weighted_sq_distance(g, base, mu, mu) == 0.0
    gam = project(g, m["original"], m["relaxed"], base, mu)
    d = weighted_sq_distance(g, base, mu, gam)
    assert d > 0.0


def test_weighted_sq_distance_manual_value():
    # single stage, one label, uniform base: distance is just the squared
    # euclidean gap of the two local vectors
    from phide.core import InformationMap, ProductGame, BehavioralPolicy
    g = ProductGame(nature=((0,),), nature_probs=(1.0,),
                    player_of_stage=(0,), stage_actions=(2,),
                    reward_fn=lambda w, a: (0.0,))
    info = InformationMap([[]])
    a = BehavioralPolicy(info, {(0, (0, ())): np.array([0.9, 0.1])})
    b = BehavioralPolicy(info, {(0, (0, ())): np.array([0.5, 0.5])})
    base = uniform_policy(g, info)
    assert abs(weighted_sq_distance(g, base, a, b) - 2 * 0.4 ** 2) < 1e-15


def test_projection_weights_follow_base():
    # base mass concentrated on one fine label pulls the projection there
    g, m = build_matching_pennies()
    t = tables_for(g, m["original"], m["relaxed"])
    rng = np.random.default_rng(4)
    mu = random_policy(g, m["relaxed"], rng)
    base = uniform_policy(g, m["relaxed"])
    # make nature SAME much heavier in base reach at Bob's stage via Alice
    gam = project(g, m["original"], m["relaxed"], base, mu)
    # projection averages the two nature-conditioned rows with equal weight
    for (i, lab), vec in gam.table.items():
        if i != 1:
            continue
        rows = [v for (j, gl), v in mu.table.items()
                if j == 1 and gl[1][1] == lab[1][0]]
        assert np.allclose(vec, np.mean(rows, axis=0), atol=1e-12)


def dense_projection(t, mats, mf, mc, q0):
    """Reference projection, accumulated history by history."""
    out = []
    for i in range(t.game.num_stages):
        fl, cl = hist_labels(t, mf, i), hist_labels(t, mc, i)
        nc = len(t.labels[mc][i])
        acc = np.zeros((nc, mats[i].shape[1]))
        mass = np.zeros(nc)
        np.add.at(acc, cl, q0[:, None] * mats[i][fl])
        np.add.at(mass, cl, q0)
        out.append(acc / mass[:, None])
    return out


def lifted_pair(t, mf, mc, rng):
    """Fine-map matrices implementable on the coarse map, and the coarse
    matrices they equal: one random vector per connected set of (coarse,
    fine) label pairs, so also where the fine map does not refine."""
    fine_mats, coarse_mats = [], []
    for i in range(t.game.num_stages):
        fl, cl = hist_labels(t, mf, i), hist_labels(t, mc, i)
        nc, nf = len(t.labels[mc][i]), len(t.labels[mf][i])
        root = list(range(nc + nf))  # coarse labels, then fine labels

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for c, f in set(zip(cl.tolist(), fl.tolist())):
            root[find(nc + f)] = find(c)
        A = t.game.stage_actions[i]
        vec = {r: rng.dirichlet(np.ones(A)) for r in set(map(find, root))}
        coarse_mats.append(np.array([vec[find(c)] for c in range(nc)]))
        fine_mats.append(np.array([vec[find(nc + f)] for f in range(nf)]))
    return fine_mats, coarse_mats


def check_pairs_against_dense(game, coarse, fine, rng):
    run = PhRun(game, coarse, fine)
    t, mf, mc = run.t, run.mf, run.mc

    def random_mats():
        return [rng.dirichlet(np.ones(t.game.stage_actions[i]),
                              size=len(t.labels[mf][i]))
                for i in range(game.num_stages)]
    before = t.forward(random_mats(), mf)
    pairs = t.pairs(fine, coarse)
    q0, pair_mass = before[-1], pair_masses(pairs, before)
    coarse_mass = coarse_masses(pairs, pair_mass)
    mats = random_mats()
    gam = project_matrices(pairs, mats, pair_mass, coarse_mass)
    for g, ref in zip(gam, dense_projection(t, mats, mf, mc, q0)):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)
    # the solver step's penalty, one entry per prefix, read per history
    gam, pen, _ = run._step(mats, 1.0)
    prefix = np.arange(len(q0))
    for i in range(game.num_stages):
        diff = mats[i][hist_labels(t, mf, i)] - gam[i][hist_labels(t, mc, i)]
        np.testing.assert_allclose(pen[i][prefix // t.stride[i]],
                                   np.sum(diff * diff, axis=1),
                                   rtol=0, atol=1e-12)
    fine_mats, coarse_mats = lifted_pair(t, mf, mc, rng)
    gam = project_matrices(pairs, fine_mats, pair_mass, coarse_mass)
    for g, want in zip(gam, coarse_mats):
        assert np.array_equal(g, want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 499), swap=st.booleans())
def test_pair_projection_and_penalty_match_dense_reference(seed, swap):
    # swapped, the learners' map is the coarser one: it does not refine
    game, coarse, fine = random_game(seed)
    if swap:
        coarse, fine = fine, coarse
    check_pairs_against_dense(game, coarse, fine,
                              np.random.default_rng(seed))


def test_pair_projection_matches_dense_reference_on_cheat_map():
    game, maps = build_trade_comm(TradeCommSpec(2, 2))
    assert not is_finer(maps["cheat"], maps["original"], game)
    check_pairs_against_dense(game, maps["original"], maps["cheat"],
                              np.random.default_rng(0))


def test_each_caller_builds_the_pair_table_once(monkeypatch):
    # a RelaxationProblem and a projection each build one stage's label
    # pairs once per stage
    calls = []

    def counted(*args):
        calls.append(1)
        return label_pairs(*args)

    monkeypatch.setattr(engine, "label_pairs", counted)
    game, maps = build_matching_pennies()
    cases = [(game, maps["original"], maps["relaxed"])]
    for spec in (TradeCommSpec(2, 2), TradeCommSpec(3, 2)):
        game, maps = build_trade_comm(spec)
        cases.append((game, maps["original"], maps["perfect_recall"]))
    rng = np.random.default_rng(0)
    for game, coarse, fine in cases:
        base, mu = (random_policy(game, fine, rng) for _ in range(2))
        calls.clear()
        RelaxationProblem(game, coarse, fine, 1.0)
        assert len(calls) == game.num_stages
        calls.clear()
        project(game, coarse, fine, base, mu)
        assert len(calls) == game.num_stages


@pytest.mark.parametrize("seed", range(8))
def test_label_pairs_of_stacked_labels_are_per_repeat_copies(seed):
    # R stacked repeats of a map pair give R copies of the single-run pair
    # table, repeat r's indices offset by r times each count, and the
    # refinement likewise
    game, coarse, fine = random_game(seed)
    t = tables_for(game, coarse, fine)
    for a, b in ((fine, coarse), (coarse, fine)):
        ma, mb = t.map_index(a), t.map_index(b)
        for i, one in enumerate(t.pairs(a, b)):
            fl, cl = t.prefix_label[ma][i], t.prefix_label[mb][i]
            nf, nc = len(t.labels[ma][i]), len(t.labels[mb][i])
            idx, pc, pf, offsets = one
            f2c, n = refinement(one, nf), len(pf)
            for R in (1, 2, 5):
                got = label_pairs(stacked(fl, nf, R), stacked(cl, nc, R),
                                  R * nf, R * nc)
                want = [np.concatenate([x + r * k for r in range(R)])
                        for x, k in ((idx, n), (pc, nc), (pf, nf),
                                     (offsets[:-1], n))]
                want[3] = np.append(want[3], R * n)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                got_f2c = refinement(got, R * nf)
                assert (got_f2c is None) == (f2c is None)
                if f2c is not None:
                    assert np.array_equal(got_f2c, np.concatenate(
                        [f2c + r * nc for r in range(R)]))


# Per-history reference definitions of the label-structure checks: plain
# loops over the reachable histories and the maps' own labels.

def reference_refinement(t, fine, coarse):
    """Per stage, fine label index -> coarse label index, or None where a
    fine label holds histories of two coarse labels."""
    mf, mc = t.map_index(fine), t.map_index(coarse)
    out = []
    for i in range(t.game.num_stages):
        f_row = {g: k for k, g in enumerate(t.labels[mf][i])}
        c_row = {g: k for k, g in enumerate(t.labels[mc][i])}
        seen = {}
        for h in t.histories:
            f, c = fine.label(i, *h), coarse.label(i, *h)
            seen.setdefault(f_row[f], set()).add(c_row[c])
        if all(len(cs) == 1 for cs in seen.values()):
            out.append(np.array([min(seen[k]) for k in range(len(f_row))]))
        else:
            out.append(None)
    return out


def reference_is_implementable(t, info, policy, atol=1e-12):
    """Equal ``info`` labels carry local vectors within ``atol``."""
    for i in range(t.game.num_stages):
        rows = {}
        for h in t.histories:
            rows.setdefault(info.label(i, *h), []).append(policy.local(i, *h))
        for vecs in rows.values():
            if np.max(np.ptp(np.array(vecs), axis=0)) > atol:
                return False
    return True


def reference_has_perfect_recall(t, info, player):
    """For every ordered pair i < j of the player's stages, the stage-j
    label determines the stage-i label and the action played at i."""
    own = t.game.stages_of(player)
    for a, i in enumerate(own):
        for j in own[a + 1:]:
            seen = {}
            for h in t.histories:
                past = (info.label(i, *h), h.actions[i])
                if seen.setdefault(info.label(j, *h), past) != past:
                    return False
    return True


def reference_recall_closure(t, m, own):
    """Per stage of ``own``, each history's label in the recall closure of
    map ``m`` (the map's labels at ``own`` stages so far and the actions at
    the earlier ones) and the map's label of each closure label."""
    out, key = [], np.zeros(len(t.nature_idx), dtype=np.int64)
    for i in own:
        lab = hist_labels(t, m, i)
        _, first, idx = np.unique(key * len(t.labels[m][i]) + lab,
                                  return_index=True, return_inverse=True)
        idx = idx.reshape(-1)
        out.append((idx, lab[first]))
        key = idx * t.game.stage_actions[i] + hist_actions(t)[:, i]
    return out


def assert_closure_matches_reference(t, info, own):
    m = t.map_index(info)
    got, want = t.recall_closure(m, own), reference_recall_closure(t, m, own)
    assert len(got) == len(want) == len(own)
    for i, (idx, orig), (ref_idx, ref_orig) in zip(own, got, want):
        assert np.array_equal(orig, ref_orig)
        assert len(idx) == len(t.prefix_label[m][i])  # one per prefix
        assert np.array_equal(np.repeat(idx, t.stride[i]), ref_idx)


def two_player_twin(game, owners=None):
    """The game with its stages dealt to two players, by default
    alternately."""
    if owners is None:
        owners = tuple(i % 2 for i in range(game.num_stages))
    return replace(game, num_players=2, player_of_stage=owners,
                   reward_fn=lambda w, a: tuple(game.reward_fn(w, a)) * 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 399))
def test_label_structure_matches_per_history_reference(seed):
    game, coarse, fine = random_game(seed)
    rng = np.random.default_rng(seed)
    t = tables_for(game, coarse, fine)
    for a, b in ((fine, coarse), (coarse, fine), (coarse, coarse)):
        got = [refinement(p, len(labels))
               for p, labels in zip(t.pairs(a, b), t.labels[t.map_index(a)])]
        want = reference_refinement(t, a, b)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            assert g is None or (g.dtype == np.int64 and np.array_equal(g, w))
        assert is_finer(a, b, game) == all(w is not None for w in want)
    # the policy's map refines the judged map, is refined by it, or is it;
    # lifted coarse policies are implementable, and nudging one of their
    # rows by just below or above atol probes the tolerance
    lifted = lift(game, fine, random_policy(game, coarse, rng))
    cases = [(coarse, random_policy(game, fine, rng)), (coarse, lifted),
             (fine, random_policy(game, coarse, rng)),
             (coarse, random_policy(game, coarse, rng))]
    for eps in (1e-13, 1e-11):
        nudged = lifted.copy()
        key = list(nudged.table)[int(rng.integers(len(nudged.table)))]
        nudged.table[key] = nudged.table[key] + eps * np.eye(
            len(nudged.table[key]))[0]
        cases.append((coarse, nudged))
    for info, policy in cases:
        assert (is_implementable(game, info, policy)
                == reference_is_implementable(t, info, policy))
    twin = two_player_twin(game)
    t2 = tables_for(twin, coarse, fine)
    for g, tt, players in ((game, t, (0,)), (twin, t2, (0, 1))):
        for info in (coarse, fine):
            for p in players:
                assert (has_perfect_recall(g, info, p)
                        == reference_has_perfect_recall(tt, info, p))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 399), two_players=st.booleans())
def test_recall_closure_matches_per_history_reference(seed, two_players):
    # a player of a two-player deal may own no stage: an empty closure
    game, coarse, fine = random_game(seed)
    if two_players:
        rng = np.random.default_rng(seed)
        game = two_player_twin(game, tuple(
            int(p) for p in rng.integers(0, 2, game.num_stages)))
    t = tables_for(game, coarse, fine)
    for info in (coarse, fine):
        for p in range(game.num_players):
            assert_closure_matches_reference(t, info, game.stages_of(p))


def test_recall_closure_matches_per_history_reference_on_trade_comm():
    for spec in (TradeCommSpec(2, 2), TradeCommSpec(3, 2)):
        game, maps = build_trade_comm(spec)
        t = tables_for(game, *maps.values())
        for info in maps.values():
            assert_closure_matches_reference(t, info, game.stages_of(0))
