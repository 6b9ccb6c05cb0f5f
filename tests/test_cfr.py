import re

import numpy as np
import pytest

from phide.cfr import (CfrRun, counterfactual_matrix, floored_mats,
                       make_banks, nature_cdf, nature_draws, run_cfr,
                       suffix_values)
from phide.core import InformationMap, ProductGame, uniform_policy
from phide.engine import tables_for
from phide.errors import BatchedRun, InvalidSolver, PhideError, ZeroReachLabel
from phide.hiding import PenaltySchedule
from phide.learners import LearnerBank
from phide.zoo import build_matching_pennies, build_trade_comm


def counterfactual_rewards(game, info, policy, stage, label, player=None):
    """Exact counterfactual reward vector of one (stage, label) slot under an
    epsilon-floored version of ``policy``."""
    t = tables_for(game, info, policy.info)
    m, mp = t.map_index(info), t.map_index(policy.info)
    mats = floored_mats(t.matrices(policy))
    before = t.forward(mats, mp)
    p = game.player_of_stage[stage] if player is None else player
    for i, after in suffix_values(t.prefix_label[mp], mats, t.rewards[:, p]):
        if i == stage:
            break
    theta, _ = counterfactual_matrix(stage, t.prefix_label[m][stage],
                                     t.cells(m, stage),
                                     len(t.labels[m][stage]), before[stage],
                                     after)
    try:
        row = t.labels[m][stage].index(label)
    except ValueError:
        raise ZeroReachLabel(f"label {label!r} not reachable at stage {stage}")
    return theta[row]


def test_counterfactual_pass_value_exact():
    # forcing PASS pays 0.6 no matter what anyone else does
    g, m = build_matching_pennies()
    pol = uniform_policy(g, m["original"])
    for lab in [(1, (0,)), (1, (1,))]:
        theta = counterfactual_rewards(g, m["original"], pol, 1, lab)
        assert abs(theta[2] - 0.6) < 1e-12
        # H and T are coin flips against the uniform opponent
        assert abs(theta[0] - 0.5) < 1e-9
        assert abs(theta[1] - 0.5) < 1e-9


def test_counterfactual_alice_values():
    # Bob uniform: Alice's actions are worth (1 + 0 + 0.6)/3 each
    g, m = build_matching_pennies()
    pol = uniform_policy(g, m["original"])
    theta = counterfactual_rewards(g, m["original"], pol, 0, (0, (0,)))
    assert np.allclose(theta, [1.6 / 3, 1.6 / 3], atol=1e-9)


def test_counterfactual_unknown_label():
    g, m = build_matching_pennies()
    pol = uniform_policy(g, m["original"])
    with pytest.raises(ZeroReachLabel):
        counterfactual_rewards(g, m["original"], pol, 1, (1, ("nope",)))


def test_exact_cfr_converges_on_perfect_recall_map():
    g, m = build_trade_comm()
    run = run_cfr(g, m["perfect_recall"], 1500, learner="regret_matching_plus")
    t = tables_for(g, m["perfect_recall"])
    v = t.expected_reward(run.average_policy())
    assert v > 0.97
    assert run.trace["payoff"][-1] > 0.97


def test_trace_shapes_and_ranges():
    g, m = build_matching_pennies()
    run = run_cfr(g, m["original"], 50, seed=0)
    assert len(run.trace["payoff"]) == 50
    assert all(0.0 <= p <= 1.0 for p in run.trace["payoff"])
    assert all(l == 0.0 for l in run.trace["lambda"])
    assert all(p == 0.0 for p in run.trace["penalty_mass"])
    assert all(r >= 0.0 for r in run.trace["sum_pos_local"])


def test_average_policy_is_valid():
    g, m = build_matching_pennies()
    run = run_cfr(g, m["original"], 100, seed=3, randomize_init=True)
    run.average_policy().validate()
    run.current_policy().validate()


def test_determinism_given_seed():
    g, m = build_matching_pennies()
    a = run_cfr(g, m["original"], 80, mode="mc", seed=42, randomize_init=True)
    b = run_cfr(g, m["original"], 80, mode="mc", seed=42, randomize_init=True)
    assert a.trace["payoff"] == b.trace["payoff"]
    c = run_cfr(g, m["original"], 80, mode="mc", seed=43, randomize_init=True)
    assert a.trace["payoff"] != c.trace["payoff"]


def test_mc_mode_reaches_pass_value():
    # from the uniform start, sampled CFR on the original map settles on the
    # safe PASS action
    g, m = build_matching_pennies()
    run = run_cfr(g, m["original"], 2000, mode="mc", seed=0)
    t = tables_for(g, m["original"])
    v = t.expected_reward(run.average_policy())
    assert abs(v - 0.6) < 0.05


def test_invalid_mode():
    g, m = build_matching_pennies()
    with pytest.raises(ValueError):
        CfrRun(g, m["original"], mode="sampled")


def test_loop_errors_are_typed_and_name_the_value():
    g, m = build_matching_pennies()
    assert issubclass(InvalidSolver, PhideError)
    assert issubclass(InvalidSolver, ValueError)
    for build, named in (
            (lambda: CfrRun(g, m["original"], mode="sampled"), "'sampled'"),
            (lambda: CfrRun(g, m["original"], seed=[]), "[]"),
            (lambda: PenaltySchedule("exponential"), "'exponential'"),
            (lambda: PenaltySchedule("constant", -0.1), "-0.1"),
            (lambda: PenaltySchedule("controller", factor=0.0), "0.0"),
            (lambda: LearnerBank("hedge", 1, 2), "'hedge'"),
            (lambda: LearnerBank("ftrl_entropic", 1, 2, eta=-1.0), "-1.0"),
            (lambda: LearnerBank("regret_matching", 3, 2,
                                 warm=np.ones((2, 5))), "(2, 5)")):
        with pytest.raises(InvalidSolver, match=re.escape(named)):
            build()


def test_local_regret_accounting_nonnegative_sum():
    g, m = build_matching_pennies()
    run = run_cfr(g, m["original"], 200, seed=5)
    local = run.accounting.local_regrets(200)
    total = sum(float(np.maximum(r, 0.0).sum()) for r in local.values())
    assert abs(total * 200 - run.trace["sum_pos_local"][-1]) < 1e-9
    # regret matching keeps positive local regrets bounded and shrinking
    early = run.trace["sum_pos_local"][19] / 20
    late = run.trace["sum_pos_local"][-1] / 200
    assert late <= early + 1e-9


def test_each_stage_learns_its_owners_reward():
    # zero-sum: player 1 moves second, sees player 0's move and gets the
    # negated reward, so feeding player 0's reward to stage 1 is wrong
    g = ProductGame(nature=((0,), (1,)), nature_probs=(0.3, 0.7),
                    player_of_stage=(0, 1), stage_actions=(2, 2),
                    reward_fn=lambda w, a: (lambda r: (r, -r))(
                        float(a[0] == w[0]) - 0.5 * float(a[1] == a[0])),
                    num_players=2)
    info = InformationMap([[("nature", 0)], [("action", 0)]])
    run = CfrRun(g, info, seed=3, randomize_init=True)
    pol = run.current_policy()
    run.iterate()
    t = tables_for(g, info)
    for i in range(2):
        for row, lab in enumerate(t.labels[run.mf][i]):
            owner = counterfactual_rewards(g, info, pol, i, lab)
            assert np.array_equal(run.accounting.cum_theta[i][row], owner)
            if i == 1:
                other = counterfactual_rewards(g, info, pol, i, lab, player=0)
                assert not np.allclose(owner, other)


def test_make_banks_draws_the_rows_of_one_dirichlet_call_per_row():
    # one Dirichlet call per stage gives the rows, and leaves the generator
    # in the state, of one call per label row
    g, m = build_trade_comm()
    t = tables_for(g, m["perfect_recall"])
    mi = t.map_index(m["perfect_recall"])
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    banks = make_banks(t, mi, "regret_matching", None, [rng], True)
    for i, bank in enumerate(banks):
        A = g.stage_actions[i]
        rows = np.vstack([ref.dirichlet(np.ones(A))
                          for _ in range(len(t.labels[mi][i]))])
        assert np.array_equal(bank.cum, rows)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("reader", ["projected_policy", "current_policy",
                                    "average_policy"])
def test_policies_of_a_batched_run_raise(reader):
    g, m = build_matching_pennies()
    run = run_cfr(g, m["original"], 3, seed=[4, 5, 6], randomize_init=True)
    with pytest.raises(BatchedRun, match=f"^{reader} .* stacks 3 repeats"):
        getattr(run, reader)()
    with pytest.raises(BatchedRun, match="^trace .* stacks 3 repeats"):
        run.trace
    assert len(run.traces) == 3


def nature_distributions():
    """52 distributions: one-point ones, ones with zero entries, uniform
    ones and Dirichlet draws of sizes 1 to 12, each normalised as a game's
    Nature probabilities are."""
    rng = np.random.default_rng(21)
    out = [np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
           np.array([0.0, 0.0, 1.0, 0.0])]
    for k in range(1, 13):
        out.append(np.full(k, 1.0 / k))
        out.append(rng.dirichlet(np.ones(k)))
        p = rng.dirichlet(np.ones(k))
        p[rng.random(k) < 0.4] = 0.0
        if p.sum() == 0.0:
            p[-1] = 1.0
        out.append(p / p.sum())
        out.append(rng.dirichlet(np.full(k, 0.1)))
    return out


def test_nature_draws_match_generator_choice():
    # the draw of each repeat's Nature state, against Generator.choice:
    # the same states and the same generator states after 50 draws
    for j, p in enumerate(nature_distributions()):
        seeds = np.random.SeedSequence(j).generate_state(200)
        ours = [np.random.default_rng(s) for s in seeds]
        theirs = [np.random.default_rng(s) for s in seeds]
        cdf = nature_cdf(p)
        for _ in range(50):
            want = [rng.choice(len(p), p=p) for rng in theirs]
            assert nature_draws(cdf, ours).tolist() == want
        assert ([r.bit_generator.state for r in ours]
                == [r.bit_generator.state for r in theirs])
