import math

import numpy as np
import pytest

from phide.cfr import CfrRun, run_cfr
from phide.core import uniform_policy
from phide.engine import tables_for
from phide.errors import BatchedRun
from phide.hiding import PenaltySchedule, PhRun, regret_report, run_ph
from phide.infomaps import is_implementable
from phide.zoo import TradeCommSpec, build_matching_pennies, build_trade_comm

from per_history import hist_labels
from test_api_surface import traced_objects
from test_cfr import counterfactual_rewards


def penalty_term(lam, mu, gamma, stage, history):
    """lam * squared distance of the two local vectors seen along a history."""
    a = mu.local(stage, history.nature, history.actions)
    b = gamma.local(stage, history.nature, history.actions)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(lam * np.dot(d, d))


def local_reward_vector(game, coarse, fine, policy, lam, stage, label):
    """Penalized, linearized local reward vector of one (stage, label) slot
    for the given relaxed-map policy, from one step of the solver loop."""
    run = PhRun(game, coarse, fine, schedule=PenaltySchedule(value=lam))
    thetas = run._step(run.t.matrices(policy), lam)[2]
    row = run.t.labels[run.mf][stage].index(label)
    return thetas[stage][row]


def test_schedule_kinds():
    s = PenaltySchedule("constant", 0.3)
    s.reset()
    assert s.current(1) == s.current(500) == 0.3
    r = PenaltySchedule("ramp", 1.0, horizon=10)
    r.reset()
    assert abs(r.current(1) - 0.1) < 1e-12
    assert r.current(10) == 1.0
    assert r.current(25) == 1.0
    c = PenaltySchedule("controller", 0.5, target=0.8, factor=2.0)
    c.reset()
    assert c.current(1) == 0.5
    c.update(0.9)
    assert c.current(2) == 1.0
    c.update(0.1)
    assert c.current(3) == 0.5
    with pytest.raises(ValueError):
        PenaltySchedule("exponential", 1.0)
    with pytest.raises(ValueError):
        PenaltySchedule("constant", -0.1)
    for factor in (-2.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^factor must be positive"):
            PenaltySchedule("controller", 0.5, factor=factor)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^value must be finite"):
            PenaltySchedule("constant", value)
    # the controller's state is set by reset(), not by the constructor
    with pytest.raises(TypeError):
        PenaltySchedule("controller", 0.5, 0, 0.0, 1.1, 7.0)


def test_reduction_to_cfr_bitwise():
    # with the relaxed map equal to the original one the run must match
    # plain solver traces bit for bit, in both modes; the penalty is zero
    # whatever its weight
    for build in (build_matching_pennies, build_trade_comm):
        g, m = build()
        c = m["original"]
        for kind in ("regret_matching", "ftrl_entropic"):
            for seed, mode in ((0, "exact"), (1, "exact"), (2, "mc")):
                kw = dict(learner=kind, seed=seed, randomize_init=True,
                          mode=mode)
                cfr = CfrRun(g, c, **kw)
                ph0 = PhRun(g, c, c, schedule=PenaltySchedule("constant", 0.0),
                            **kw)
                ph7 = PhRun(g, c, c, schedule=PenaltySchedule("constant", 0.7),
                            **kw)
                for _ in range(40):
                    cfr.iterate()
                    ph0.iterate()
                    ph7.iterate()
                assert cfr.trace == ph0.trace
                for key in ("payoff", "payoff_mu", "sum_pos_local", "rho_mu"):
                    assert cfr.trace[key] == ph7.trace[key], key
                assert ph7.trace["penalty_mass"] == [0.0] * 40
                assert ph7.trace["lambda"] == [0.7] * 40


def test_cfr_and_ph_share_one_trace_schema():
    g, m = build_matching_pennies()
    cfr = run_cfr(g, m["original"], 3)
    ph = run_ph(g, m["original"], m["relaxed"], 3)
    assert cfr.trace.keys() == ph.trace.keys()
    assert all(len(v) == 3 for v in cfr.trace.values())


def test_traced_spans_resolve_and_stay_separate():
    # the benchmark's tracer wraps CfrRun.iterate and PhRun.iterate as two
    # spans; were PhRun a CfrRun, its steps would run inside the cfr span
    traced = dict(traced_objects())
    assert ("phide.cfr", "CfrRun.iterate") in traced
    assert ("phide.hiding", "PhRun.iterate") in traced
    assert not issubclass(PhRun, CfrRun)


def test_projected_policy_always_implementable():
    g, m = build_matching_pennies()
    run = PhRun(g, m["original"], m["relaxed"],
                schedule=PenaltySchedule("constant", 0.5), seed=2,
                randomize_init=True)
    for _ in range(10):
        gam = run.t.to_policy(run.iterate(), run.coarse)
        gam.validate()
        assert is_implementable(g, m["original"], gam)


def test_penalty_term_value():
    g, m = build_matching_pennies()
    from phide.core import BehavioralPolicy, History
    mu = uniform_policy(g, m["relaxed"])
    gam = uniform_policy(g, m["original"])
    h = History((0,), (1, 0))
    assert penalty_term(3.0, mu, gam, 1, h) == 0.0
    mu.table[(1, m["relaxed"].label(1, (0,), (1, 0)))] = np.array([1.0, 0.0, 0.0])
    want = 3.0 * ((1 - 1 / 3) ** 2 + 2 * (1 / 3) ** 2)
    assert abs(penalty_term(3.0, mu, gam, 1, h) - want) < 1e-12


def test_local_reward_vector_matches_counterfactual_at_zero_penalty():
    g, m = build_matching_pennies()
    pol = uniform_policy(g, m["relaxed"])
    for lab in [(1, (0, 0)), (1, (1, 1))]:
        theta = local_reward_vector(g, m["relaxed"], m["relaxed"], pol, 0.0,
                                    1, lab)
        ref = counterfactual_rewards(g, m["relaxed"], pol, 1, lab)
        assert np.array_equal(theta, ref)


def test_local_reward_vector_penalizes_disagreement():
    g, m = build_matching_pennies()
    pol = uniform_policy(g, m["relaxed"])
    lab = (1, (0, 0))
    # uniform policy projects to itself, so the linear term vanishes
    theta0 = local_reward_vector(g, m["original"], m["relaxed"], pol, 0.0, 1, lab)
    theta1 = local_reward_vector(g, m["original"], m["relaxed"], pol, 2.0, 1, lab)
    assert np.allclose(theta0, theta1, atol=1e-12)
    # a policy that uses the relaxed information gets pulled toward the mean
    pol.table[(1, (1, (0, 0)))] = np.array([1.0, 0.0, 0.0])
    pol.table[(1, (1, (1, 0)))] = np.array([0.0, 1.0, 0.0])
    t0 = local_reward_vector(g, m["original"], m["relaxed"], pol, 0.0, 1, lab)
    t1 = local_reward_vector(g, m["original"], m["relaxed"], pol, 2.0, 1, lab)
    assert not np.allclose(t0, t1)
    # the played action (H) is discouraged relative to the projection
    assert t1[0] - t0[0] < 0


def test_non_refining_relaxation_runs():
    # the cheating map is not finer than the original one; the general
    # linearization path must still produce valid iterates
    g, m = build_trade_comm()
    run = run_ph(g, m["original"], m["cheat"], 15,
                 schedule=PenaltySchedule("constant", 0.5), seed=3,
                 randomize_init=True)
    assert len(run.f2c) < g.num_stages  # some stage does not refine
    gam = run.projected_policy()
    gam.validate()
    assert is_implementable(g, m["original"], gam)


def test_regret_report_bounds_matching_pennies():
    g, m = build_matching_pennies()
    run = run_ph(g, m["original"], m["relaxed"], 150,
                 schedule=PenaltySchedule("constant", 0.5), seed=4,
                 randomize_init=True)
    rep = regret_report(run)
    assert rep["iterations"] == 150
    assert rep["sum_pos_local"] >= 0.0
    assert rep["thm_bound_holds"]
    assert rep["prop_bound_holds"]
    assert rep["rT_lower_bound"] <= rep["sum_pos_local"] + 1e-9


def test_regret_report_certifies_trade_comm_32():
    # the exact best response behind the bound is solved at the root of its
    # search, where the perfect-recall relaxation of the map already fits
    # the map, so no cap limits it: on ``perfect_recall`` by perfect recall,
    # and on ``cheat`` because its relaxed optimum plays one action per label
    g, m = build_trade_comm(TradeCommSpec(3, 2))
    for fine in ("perfect_recall", "cheat"):
        run = run_ph(g, m["original"], m[fine], 60,
                     schedule=PenaltySchedule("constant", 0.5), seed=11,
                     randomize_init=True)
        rep = regret_report(run, cap=1)
        assert rep["rT_lower_bound"] is not None, fine
        assert rep["thm_bound_holds"], fine
        assert rep["prop_bound_holds"], fine


def test_regret_report_needs_history_for_the_bound():
    g, m = build_matching_pennies()
    run = run_ph(g, m["original"], m["relaxed"], 20,
                 schedule=PenaltySchedule("constant", 0.5), seed=5,
                 keep_history=False)
    rep = regret_report(run)
    assert rep["rT_lower_bound"] is None
    assert rep["prop_bound_holds"] is not None
    with pytest.raises(ValueError):
        regret_report(PhRun(g, m["original"], m["relaxed"]))


def test_mc_mode_deterministic_and_valid():
    g, m = build_matching_pennies()
    a = run_ph(g, m["original"], m["relaxed"], 60, mode="mc", seed=6,
               schedule=PenaltySchedule("constant", 0.05), randomize_init=True)
    b = run_ph(g, m["original"], m["relaxed"], 60, mode="mc", seed=6,
               schedule=PenaltySchedule("constant", 0.05), randomize_init=True)
    assert a.trace["payoff"] == b.trace["payoff"]
    assert is_implementable(g, m["original"], a.projected_policy())


def test_mc_mode_feeds_zero_rows_off_the_drawn_slice():
    # a label that the drawn Nature state does not reach gets no reward and
    # no penalty that iteration
    g, m = build_trade_comm()
    run = PhRun(g, m["original"], m["cheat"], mode="mc", seed=8,
                schedule=PenaltySchedule("constant", 0.5))
    rng = np.random.default_rng(8)  # the uniform start draws nothing
    draws = [rng.choice(len(g.nature), p=g.probs()) for _ in range(3)]
    t, skipped = run.t, 0
    for w in draws:
        before = {i: run.accounting.cum_theta[i].copy() for i in run.stages}
        run.iterate()
        for i in run.stages:
            n = len(t.labels[run.mf][i])
            lab = hist_labels(t, run.mf, i)[t.nature_idx == w]
            off = np.bincount(lab, minlength=n) == 0
            fed = run.accounting.cum_theta[i] - before[i]
            assert np.all(fed[off] == 0.0)
            skipped += int(off.sum())
    assert skipped > 0


def test_ph_beats_direct_learning_on_matching_pennies():
    # with enough penalty the relaxed learners coordinate on signaling
    g, m = build_matching_pennies()
    run = run_ph(g, m["original"], m["relaxed"], 400,
                 schedule=PenaltySchedule("ramp", 2.0, horizon=400), seed=7,
                 randomize_init=True)
    assert run.trace["payoff"][-1] > 0.95


def test_regret_report_of_a_batched_run_raises():
    g, m = build_matching_pennies()
    run = run_ph(g, m["original"], m["relaxed"], 4, seed=[1, 2],
                 schedule=PenaltySchedule("constant", 0.5))
    with pytest.raises(BatchedRun, match="^regret_report .* stacks 2 repeats"):
        regret_report(run)
    with pytest.raises(BatchedRun, match="^projected_policy .* 2 repeats"):
        run.projected_policy()
