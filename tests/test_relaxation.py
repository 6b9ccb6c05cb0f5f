import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phide import relaxation
from phide.cfr import suffix_values
from phide.core import (InformationMap, ProductGame, random_policy,
                        uniform_policy)
from phide.engine import tables_for
from phide.errors import InvalidRelaxation, PhideError
from phide.infomaps import is_implementable, weighted_sq_distance
from phide.relaxation import (RelaxationProblem, lagrangian, proximal_step,
                              rir_run)
from phide.zoo import (TradeCommSpec, build_matching_pennies,
                       build_trade_comm, random_game)


def rows_to_simplex(mat):
    """Row-wise simplex projection, the arithmetic of the sweep's inline
    block maximizer: each row less the threshold tau of its largest rho + 1
    entries, clamped at zero, where tau is (sum of those entries - 1) /
    (rho + 1) and rho is the last rank whose entry exceeds its threshold."""
    v = np.asarray(mat, dtype=float)
    rows, n = v.shape
    u = v.copy()
    u.sort(axis=1)
    u = u[:, ::-1]
    avg = u.cumsum(axis=1)
    avg -= 1.0
    avg /= np.arange(1.0, n + 1.0)
    rho = n - 1 - (u > avg)[:, ::-1].argmax(axis=1)
    out = v - avg[np.arange(rows), rho][:, None]
    return np.maximum(out, 0.0, out=out)


def test_simplex_projection_known_points():
    for v, want in (([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]),
                    ([2.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                    ([0.5, 0.5], [0.5, 0.5])):
        assert np.allclose(rows_to_simplex([v])[0], want, atol=1e-15)


def test_simplex_projection_is_closest_point():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        v = rng.normal(scale=3.0, size=n)
        x = rows_to_simplex(v[None, :])[0]
        assert x.min() >= 0 and abs(x.sum() - 1.0) < 1e-12
        for _ in range(20):
            y = rng.dirichlet(np.ones(n))
            assert np.sum((v - x) ** 2) <= np.sum((v - y) ** 2) + 1e-12


def sort_based_simplex(v):
    """The row-wise projection as first written, kept as the reference."""
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(len(v)), rho] / (rho + 1.0)
    return np.maximum(v - tau[:, None], 0.0)


def test_rows_to_simplex_bitwise_matches_sort_formula():
    rng = np.random.default_rng(11)
    for A in range(1, 10):
        cases = [rng.normal(scale=3.0, size=(50, A)),
                 rng.uniform(-1e-3, 1e-3, size=(20, A)),
                 # ties: entries drawn from a few values, and equal rows
                 rng.integers(-2, 3, size=(40, A)) / 4.0,
                 np.full((3, A), 1.0 / A), np.zeros((2, A))]
        for v in cases:
            got = rows_to_simplex(v)
            assert got.tobytes() == sort_based_simplex(v).tobytes()


def test_problem_validation():
    g, m = build_matching_pennies()
    with pytest.raises(ValueError):
        RelaxationProblem(g, m["original"], m["relaxed"], 0.0)
    g2, m2 = build_trade_comm()
    with pytest.raises(ValueError):
        # the cheating map does not refine the original one
        RelaxationProblem(g2, m2["original"], m2["cheat"], 1.0)


def test_equality_is_identity():
    g, m = build_matching_pennies()
    a = RelaxationProblem(g, m["original"], m["relaxed"], 0.5)
    b = RelaxationProblem(g, m["original"], m["relaxed"], 0.5)
    assert (a == a) is True and (a == b) is False and (a != b) is True


def test_problem_errors_are_typed_and_name_the_culprit():
    g, m = build_matching_pennies()
    for lam in (-0.5, math.inf, math.nan):
        with pytest.raises(InvalidRelaxation,
                           match=re.escape(f"got lam={lam!r}")):
            RelaxationProblem(g, m["original"], m["relaxed"], lam)
    g2, m2 = build_trade_comm()
    with pytest.raises(InvalidRelaxation, match=re.escape(
            "at stage 2, fine label (2, (0, 0, 0)) spans coarse labels "
            "(2, (0, 0, 0)) and (2, (0, 1, 0))")):
        RelaxationProblem(g2, m2["original"], m2["cheat"], 1.0)
    base = uniform_policy(g, m["relaxed"])
    base.table[(1, (1, (0, 1)))] = np.array([1.0, 0.0, 0.0])
    with pytest.raises(InvalidRelaxation, match=re.escape(
            "at stage 1, label (1, (0, 1)) gives action 1 probability 0")):
        RelaxationProblem(g, m["original"], m["relaxed"], 1.0, base=base)
    g3 = ProductGame(nature=((0,), (1,)), nature_probs=(1.0, 0.0),
                     player_of_stage=(0,),
                     stage_actions=(2,), reward_fn=lambda w, a: (0.0,))
    with pytest.raises(InvalidRelaxation, match=re.escape(
            "Nature state (1,) has probability 0")):
        RelaxationProblem(g3, InformationMap([[]]),
                          InformationMap([[("nature", 0)]]), 1.0)
    # the Tables are the problem's own, not an argument
    with pytest.raises(TypeError):
        RelaxationProblem(g, m["original"], m["relaxed"], 1.0, 0, None,
                          tables_for(g))
    assert issubclass(InvalidRelaxation, PhideError)


def test_lagrangian_implementable_policy_has_no_penalty():
    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 5.0)
    rng = np.random.default_rng(1)
    coarse_pol = random_policy(g, m["original"], rng)
    # lift onto the relaxed map
    t = prob._t
    mats = t.matrices(coarse_pol)
    lifted = t.to_policy([mats[i][prob.f2c[i]] for i in range(2)], m["relaxed"])
    val = lagrangian(prob, lifted)
    payoff = tables_for(g, m["original"]).expected_reward(coarse_pol)
    assert abs(val - payoff) < 1e-12


def test_lagrangian_penalty_reduces_value():
    g, m = build_matching_pennies()
    rng = np.random.default_rng(2)
    mu = random_policy(g, m["relaxed"], rng)
    small = RelaxationProblem(g, m["original"], m["relaxed"], 1e-9)
    big = RelaxationProblem(g, m["original"], m["relaxed"], 50.0)
    assert lagrangian(big, mu) < lagrangian(small, mu)


def test_proximal_tiny_penalty_hits_relaxed_optimum():
    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 1e-9)
    mu = proximal_step(prob, uniform_policy(g, m["original"]))
    v = tables_for(g, m["relaxed"]).expected_reward(mu)
    assert abs(v - 1.0) < 1e-6


def test_proximal_huge_penalty_stays_at_center():
    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 1e6)
    rng = np.random.default_rng(3)
    gamma = random_policy(g, m["original"], rng)
    mu = proximal_step(prob, gamma)
    assert weighted_sq_distance(g, prob.base, mu, gamma) < 1e-3


def test_proximal_weakly_improves_objective():
    g, m = build_matching_pennies()
    rng = np.random.default_rng(4)
    for lam in (0.05, 0.5, 5.0):
        prob = RelaxationProblem(g, m["original"], m["relaxed"], lam)
        gamma = random_policy(g, m["original"], rng)
        mu, info = proximal_step(prob, gamma, return_info=True)
        t = prob._t
        pay_mu = t.expected_reward(mu)
        pay_gam = tables_for(g, m["original"]).expected_reward(gamma)
        obj_mu = pay_mu - lam * weighted_sq_distance(g, prob.base, mu, gamma)
        assert obj_mu >= pay_gam - 1e-12
        assert info["converged"]


def test_proximal_method_runs_without_perfect_recall():
    g, m = build_matching_pennies()
    # the original map refines itself but lacks perfect recall
    prob = RelaxationProblem(g, m["original"], m["original"], 1.0)
    gamma = uniform_policy(g, m["original"])
    mu, info = proximal_step(prob, gamma, return_info=True)
    mu.validate()
    assert info["converged"]
    _, gam, trace = rir_run(prob, random_policy(g, m["original"],
                                                np.random.default_rng(8)),
                            iterations=10)
    assert float(np.min(np.diff(trace))) >= -1e-9
    assert is_implementable(g, m["original"], gam)


def test_rir_monotone_and_implementable_output():
    g, m = build_matching_pennies()
    rng = np.random.default_rng(5)
    for lam in (0.05, 0.5, 5.0):
        prob = RelaxationProblem(g, m["original"], m["relaxed"], lam)
        mu0 = random_policy(g, m["relaxed"], rng)
        mu, gam, trace = rir_run(prob, mu0, iterations=25)
        assert len(trace) == 26
        assert float(np.min(np.diff(trace))) >= -1e-9
        assert trace[-1] == lagrangian(prob, mu)
        assert is_implementable(g, m["original"], gam)


def test_rir_converts_policies_only_on_entry_and_exit(monkeypatch):
    from phide.engine import Tables
    calls = []
    for name in ("matrices", "to_policy"):
        real = getattr(Tables, name)
        monkeypatch.setattr(Tables, name, lambda self, *a, _n=name, _f=real:
                            calls.append(_n) or _f(self, *a))
    g, m = build_trade_comm()
    prob = RelaxationProblem(g, m["original"], m["perfect_recall"], 0.5)
    mu0 = random_policy(g, m["perfect_recall"], np.random.default_rng(7))
    counts = []
    for iterations in (5, 25):
        calls.clear()
        rir_run(prob, mu0, iterations=iterations)
        counts.append((calls.count("matrices"), calls.count("to_policy")))
    assert counts == [(1, 2), (1, 2)]


def test_rir_runs_no_per_history_operator(monkeypatch):
    # a sweep runs on the stage prefixes alone
    from phide.engine import Tables
    calls = []
    for name in ("segment_sum", "pushforward"):
        monkeypatch.setattr(Tables, name, lambda self, *a, _n=name:
                            calls.append(_n))
    assert not hasattr(Tables, "stage_prob")
    g, m = build_trade_comm()
    prob = RelaxationProblem(g, m["original"], m["perfect_recall"], 0.5)
    mu0 = random_policy(g, m["perfect_recall"], np.random.default_rng(7))
    rir_run(prob, mu0, iterations=5)
    assert calls == []


def test_rir_zero_iterations():
    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 0.5)
    mu0 = uniform_policy(g, m["relaxed"])
    mu, gam, trace = rir_run(prob, mu0, iterations=0)
    assert mu is mu0
    assert len(trace) == 1
    assert is_implementable(g, m["original"], gam)


def test_relaxed_optimum_bounds_original_optimum():
    # the final penalized objective upper-bounds the implementable optimum
    # whenever the run converges to the global maximizer
    from phide.games import best_response_value
    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 0.5)
    best = -np.inf
    rng = np.random.default_rng(6)
    for _ in range(10):
        _, _, trace = rir_run(prob, random_policy(g, m["relaxed"], rng),
                              iterations=40)
        best = max(best, trace[-1])
    opt = best_response_value(g, m["original"], 0)
    assert opt <= best + 1e-9


def reference_sweep(problem, mats, centers):
    """The sweep as first written on prefixes, kept as the reference: one
    call each for the linear term, the simplex projection and the stage
    penalty, and the backward pass of ``cfr.suffix_values``."""
    t, mf = problem._t, problem.mf
    before = t.forward(mats[:-1], mf)
    pen = 0.0
    for i, after in suffix_values(t.prefix_label[mf], mats,
                                  t.rewards[:, problem.player]):
        n, A = len(t.labels[mf][i]), after.shape[1]
        c = np.bincount(t.cells(mf, i),
                        weights=(before[i][:, None] * after).reshape(-1),
                        minlength=n * A).reshape(n, A)
        scale = 2.0 * problem.lam * problem.weights[i][:, None]
        mats[i] = rows_to_simplex(centers[i] + c / scale)
        d = mats[i] - centers[i]
        d *= d
        pen += float((problem.weights[i] * d.sum(axis=1)).sum())
    u = np.einsum("pa,pa->p", mats[0][t.prefix_label[mf][0]], after)
    return float(t.nature_probs @ u) - problem.lam * pen


def check_kernel_bitwise(problem, mats, sweeps=3):
    gam = relaxation._project(problem, mats)
    centers = relaxation._centers(problem, gam)
    ours, theirs = list(mats), list(mats)
    before = relaxation._objective(problem, ours, centers)[3]
    for k in range(sweeps):
        val = relaxation._sweep(problem, ours, centers, before if k else None)
        assert val == reference_sweep(problem, theirs, centers)
        assert [m.tobytes() for m in ours] == [m.tobytes() for m in theirs]
        before = relaxation._objective(problem, ours, centers)[3]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 499), lam=st.sampled_from([1e-9, 0.05, 0.5, 5.0]))
def test_sweep_kernel_is_bitwise_the_reference_sweep(seed, lam):
    # the inline kernel repeats the arithmetic of rows_to_simplex and of
    # the stage penalty; with or without a forward pass handed in, every
    # sweep's matrices and objective are those of the reference, bit for bit
    game, coarse, fine = random_game(seed)
    problem = RelaxationProblem(game, coarse, fine, lam)
    rng = np.random.default_rng(seed)
    check_kernel_bitwise(problem,
                         problem._t.matrices(random_policy(game, fine, rng)))


def test_sweep_kernel_is_bitwise_the_reference_sweep_on_trade_comm():
    rng = np.random.default_rng(9)
    for items in (2, 3):
        game, maps = build_trade_comm(TradeCommSpec(items, 2))
        for lam in (0.05, 0.5, 5.0):
            problem = RelaxationProblem(game, maps["original"],
                                        maps["perfect_recall"], lam)
            mats = problem._t.matrices(
                random_policy(game, maps["perfect_recall"], rng))
            check_kernel_bitwise(problem, mats)
