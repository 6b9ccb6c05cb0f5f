"""The benchmark's three workloads.

A workload builds its games in ``setup()``.  ``round(r)`` is a generator
that does one round of fixed work and yields its timed ops, one callable
each; whatever runs between two yields belongs to the round but to no op.
Every round runs the same ops on inputs drawn from the seed and the round
index.  ``check()`` runs after the timed phase and returns failure messages.
"""

from __future__ import annotations

import os

import numpy as np

from phide import (cfr, core, engine, experiments, games, hiding, infomaps,
                   relaxation, zoo)

import checks


def round_seeds(seed: int, r: int, k: int) -> list:
    """k solver seeds for round r of a run with master seed ``seed``."""
    return [int(s) for s in np.random.SeedSequence([seed, r]).generate_state(k)]


class ExactLarge:
    """Exact mode on trade_comm(4,3): one CFR run on the original map and PH
    runs to the refining perfect-recall map and the non-refining cheat map.
    One op is one ``iterate()``; equal op counts per solver put the median
    in the middle block of the three."""

    ITERATIONS = 16  # iterate() calls per solver per round

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self):
        self.game, self.maps = zoo.build_trade_comm(zoo.TradeCommSpec(4, 3))
        m = self.maps
        engine.tables_for(self.game, m["original"], m["perfect_recall"],
                          m["cheat"])

    def round(self, r: int):
        game, m = self.game, self.maps
        s_cfr, s_recall, s_cheat = round_seeds(self.seed, r, 3)
        run = cfr.CfrRun(game, m["original"], seed=s_cfr, randomize_init=True)

        def cfr_step():
            self.cfr_mats = run.iterate()

        for _ in range(self.ITERATIONS):
            yield cfr_step
        self.cfr_run = run
        self.ph_runs = {}
        for fine, s in (("perfect_recall", s_recall), ("cheat", s_cheat)):
            ph = hiding.PhRun(game, m["original"], m[fine], seed=s,
                              randomize_init=True, keep_history=False)
            for _ in range(self.ITERATIONS):
                yield ph.iterate
            self.ph_runs[fine] = ph

    def check(self) -> list:
        game, original = self.game, self.maps["original"]
        out = []
        run = self.cfr_run
        policy = run.t.to_policy(self.cfr_mats, original)
        out += checks.values_equal("cfr original: recorded vs direct payoff",
                                   run.trace["payoff"][-1],
                                   checks.direct_payoff(game, policy),
                                   checks.PAYOFF_TOL)
        for fine, ph in self.ph_runs.items():
            name = f"ph original->{fine}"
            gamma = ph.projected_policy().validate()
            if not infomaps.is_implementable(game, original, gamma):
                out.append(f"{name}: projected policy is not implementable")
            out += checks.values_equal(f"{name}: recorded vs direct payoff",
                                       ph.trace["payoff"][-1],
                                       checks.direct_payoff(game, gamma),
                                       checks.PAYOFF_TOL)
            out += checks.penalty_bound_holds(name, hiding.regret_report(ph))
        return out


class BatchMc:
    """Seed sweep of ``experiments.run_and_write`` in mc mode on
    trade_comm(3,2), in criterion 7's shape: a CFR baseline on the original
    map and PH to the perfect-recall and cheat maps with a ramp penalty.  One
    op is one call with a few seeded repeats; each call loads a fresh game.
    PH calls are four in five, so the op median falls inside them."""

    BASE = {"game": {"name": "trade_comm", "n": 3, "m": 2},
            "iterations": 50, "repeats": 2, "randomize_init": True,
            "mode": "mc", "learner": "regret_matching_plus",
            "coarse_map": "original"}
    KINDS = {"cfr": {"algorithm": "cfr"},
             "ph_recall": {"algorithm": "ph", "fine_map": "perfect_recall",
                           "schedule": "ramp", "lambda": 2.0},
             "ph_cheat": {"algorithm": "ph", "fine_map": "cheat",
                          "schedule": "ramp", "lambda": 2.0}}
    ROUND = ("cfr", "ph_recall", "ph_cheat", "ph_recall", "ph_cheat")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.done = []  # (config, output directory) per op

    def setup(self):
        os.makedirs(self.out_dir, exist_ok=True)

    def round(self, r: int):
        seeds = round_seeds(self.seed, r, len(self.ROUND))
        for k, (kind, s) in enumerate(zip(self.ROUND, seeds)):
            config = {**self.BASE, **self.KINDS[kind], "seed": s}
            where = os.path.join(self.out_dir, f"r{r}_{k}_{kind}")
            self.done.append((config, where))
            yield lambda c=config, d=where: experiments.run_and_write(c, d)

    @staticmethod
    def _read(where: str, name: str) -> bytes:
        with open(os.path.join(where, name), "rb") as f:
            return f.read()

    def _rerun(self, config: dict, name: str) -> dict:
        where = os.path.join(self.out_dir, name)
        experiments.run_and_write(config, where)
        return {f: self._read(where, f) for f in ("runs.csv", "summary.csv")}

    def check(self) -> list:
        upper = zoo.trade_comm_optimal_value(3, 2)
        out = []
        for config, where in self.done:
            name = os.path.basename(where)
            runs = self._read(where, "runs.csv").decode()
            rows = checks.parse_runs_csv(runs)
            out += checks.payoffs_in_range(name, rows, upper)
            out += checks.summary_mean_matches(
                name, rows, self._read(where, "summary.csv").decode())
        config, where = self.done[0]
        again = self._rerun(config, "repeat")
        for f, data in again.items():
            out += checks.same_bytes(f"repeat of first op, {f}",
                                     self._read(where, f), data)
        base = {**self.BASE, "seed": config["seed"]}
        plain = self._rerun({**base, "algorithm": "cfr"}, "reduce_cfr")
        penalized = self._rerun({**base, "algorithm": "ph", "lambda": 0.0,
                                 "fine_map": base["coarse_map"]}, "reduce_ph")
        for f in plain:
            out += checks.same_bytes(f"cfr vs ph at lambda 0, {f}",
                                     plain[f], penalized[f])
        return out


class RelaxCertify:
    """Proximal ``rir_run`` sweeps from seeded random starts in criterion 2's
    shape, plus one regret certificate in criteria 4 and 5's shape.  A round
    is a sweep, the certificate, and a second sweep, so the sweep ops span
    the round.  Start counts are uneven so the op median lands inside one
    block of similar ops: the many short trade_comm(2,2) runs."""

    LAMBDAS = (0.05, 0.5, 5.0)
    SWEEP = ((2, 15), (3, 1))  # (trade_comm items, starts per lambda)
    RIR_ITERATIONS = 25
    CERT_ITERATIONS = 200
    CERT_CAP = 20_000_000

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.traces = []

    def setup(self):
        self.games, self.problems = {}, {}
        for n, _ in self.SWEEP:
            game, maps = zoo.build_trade_comm(zoo.TradeCommSpec(n, 2))
            self.games[n] = (game, maps)
            for lam in self.LAMBDAS:
                self.problems[n, lam] = relaxation.RelaxationProblem(
                    game, maps["original"], maps["perfect_recall"], lam)

    def round(self, r: int):
        rng = np.random.default_rng(round_seeds(self.seed, r, 1))
        cert_seed = int(rng.integers(2**31))
        yield from self._sweep(rng)
        yield lambda: self._certificate(cert_seed)
        yield from self._sweep(rng)

    def _sweep(self, rng):
        for n, starts in self.SWEEP:
            game, maps = self.games[n]
            for lam in self.LAMBDAS:
                problem = self.problems[n, lam]
                for _ in range(starts):
                    mu0 = core.random_policy(game, maps["perfect_recall"], rng)
                    yield lambda p=problem, mu=mu0: self._rir(p, mu)

    def _rir(self, problem, mu0):
        _, _, trace = relaxation.rir_run(problem, mu0,
                                         iterations=self.RIR_ITERATIONS)
        self.traces.append((problem.lam, trace))

    def _certificate(self, seed: int):
        game, maps = self.games[2]
        run = hiding.run_ph(game, maps["original"], maps["perfect_recall"],
                            self.CERT_ITERATIONS,
                            schedule=hiding.PenaltySchedule("constant", 0.5),
                            seed=seed, randomize_init=True)
        self.report = hiding.regret_report(run, cap=self.CERT_CAP)

    def check(self) -> list:
        out = []
        for k, (lam, trace) in enumerate(self.traces):
            out += checks.non_decreasing(f"rir run {k} (lambda {lam})", trace)
        out += checks.certificate_holds("trade_comm(2,2) certificate",
                                        self.report)
        game, maps = self.games[2]
        out += checks.values_equal(
            "best response on trade_comm(2,2) original vs exhaustive optimum",
            games.best_response_value(game, maps["original"], 0),
            zoo.trade_comm_optimal_value(2, 2))
        return out


WORKLOADS = {"exact_large": ExactLarge, "batch_mc": BatchMc,
             "relax_certify": RelaxCertify}
