"""Batch experiment harness: seeded repeats of a solver on a named game,
per-iteration records, nearest-rank quantile summaries, CSV emission.

Output is deterministic byte for byte given the config and master seed.  The
environment variable PHIDE_SEED overrides the configured master seed.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from itertools import islice

import numpy as np

from .cfr import MODES, SCHEDULE_KINDS, TRACE_KEYS, CfrRun
from .core import random_policy, uniform_policy
from .engine import tables_for
from .errors import ConfigError
from .hiding import PenaltySchedule, PhRun
from .learners import KINDS
from .relaxation import RelaxationProblem, _rir_steps
from .zoo import (TradeCommSpec, build_matching_pennies, build_trade_comm,
                  random_game)

COLUMNS = ("run", "seed", "t", "expected_payoff_projected", "penalty_mass",
           "sum_pos_local_regret", "lambda_t")

# Every key the harness reads; any other key is a typo and is rejected.
CONFIG_KEYS = ("algorithm", "iterations", "repeats", "seed", "game", "learner",
               "eta", "randomize_init", "mode", "coarse_map", "fine_map",
               "schedule", "lambda", "target", "factor", "quantiles",
               "threshold")
GAME_KEYS = ("name", "n", "m", "seed")
ALGORITHMS = ("cfr", "ph", "rir")
# Keys that take one of a fixed set of values, each set kept by its module.
CHOICES = (("algorithm", ALGORITHMS), ("mode", MODES), ("learner", KINDS),
           ("schedule", SCHEDULE_KINDS))
# Keys that take a number: each with the test its value must pass and the
# phrase that states the test.
NUMBERS = (("lambda", lambda x: 0 <= x < math.inf,
            "a finite number at least 0"),
           ("factor", lambda x: 0 < x < math.inf, "a positive finite number"),
           ("eta", lambda x: 0 < x < math.inf, "a positive finite number"),
           ("threshold", lambda x: True, "a number"),
           ("target", lambda x: True, "a number"))


def _reject_unknown_keys(record: dict, known: tuple, where: str):
    for key in record:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}; known keys: "
                              f"{', '.join(known)}")


def _map(maps: dict, config, key: str, default: str):
    name = config.get(key, default)
    if name not in maps:
        raise ConfigError(f"unknown {key} {name!r}; available maps: "
                          f"{', '.join(maps)}")
    return maps[name]


def load_game(spec: dict):
    """Returns (game, {map name: map}) from a config game record, whose
    keys and integers are checked before the game is built."""
    if not isinstance(spec, dict):
        raise ConfigError(f"game must be a record such as "
                          f'{{"name": "trade_comm"}}, got {spec!r}')
    _reject_unknown_keys(spec, GAME_KEYS, "game")
    name = spec.get("name")
    if name == "matching_pennies":
        return build_matching_pennies()
    if name == "trade_comm":
        n, m = (_integer(spec.get(k, 2), f"game {k}", 1) for k in "nm")
        return build_trade_comm(TradeCommSpec(n, m))
    if name == "random":
        game, coarse, fine = random_game(
            _integer(spec.get("seed", 0), "game seed", 0))
        return game, {"coarse": coarse, "fine": fine}
    raise ConfigError(f"unknown game name {name!r}")


def _integer(value, key: str, minimum: int) -> int:
    """``value``, an integer or a float of integer value but not a bool or
    a string, as an int; else a ConfigError naming ``key``."""
    if not ((isinstance(value, numbers.Integral)
             and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    n = int(value)
    if n < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {n}")
    return n


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_numbers(config):
    """A ConfigError naming the first key of NUMBERS whose value fails its
    test, or ``quantiles`` unless ``_check_quantiles`` passes it."""
    for key, ok, what in NUMBERS:
        if key in config and not (_is_number(config[key]) and ok(config[key])):
            raise ConfigError(f"{key} must be {what}, got {config[key]!r}")
    _check_quantiles(config.get("quantiles", []))


def _check_quantiles(qs):
    """A ConfigError unless ``qs`` is a list of numbers in [0, 1]."""
    if not (isinstance(qs, (list, tuple))
            and all(_is_number(q) and 0 <= q <= 1 for q in qs)):
        raise ConfigError(f"quantiles must be a list of numbers in [0, 1], "
                          f"got {qs!r}")


def _require(config, key, default=None):
    if key in config:
        return config[key]
    if default is not None:
        return default
    raise ConfigError(f"missing config key {key!r}")


def _schedule(config) -> PenaltySchedule:
    return PenaltySchedule(
        kind=config.get("schedule", "constant"),
        value=float(config.get("lambda", 0.05)),
        horizon=int(config.get("iterations", 0)),
        target=float(config.get("target", 0.0)),
        factor=float(config.get("factor", 1.1)),
    )


def _traces(config, game, maps, seeds) -> list[dict]:
    """One trace per seed.  ``cfr`` and ``ph`` run every seed in one solver
    loop, a repeat per seed; ``rir`` runs them one by one on one
    ``RelaxationProblem``."""
    algo = _require(config, "algorithm")
    iters = int(_require(config, "iterations"))
    learner = config.get("learner", "regret_matching")
    eta = config.get("eta")
    randomize = config.get("randomize_init", False)
    mode = config.get("mode", "exact")
    coarse = _map(maps, config, "coarse_map", "original")

    if algo == "cfr":
        run = CfrRun(game, coarse, learner=learner, eta=eta, seed=seeds,
                     randomize_init=randomize, mode=mode)
    else:
        fine = _map(maps, config, "fine_map", "relaxed")
        if algo == "rir":
            problem = RelaxationProblem(game, coarse, fine,
                                        float(config.get("lambda", 0.5)))
            return [_rir_trace(problem, seed, randomize, iters)
                    for seed in seeds]
        run = PhRun(game, coarse, fine, schedule=_schedule(config),
                    learner=learner, eta=eta, seed=seeds,
                    randomize_init=randomize, mode=mode, keep_history=False)
    for _ in range(iters):
        run.iterate()
    return run.traces


def _rir_trace(problem, seed, randomize: bool, iters):
    """The ``cfr.TRACE_KEYS`` trace of a ``rir`` run of ``problem``:
    ``payoff`` is the projection's payoff, ``payoff_mu`` the iterate's on
    the fine map and ``rho_mu`` the objective; ``sum_pos_local`` is NaN, as
    ``rir`` has no local learners."""
    t, game, fine = problem._t, problem.game, problem.fine
    if randomize:
        mu = random_policy(game, fine, np.random.default_rng(seed))
    else:
        mu = uniform_policy(game, fine)
    trace = {k: [] for k in TRACE_KEYS}
    steps = _rir_steps(problem, t.matrices(mu))
    for _, gam, val, payoff, pen in islice(steps, iters):
        row = {"payoff": t.expected_reward(gam, problem.coarse),
               "payoff_mu": payoff, "penalty_mass": pen,
               "sum_pos_local": float("nan"), "lambda": problem.lam,
               "rho_mu": val}
        for key in TRACE_KEYS:
            trace[key].append(row[key])
    return trace


def run_experiment(config: dict) -> dict:
    """Executes ``repeats`` independent seeded runs and returns records plus
    a summary; see COLUMNS for the per-iteration record fields.  ``cfr``
    and ``ph`` run all repeats as one solver loop with a leading repeat
    axis (``cfr.SolverLoop``), each repeat's records byte for byte those
    of a run of its seed alone; ``rir`` runs them one after another.  Keys
    outside CONFIG_KEYS and GAME_KEYS, a seed, ``iterations`` or ``repeats``
    (or the game record's ``n``, ``m`` or ``seed``) that is not an integer
    in range, a value outside its CHOICES, a value of NUMBERS or
    ``quantiles`` that is not a number in range, a ``rir`` ``lambda`` of 0
    and a ``randomize_init`` that is not a bool raise ConfigError before
    the game is built, and so does a ``rir`` config in ``mc`` mode, which
    ``rir`` cannot sample.  A bool or a string is not an integer; the
    environment's PHIDE_SEED is parsed from its string."""
    _reject_unknown_keys(config, CONFIG_KEYS, "config")
    if "PHIDE_SEED" in os.environ:
        text = os.environ["PHIDE_SEED"]  # a string, so parsed first
        try:
            value = int(text)
        except ValueError:
            value = text
        master = _integer(value, "PHIDE_SEED", 0)
    else:
        master = _integer(config.get("seed", 0), "seed", 0)
    repeats = _integer(config.get("repeats", 1), "repeats", 1)
    _integer(_require(config, "iterations"), "iterations", 1)
    _require(config, "algorithm")
    for key, allowed in CHOICES:
        if key in config and config[key] not in allowed:
            raise ConfigError(f"unknown {key} {config[key]!r}; allowed "
                              f"values: {', '.join(allowed)}")
    _check_numbers(config)
    if config["algorithm"] == "rir" and config.get("mode", "exact") != "exact":
        raise ConfigError(f"rir runs in exact mode only, got mode "
                          f"{config['mode']!r}")
    if config["algorithm"] == "rir" and config.get("lambda") == 0:
        raise ConfigError("lambda must be a positive finite number for rir, "
                          "got 0")
    if not isinstance(config.get("randomize_init", False), bool):
        raise ConfigError(f"randomize_init must be true or false, got "
                          f"{config['randomize_init']!r}")
    game, maps = load_game(_require(config, "game"))
    seeds = [int(s) for s in np.random.SeedSequence(master).generate_state(repeats)]
    records = [{"run": k, "seed": seed, "trace": trace} for k, (seed, trace)
               in enumerate(zip(seeds, _traces(config, game, maps, seeds)))]
    quantiles = config.get("quantiles", [0.1, 0.9])
    threshold = config.get("threshold")
    summary = summarize(records, quantiles, threshold=threshold)
    return {"config": dict(config), "master_seed": master,
            "records": records, "summary": summary}


def nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(qN)-th smallest value."""
    s = np.sort(np.asarray(values, dtype=float))
    k = max(int(np.ceil(q * len(s))) - 1, 0)
    return float(s[min(k, len(s) - 1)])


def summarize(records, quantiles=(0.1, 0.9), threshold: float = None) -> dict:
    """The mean payoff and its ``quantiles`` per iteration over
    ``records``; quantiles outside [0, 1] raise ConfigError."""
    _check_quantiles(quantiles)
    if not records:
        raise ValueError("no records to summarize")
    lengths = {len(r["trace"]["payoff"]) for r in records}
    if len(lengths) != 1:
        raise ValueError("records have unequal lengths")
    P = np.array([r["trace"]["payoff"] for r in records])
    out = {"t": list(range(1, P.shape[1] + 1)),
           "mean": [float(x) for x in P.mean(axis=0)]}
    for q in quantiles:
        out[f"q{int(round(q * 100))}"] = [nearest_rank(P[:, j], q)
                                          for j in range(P.shape[1])]
    if threshold is not None:
        finals = P[:, -1]
        out["success_rate"] = float(np.mean(finals >= threshold))
    return out


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_runs_csv(result: dict, path: str):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(COLUMNS)
        for rec in result["records"]:
            tr = rec["trace"]
            for j in range(len(tr["payoff"])):
                w.writerow([rec["run"], rec["seed"], j + 1,
                            _fmt(tr["payoff"][j]), _fmt(tr["penalty_mass"][j]),
                            _fmt(tr["sum_pos_local"][j]), _fmt(tr["lambda"][j])])


def write_summary_csv(result: dict, path: str):
    s = result["summary"]
    qcols = [k for k in s if k.startswith("q")]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "mean"] + qcols)
        for j, t in enumerate(s["t"]):
            w.writerow([t, _fmt(s["mean"][j])] + [_fmt(s[c][j]) for c in qcols])
        if "success_rate" in s:
            w.writerow(["success_rate", _fmt(s["success_rate"])]
                       + [""] * len(qcols))


def run_and_write(config: dict, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    result = run_experiment(config)
    write_runs_csv(result, os.path.join(out_dir, "runs.csv"))
    write_summary_csv(result, os.path.join(out_dir, "summary.csv"))
    return result
