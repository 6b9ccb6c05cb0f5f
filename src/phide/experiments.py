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
import warnings
from itertools import islice

import numpy as np

from .cfr import MODES, SCHEDULE_KINDS, TRACE_KEYS, CfrRun
from .core import random_policy, uniform_policy
from .errors import ConfigError
from .hiding import PenaltySchedule, PhRun
from .learners import KINDS
from .relaxation import RelaxationProblem, _rir_steps
from .zoo import (TradeCommSpec, build_matching_pennies, build_trade_comm,
                  random_game)

COLUMNS = ("run", "seed", "t", "expected_payoff_projected", "penalty_mass",
           "sum_pos_local_regret", "lambda_t")
# The most histories, R·n for R repeats of n histories, that one solver loop
# of a run stacks: its arrays, and so its memory, do not grow with the
# repeats beyond this.  Each repeat's trace is that of its seed alone, so
# the blocks do not change the output.
STACKED_HISTORIES = 1 << 16
ALGORITHMS = ("cfr", "ph", "rir")
GAMES = ("matching_pennies", "trade_comm", "random")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# A key's rule, ``rule(value, key)``, returns the value a run reads, or
# raises a ConfigError naming the key.
def _must(ok, what: str, read=lambda value: value):
    """The rule of a value that passes ``ok``, the test ``what`` states."""
    def rule(value, key):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return read(value)
    return rule


def _choice(allowed: tuple, listed: bool = True):
    def rule(value, key):
        if value not in allowed:
            tail = f"; allowed values: {', '.join(allowed)}" if listed else ""
            raise ConfigError(f"unknown {key} {value!r}{tail}")
        return value
    return rule


def _integer(minimum: int):
    """An integer, or a float of integer value, but not a bool."""
    whole = _must(lambda x: not isinstance(x, bool) and (
        isinstance(x, numbers.Integral)
        or isinstance(x, float) and x.is_integer()), "an integer", int)
    at_least = _must(lambda n: n >= minimum, f"at least {minimum}")
    return lambda value, key: at_least(whole(value, key), key)


POSITIVE = _must(lambda x: _is_number(x) and 0 < x < math.inf,
                 "a positive finite number", float)
NUMBER = _must(_is_number, "a number", float)
QUANTILES = _must(lambda qs: isinstance(qs, (list, tuple)) and all(
    _is_number(q) and 0 <= q <= 1 for q in qs), "a list of numbers in [0, 1]")
REQUIRED = object()  # no default: a missing key is an error
UNSET = object()  # passed only when given, so the callee's default holds

# key: (the algorithms that read it, its default, its rule), in the order
# keys are listed and checked; a dict default is one per reader.  A rule of
# None is checked later: the maps where the game is built, the game by GAME,
# whose readers are the games.  A table's first key names its reader.
CONFIG = {
    "algorithm": (ALGORITHMS, REQUIRED, _choice(ALGORITHMS)),
    "iterations": (ALGORITHMS, REQUIRED, _integer(1)),
    "repeats": (ALGORITHMS, 1, _integer(1)),
    "seed": (ALGORITHMS, 0, _integer(0)),
    "game": (ALGORITHMS, REQUIRED, None),
    "learner": (("cfr", "ph"), UNSET, _choice(KINDS)),
    "eta": (("cfr", "ph"), UNSET, POSITIVE),
    "randomize_init": (ALGORITHMS, UNSET,
                       _must(lambda x: isinstance(x, bool), "true or false")),
    "mode": (ALGORITHMS, UNSET, _choice(MODES)),  # rir: exact only
    "coarse_map": (ALGORITHMS, "original", None),
    "fine_map": (("ph", "rir"), "relaxed", None),
    "schedule": (("ph",), UNSET, _choice(SCHEDULE_KINDS)),
    "lambda": (("ph", "rir"), {"rir": 0.5},  # rir: above 0
               _must(lambda x: _is_number(x) and 0 <= x < math.inf,
                     "a finite number at least 0", float)),
    "target": (("ph",), UNSET, NUMBER),
    "factor": (("ph",), UNSET, POSITIVE),
    "quantiles": (ALGORITHMS, (0.1, 0.9), QUANTILES),
    "threshold": (ALGORITHMS, UNSET, NUMBER),
}
GAME = {
    "name": (GAMES, None, _choice(GAMES, listed=False)),  # None: no game
    "n": (("trade_comm",), UNSET, _integer(1)),
    "m": (("trade_comm",), UNSET, _integer(1)),
    "seed": (("random",), 0, _integer(0)),
}
# Keys that, when given, set a parameter of the solver loops or of PH's
# penalty schedule (key: parameter).
LOOP_KEYS = ("learner", "eta", "randomize_init", "mode")
SCHEDULE_KEYS = {"schedule": "kind", "lambda": "value", "target": "target",
                 "factor": "factor"}


def _resolve(record, table: dict, where: str, example: str) -> dict:
    """``record`` checked key by key, with its defaults and only the keys
    its reader reads; a UserWarning names the keys it does not read."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a record such as {example}, "
                          f"got {record!r}")
    for key in record:
        if key not in table:
            raise ConfigError(f"unknown {where} key {key!r}; known keys: "
                              f"{', '.join(table)}")
    out = {}
    for key, (_, default, rule) in table.items():
        if isinstance(default, dict):
            default = default.get(out[next(iter(table))], UNSET)
        value = record.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        if value is not UNSET:
            label = key if where == "config" else f"{where} {key}"
            out[key] = rule(value, label) if rule else value
    reader = out[next(iter(table))]
    unread = [key for key in record if reader not in table[key][0]]
    if unread:
        warnings.warn(f"{where} keys that {reader} does not read are "
                      f"ignored: {', '.join(map(repr, unread))}", stacklevel=4)
    return {k: v for k, v in out.items() if reader in table[k][0]}


def resolve(config) -> dict:
    """``config`` as a run reads it: checked by CONFIG, then its game by
    GAME, with the defaults, and with ``seed`` taken from PHIDE_SEED when
    that is set.  A ``rir`` config must be in exact mode with a ``lambda``
    above 0.  ConfigError is raised before any game is built."""
    out = _resolve(config, CONFIG, "config", '{"algorithm": "cfr", ...}')
    if "PHIDE_SEED" in os.environ:
        text = os.environ["PHIDE_SEED"]
        try:
            value = int(text)
        except ValueError:
            value = text
        out["seed"] = _integer(0)(value, "PHIDE_SEED")
    if out["algorithm"] == "rir" and out.get("mode") == "mc":
        raise ConfigError("rir runs in exact mode only, got mode 'mc'")
    if out["algorithm"] == "rir" and out["lambda"] == 0:
        raise ConfigError("lambda must be a positive finite number for rir, "
                          "got 0")
    out["game"] = _resolve(out["game"], GAME, "game", '{"name": "trade_comm"}')
    return out


def load_game(spec: dict):
    """(game, {map name: map}) of a game record that ``resolve`` checked."""
    if spec["name"] == "matching_pennies":
        return build_matching_pennies()
    if spec["name"] == "trade_comm":
        return build_trade_comm(TradeCommSpec(**{k: spec[k] for k in "nm"
                                                 if k in spec}))
    game, coarse, fine = random_game(spec["seed"])
    return game, {"coarse": coarse, "fine": fine}


def _traces(config, game, maps, seeds) -> list[dict]:
    """One trace per seed of a resolved ``config``: ``cfr`` and ``ph`` run
    the seeds in consecutive blocks, each block as the repeats of one
    solver loop of at most STACKED_HISTORIES histories in all; ``rir`` runs
    them one by one."""
    iters = config["iterations"]
    coarse = maps[config["coarse_map"]]
    loop = {key: config[key] for key in LOOP_KEYS if key in config}
    fine = maps.get(config.get("fine_map"))
    if config["algorithm"] == "rir":
        problem = RelaxationProblem(game, coarse, fine, config["lambda"])
        return [_rir_trace(problem, seed, config.get("randomize_init"),
                           iters) for seed in seeds]
    if config["algorithm"] == "ph":
        schedule = PenaltySchedule(horizon=iters, **{
            p: config[key] for key, p in SCHEDULE_KEYS.items() if key in config})
    block = max(1, STACKED_HISTORIES
                // (len(game.nature) * math.prod(game.stage_actions)))
    traces = []
    for k in range(0, len(seeds), block):
        if config["algorithm"] == "cfr":
            run = CfrRun(game, coarse, seed=seeds[k:k + block], **loop)
        else:
            run = PhRun(game, coarse, fine, schedule=schedule,
                        seed=seeds[k:k + block], keep_history=False, **loop)
        for _ in range(iters):
            run.iterate()
        traces += run.traces
    return traces


def _rir_trace(problem, seed, randomize: bool, iters):
    """The ``cfr.TRACE_KEYS`` trace of a ``rir`` run of ``problem``:
    ``payoff`` is the projection's payoff, ``payoff_mu`` the iterate's on
    the fine map and ``rho_mu`` the objective; ``sum_pos_local`` is NaN, as
    ``rir`` has no local learners."""
    t, game, fine = problem._t, problem.game, problem.fine
    mu = (random_policy(game, fine, np.random.default_rng(seed)) if randomize
          else uniform_policy(game, fine))
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
    of a run of its seed alone; ``rir`` runs them one after another.
    ``resolve`` checks the config first, by the table of keys CONFIG."""
    run = resolve(config)
    game, maps = load_game(run["game"])
    for key in ("coarse_map", "fine_map"):  # a rule of None: checked here
        if key in run and run[key] not in tuple(maps):
            raise ConfigError(f"unknown {key} {run[key]!r}; available maps: "
                              f"{', '.join(maps)}")
    seeds = [int(s) for s in
             np.random.SeedSequence(run["seed"]).generate_state(run["repeats"])]
    records = [{"run": k, "seed": seed, "trace": trace} for k, (seed, trace)
               in enumerate(zip(seeds, _traces(run, game, maps, seeds)))]
    summary = summarize(records, run["quantiles"], run.get("threshold"))
    return {"config": dict(config), "master_seed": run["seed"],
            "records": records, "summary": summary}


def nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(qN)-th smallest value."""
    s = np.sort(np.asarray(values, dtype=float))
    k = max(int(np.ceil(q * len(s))) - 1, 0)
    return float(s[min(k, len(s) - 1)])


def summarize(records, quantiles=(0.1, 0.9), threshold: float = None) -> dict:
    """The mean payoff and its ``quantiles`` per iteration over
    ``records``; quantiles outside [0, 1] raise ConfigError."""
    QUANTILES(quantiles, "quantiles")
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
