"""Command line front end: run experiments, summarize run CSVs, verify the
library's key properties on built-in games.

The master seed comes from --seed, overridden by the PHIDE_SEED environment
variable when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from .errors import PhideError


def _read(path: str, parse):
    """``parse`` of the open file at ``path``; a PhideError naming the file
    when it cannot be read or parsed."""
    try:
        with open(path, newline="") as f:
            return parse(f)
    except OSError as e:
        raise PhideError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise PhideError(f"{path} is not valid JSON: {e}") from None
    except KeyError as e:
        raise PhideError(f"{path} has no column {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:  # a value missing or malformed
        raise PhideError(f"{path}: {e}") from None


def _cmd_run(args) -> int:
    from .experiments import run_and_write
    config = _read(args.config, json.load)
    if isinstance(config, dict):  # any other config is rejected by the run
        for key, value in (("seed", args.seed), ("repeats", args.repeats)):
            if value is not None:
                config[key] = value
    result = run_and_write(config, args.out)
    s = result["summary"]
    print(f"wrote {args.out}/runs.csv and {args.out}/summary.csv "
          f"({len(result['records'])} runs, master seed {result['master_seed']})")
    print(f"final mean payoff: {s['mean'][-1]:.6f}")
    if "success_rate" in s:
        print(f"success rate: {s['success_rate']:.4f}")
    return 0


def _cmd_summarize(args) -> int:
    from .experiments import summarize, write_summary_csv
    records = _read(args.runs, _payoff_records)
    try:
        summary = summarize(records, args.quantiles, threshold=args.threshold)
    except ValueError as e:  # no records, or runs of unequal lengths
        raise PhideError(f"{args.runs}: {e}") from None
    write_summary_csv({"summary": summary}, args.out)
    print(f"wrote {args.out} ({len(records)} runs)")
    if "success_rate" in summary:
        print(f"success rate: {summary['success_rate']:.4f}")
    return 0


def _payoff_records(f) -> list:
    """The records of a runs.csv file, holding the payoffs: all that
    ``summarize`` reads."""
    traces = {}
    for row in csv.DictReader(f):
        key = (int(row["run"]), int(row["seed"]))
        tr = traces.setdefault(key, {"payoff": []})
        tr["payoff"].append(float(row["expected_payoff_projected"]))
    return [{"run": k[0], "seed": k[1], "trace": tr}
            for k, tr in sorted(traces.items())]


_PACKAGE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _one_line_warnings(show):
    """A ``showwarning`` that shows a ``UserWarning`` raised for code of
    this package as one line, as the CLI's errors are shown, and passes any
    other warning to ``show``."""
    def shown(message, category, filename, lineno, file=None, line=None):
        if category is UserWarning and filename.startswith(_PACKAGE):
            print(f"phide: warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)
    return shown


def _check(name: str, ok: bool, failures: list):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def _cmd_verify(args) -> int:
    """Quick property suite on built-in games; exits nonzero on failure."""
    from .cfr import run_cfr
    from .core import random_policy
    from .engine import tables_for
    from .games import best_response_value
    from .hiding import PenaltySchedule, regret_report, run_ph
    from .infomaps import is_implementable, project
    from .relaxation import RelaxationProblem, rir_run
    from .zoo import build_matching_pennies, build_trade_comm, random_game

    failures = []
    rng = np.random.default_rng(0)

    ok = True
    for s in range(args.games):
        game, coarse, fine = random_game(s)
        base = random_policy(game, fine, rng)
        mu = random_policy(game, fine, rng)
        gam = project(game, coarse, fine, base, mu)
        ok &= is_implementable(game, coarse, gam)
        gam2 = project(game, coarse, fine, base, gam)
        ok &= all(np.allclose(gam.table[k], gam2.table[k], atol=1e-12)
                  for k in gam.table)
    _check(f"projector laws on {args.games} random games", ok, failures)

    g, m = build_matching_pennies()
    prob = RelaxationProblem(g, m["original"], m["relaxed"], 0.5)
    _, _, trace = rir_run(prob, random_policy(g, m["relaxed"], rng),
                          iterations=40)
    _check("penalized objective trace is non-decreasing",
           float(np.min(np.diff(trace))) >= -1e-9, failures)

    run = run_ph(g, m["original"], m["relaxed"], 200,
                 schedule=PenaltySchedule("constant", 0.5))
    rep = regret_report(run)
    _check("auxiliary-game regret bounded by local regrets",
           bool(rep["thm_bound_holds"]), failures)
    _check("average penalty mass within the sizing bound",
           bool(rep["prop_bound_holds"]), failures)

    _check("matching pennies optimal team value is 1.0",
           abs(best_response_value(g, m["original"], 0) - 1.0) < 1e-12,
           failures)

    g2, m2 = build_trade_comm()
    run = run_cfr(g2, m2["perfect_recall"], 2000,
                  learner="regret_matching_plus")
    v = tables_for(g2, m2["perfect_recall"]).expected_reward(
        run.average_policy())
    _check("exact solver reaches the trade_comm(2,2) optimum",
           abs(v - 1.0) < 0.01, failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phide",
        description="Finite games in product form: penalized learning with "
                    "information relaxations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a batch experiment from a JSON config")
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--out", required=True, help="output directory for CSVs")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("summarize", help="aggregate a runs.csv file")
    p.add_argument("--runs", required=True, help="path to runs.csv")
    p.add_argument("--out", required=True, help="output summary.csv path")
    p.add_argument("--quantiles", type=float, nargs="*", default=[0.1, 0.9])
    p.add_argument("--threshold", type=float, default=None,
                   help="success threshold on final payoff")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("verify", help="run the built-in property checks")
    p.add_argument("--games", type=int, default=50,
                   help="number of random games for the projector checks")
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores ``showwarning`` on exit
        warnings.showwarning = _one_line_warnings(warnings.showwarning)
        try:
            return args.fn(args)
        except PhideError as e:  # the user's to fix: no traceback
            print(f"phide: error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
