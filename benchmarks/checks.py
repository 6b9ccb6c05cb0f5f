"""Correctness checks for the benchmark's workloads.

Every check returns a list of failure messages; an empty list means the check
holds.  The checks recompute results apart from the library's engine, or test
a property the method must have.  None of them compares against saved output.
This module needs no third-party package, so its self-test runs anywhere.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

# Sums over histories taken in another order than the engine's dot product
# agree to far better than this.
PAYOFF_TOL = 1e-9
# Room for rounding when a payoff equals a known bound exactly.
BOUND_TOL = 1e-12
# The proximal method's objective never decreases; rounding may show as a
# step this small.
TRACE_TOL = 1e-9


def direct_payoff(game, policy, player: int = 0) -> float:
    """Expected reward of ``policy`` by plain summation over the product set.

    Walks every (nature value, action tuple) with nested Python loops and
    reads local vectors through ``policy.local`` and rewards through
    ``game.reward_fn``; it touches no engine table.  The product set equals
    the reachable set when each stage has a fixed action count.
    """
    total = 0.0
    ranges = [range(a) for a in game.stage_actions]
    for w, p_w in zip(game.nature, game.nature_probs):
        for acts in itertools.product(*ranges):
            prob = float(p_w)
            for i in range(game.num_stages):
                prob *= float(policy.local(i, w, acts)[acts[i]])
                if prob == 0.0:
                    break
            if prob != 0.0:
                total += prob * float(game.reward_fn(w, acts)[player])
    return total


def parse_runs_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def payoffs_in_range(name: str, rows, upper: float,
                     tol: float = BOUND_TOL) -> list:
    """Every projected payoff lies in [0, upper]; rewards are 0 or 1 and
    ``upper`` is the best value a policy on the original map can reach."""
    out = []
    for row in rows:
        p = float(row["expected_payoff_projected"])
        if not -tol <= p <= upper + tol:
            out.append(f"{name}: run {row['run']} t={row['t']} payoff {p!r} "
                       f"outside [0, {upper!r}]")
    return out


def summary_mean_matches(name: str, rows, summary_text: str,
                         tol: float = BOUND_TOL) -> list:
    """The per-iteration mean in summary.csv equals the mean of runs.csv."""
    by_t: dict = {}
    for row in rows:
        by_t.setdefault(row["t"], []).append(float(row["expected_payoff_projected"]))
    out = []
    seen = 0
    for srow in csv.DictReader(io.StringIO(summary_text)):
        if srow["t"] not in by_t:
            continue
        seen += 1
        vals = by_t[srow["t"]]
        mean = math.fsum(vals) / len(vals)
        if abs(float(srow["mean"]) - mean) > tol:
            out.append(f"{name}: t={srow['t']} summary mean {srow['mean']} "
                       f"!= recomputed {mean!r}")
    if seen != len(by_t):
        out.append(f"{name}: summary.csv covers {seen} of {len(by_t)} "
                   "iterations")
    return out


def same_bytes(name: str, a: bytes, b: bytes) -> list:
    if a == b:
        return []
    return [f"{name}: outputs differ ({len(a)} vs {len(b)} bytes)"]


def non_decreasing(name: str, trace, tol: float = TRACE_TOL) -> list:
    worst = min((b - a for a, b in zip(trace, trace[1:])), default=0.0)
    if worst >= -tol:
        return []
    return [f"{name}: trace decreases by {-worst!r} (tolerance {tol})"]


def penalty_bound_holds(name: str, report: dict) -> list:
    if report["prop_bound_holds"] is True:
        return []
    return [f"{name}: average penalty {report['penalty_avg']!r} exceeds "
            "the sum of local regrets plus twice the reward bound"]


def certificate_holds(name: str, report: dict) -> list:
    """The regret decomposition and penalty-sizing bounds of a report, with
    the enumerated lower bound actually computed."""
    out = []
    if report["rT_lower_bound"] is None:
        out.append(f"{name}: no enumerated regret lower bound")
    if report["thm_bound_holds"] is not True:
        out.append(f"{name}: regret lower bound exceeds the sum of local "
                   "regrets")
    return out + penalty_bound_holds(name, report)


def values_equal(name: str, a: float, b: float, tol: float = BOUND_TOL) -> list:
    if abs(a - b) <= tol:
        return []
    return [f"{name}: {a!r} != {b!r} (tolerance {tol})"]
