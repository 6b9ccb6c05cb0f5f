"""Self-test of the benchmark's correctness checks.

Feeds each check an input it must accept and one it must reject: a payoff
above the known optimum, a decreasing proximal trace, a summary mean that
does not match its runs, a certificate whose bound fails, and a recorded
payoff that a direct sum contradicts.  Needs neither numpy nor phide.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import sys

import checks

HEADER = "run,seed,t,expected_payoff_projected,penalty_mass,sum_pos_local_regret,lambda_t\n"


class _TinyGame:
    """Two equally likely nature values, one stage with two actions; the
    reward is 1 when the action matches the nature value."""
    nature = ((0,), (1,))
    nature_probs = (0.5, 0.5)
    num_stages = 1
    stage_actions = (2,)

    @staticmethod
    def reward_fn(w, acts):
        return (1.0 if acts[0] == w[0] else 0.0,)


class _SeeingPolicy:
    """Plays the matching action with probability 0.9."""

    @staticmethod
    def local(stage, w, acts):
        return (0.9, 0.1) if w[0] == 0 else (0.1, 0.9)


def _runs(*payoffs) -> str:
    return HEADER + "".join(f"0,1,{t},{p!r},0,0,0\n"
                            for t, p in enumerate(payoffs, 1))


def cases():
    """(description, failure messages, whether the check must fail)."""
    upper = 5 / 9
    good_rows = checks.parse_runs_csv(_runs(0.25, upper))
    yield ("payoffs within [0, optimum] pass",
           checks.payoffs_in_range("good", good_rows, upper), False)
    yield ("payoff above the optimum fails",
           checks.payoffs_in_range(
               "above", checks.parse_runs_csv(_runs(0.25, upper + 0.01)),
               upper), True)
    yield ("negative payoff fails",
           checks.payoffs_in_range(
               "negative", checks.parse_runs_csv(_runs(-0.01)), upper), True)

    yield ("non-decreasing trace passes",
           checks.non_decreasing("flat", [0.1, 0.2, 0.2, 0.3]), False)
    yield ("decreasing rir trace fails",
           checks.non_decreasing("down", [0.1, 0.2, 0.15, 0.3]), True)

    summary = "t,mean,q10,q90\n1,0.25,0.25,0.25\n2,0.5,0.5,0.5\n"
    rows = checks.parse_runs_csv(_runs(0.25, 0.5))
    yield ("matching summary mean passes",
           checks.summary_mean_matches("match", rows, summary), False)
    yield ("summary mean off by 1e-6 fails",
           checks.summary_mean_matches(
               "off", rows, summary.replace("2,0.5,", "2,0.500001,")), True)
    yield ("summary missing an iteration fails",
           checks.summary_mean_matches(
               "short", rows, "t,mean\n1,0.25\n"), True)

    report = {"rT_lower_bound": 0.01, "thm_bound_holds": True,
              "prop_bound_holds": True, "penalty_avg": 0.1}
    yield ("holding certificate passes",
           checks.certificate_holds("ok", report), False)
    yield ("certificate with a failed regret bound fails",
           checks.certificate_holds("thm", {**report, "thm_bound_holds": False}),
           True)
    yield ("certificate without a lower bound fails",
           checks.certificate_holds("none", {**report, "rT_lower_bound": None,
                                             "thm_bound_holds": None}), True)
    yield ("failed penalty-sizing bound fails",
           checks.penalty_bound_holds("prop", {**report,
                                               "prop_bound_holds": False}),
           True)

    value = checks.direct_payoff(_TinyGame, _SeeingPolicy)
    yield ("direct sum of the tiny game is 0.9",
           checks.values_equal("tiny", value, 0.9), False)
    yield ("recorded payoff off by 1e-6 fails",
           checks.values_equal("tiny", 0.9 + 1e-6, value, checks.PAYOFF_TOL),
           True)

    yield ("equal bytes pass", checks.same_bytes("eq", b"a,b\n", b"a,b\n"), False)
    yield ("unequal bytes fail", checks.same_bytes("ne", b"a,b\n", b"a,c\n"), True)


def main() -> int:
    bad = 0
    for what, failures, must_fail in cases():
        ok = bool(failures) == must_fail
        bad += not ok
        detail = failures[0] if failures else "no failure"
        print(f"{'ok  ' if ok else 'BAD '} {what}: {detail}")
    print(f"{bad} of the checks misbehaved" if bad else "all checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
