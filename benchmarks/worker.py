"""One workload in one process: set up, time whole rounds, check, report.

Started by ``run.py``, which owns the output directory.  Every time it
reports is CPU time of this process (``time.process_time``), which is single
threaded with BLAS pinned to one thread: on a shared host, time in which the
process waits for a CPU, or the hypervisor runs another guest, is left out.
Set-up time is the CPU time from the start of the process to the first
timed op.  The ``--seconds`` budget is wall time.  Prints one JSON object as
its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

# Per-layer metrics: (name, unit).  Times are seconds of one set-up plus the
# median round; counts likewise, except engine.cache_entries, which is read
# once, at the end of the first round.
PER_LAYER = (
    ("core.enumerate_s", "s"), ("core.label_calls", "count"),
    ("engine.build_s", "s"), ("engine.tables_built", "count"),
    ("engine.cache_entries", "count"),
    ("engine.pushforward_s", "s"), ("engine.pushforward_calls", "count"),
    ("engine.segment_sum_s", "s"), ("engine.label_mass_s", "s"),
    ("engine.histories", "count"),
    ("infomaps.project_s", "s"), ("infomaps.project_calls", "count"),
    ("learners.decide_s", "s"), ("learners.observe_s", "s"),
    ("learners.calls", "count"),
    ("cfr.iterate_self_s", "s"), ("cfr.counterfactual_s", "s"),
    ("hiding.iterate_self_s", "s"), ("hiding.regret_report_self_s", "s"),
    ("relaxation.proximal_step_s", "s"), ("relaxation.proximal_calls", "count"),
    ("relaxation.pushforwards_per_step", "ratio"),
    ("games.best_response_s", "s"), ("games.label_calls", "count"),
    ("experiments.run_self_s", "s"), ("experiments.write_csv_s", "s"),
    ("experiments.csv_bytes", "bytes"),
    ("traced.setup_s", "s"), ("traced.solve_s", "s"), ("traced.op_ms.p50", "ms"),
)
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("op_ms.p50", "ms"),
              ("peak_rss_mb", "MB"))


def _per_layer(setup: dict, rounds: list) -> dict:
    """Set-up amount plus the median per-round amount of every counter."""
    keys = set(setup).union(*rounds)
    return {k: setup.get(k, 0) + statistics.median(r.get(k, 0) for r in rounds)
            for k in keys}


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    import workloads
    from phide import engine

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    wl.setup()
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    at_setup = tracer.snapshot() if tracer else None

    op_s, round_s, per_round = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        before = tracer.snapshot() if tracer else None
        t_round = time.process_time()
        for op in wl.round(r):
            attempted += 1
            t_op = time.process_time()
            try:
                op()
            except Exception:  # one failed op is counted, not fatal
                failed += 1
                traceback.print_exc()
            op_s.append(time.process_time() - t_op)
        round_s.append(time.process_time() - t_round)
        if tracer:
            per_round.append(_diff(tracer.snapshot(), before))
        r += 1
        if r == 1:
            # Read after a fixed amount of work, set-up plus one round, so
            # that memory that grows per op does not grow with speed.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
            cache_entries = len(engine._cache)
        if time.perf_counter() - start >= args.seconds:
            break

    failures = wl.check()
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    solve_s = statistics.median(round_s)
    op_ms_p50 = 1e3 * statistics.median(op_s)
    if tracer:
        layer = _per_layer(_diff(at_setup, {}), per_round)
        calls = layer.get("relaxation.proximal_calls", 0)
        layer.update({
            "engine.cache_entries": cache_entries,
            "relaxation.pushforwards_per_step":
                layer.get("relaxation.pushforwards_in_step", 0) / calls
                if calls else 0.0,
            "traced.setup_s": setup_s, "traced.solve_s": solve_s,
            "traced.op_ms.p50": op_ms_p50})
        names = PER_LAYER
    else:
        layer = {"setup_s": setup_s, "solve_s": solve_s,
                 "op_ms.p50": op_ms_p50, "peak_rss_mb": peak_rss_mb}
        names = END_TO_END
    metrics = {name: {"value": layer.get(name, 0), "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
