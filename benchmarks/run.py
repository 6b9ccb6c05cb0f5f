"""phide's benchmark: one workload per call, timed end to end or per layer.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload exact_large --seed 1 --seconds 20 --trace 0

Workloads: exact_large, batch_mc, relax_certify (see README.md).  With
``--trace 0`` it reports set-up time, solve time, median op latency and
peak RSS; with ``--trace 1`` a separate traced process reports per-layer
figures.  The last line of standard output is one JSON object; its
``correct`` is false when a workload check fails or when the checks' own
self-test (``selftest.py``) does.

The library is imported from ``src/`` in a fresh process per workload, with
BLAS and OpenMP pinned to one thread.  Two extra processes only set up, so
``setup_s`` is the median of three set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import selftest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact_large", "batch_mc", "relax_certify")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PHIDE_SEED", None)  # would override every configured seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, out_dir: str, deadline: float,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "phide", "__init__.py")):
        print(f"no phide sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = os.path.join(ROOT, ".bench_out")
    out_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")

    try:
        setups = [] if args.trace else [
            spawn(args, out_dir, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = spawn(args, out_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.isdir(out_root) and not os.listdir(out_root):
            os.rmdir(out_root)

    metrics = result["metrics"]
    if setups:
        setup = metrics["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:36s} {m['value']:14.6g} {m['unit']}")
    checks_sound = all(bool(failures) == must_fail
                       for _, failures, must_fail in selftest.cases())
    print(json.dumps({"correct": result["correct"] and checks_sound,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
