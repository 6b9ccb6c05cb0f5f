"""Reference figures: milliseconds per iteration of CFR and PH, exact and mc,
on the Trade Comm zoo games, plus Tables build time and one exhaustive best
response.  Prints a Markdown table for the README.

    python3 benchmarks/reference.py

Each cell is the median over three runs of (run time / iterations), runs
built after the game's Tables, with BLAS pinned to one thread.  PH runs go
from the original map to the perfect-recall map with the default penalty.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from phide import cfr, engine, games, hiding, zoo  # noqa: E402

GAMES = ((2, 2, 400), (3, 2, 400), (4, 2, 50), (4, 3, 50))
REPEATS = 3


def ms_per_iteration(make, iterations: int) -> float:
    samples = []
    for seed in range(REPEATS):
        run = make(seed)
        t0 = time.perf_counter()
        for _ in range(iterations):
            run.iterate()
        samples.append(1e3 * (time.perf_counter() - t0) / iterations)
    return statistics.median(samples)


def main():
    print("| workload | histories | Tables build, 2 maps (s) "
          "| cfr exact | cfr mc | ph exact | ph mc |")
    print("|---|---|---|---|---|---|---|")
    for n, m, iters in GAMES:
        game, maps = zoo.build_trade_comm(zoo.TradeCommSpec(n, m))
        coarse, fine = maps["original"], maps["perfect_recall"]
        t0 = time.perf_counter()
        tables = engine.tables_for(game, coarse, fine)
        build_s = time.perf_counter() - t0
        cells = []
        for mode in ("exact", "mc"):
            cells.append(ms_per_iteration(
                lambda s: cfr.CfrRun(game, coarse, seed=s, randomize_init=True,
                                     mode=mode), iters))
        for mode in ("exact", "mc"):
            cells.append(ms_per_iteration(
                lambda s: hiding.PhRun(game, coarse, fine, seed=s,
                                       randomize_init=True, mode=mode,
                                       keep_history=False), iters))
        print(f"| trade_comm({n},{m}), {iters} it | {len(tables.histories)} "
              f"| {build_s:.2f} | " + " | ".join(f"{c:.2f}" for c in cells)
              + " |", flush=True)
    game, maps = zoo.build_trade_comm(zoo.TradeCommSpec(2, 2))
    t0 = time.perf_counter()
    games.best_response_value(game, maps["original"], 0)
    print(f"\nbest_response_value on trade_comm(2,2) original: "
          f"{time.perf_counter() - t0:.2f} s")


if __name__ == "__main__":
    main()
