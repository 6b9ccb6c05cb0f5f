"""Per-layer tracing of the library from outside it.

``install()`` wraps public functions and methods of each ``phide`` module in
place, in every module namespace that imported them, so the library itself
is unchanged.  Each wrapped call is a span: its inclusive time counts once
for the outermost call of a span name, and its self time is its duration
minus the time of the traced spans it called.  ``InformationMap.label`` is
only counted, since the set-up probe calls it millions of times.

Times are CPU seconds of the process, like the end-to-end metrics.  Totals
accumulate in memory; ``snapshot()`` copies them so the caller can
split them into set-up and per-round amounts.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import process_time

# (module, attribute path, span name, call counter or None)
SPANS = (
    ("phide.core", "enumerate_reachable", "core.enumerate", None),
    ("phide.engine", "Tables.__init__", "engine.build", "engine.tables_built"),
    ("phide.engine", "Tables.add_map", "engine.build", None),
    ("phide.engine", "Tables.pushforward", "engine.pushforward",
     "engine.pushforward_calls"),
    ("phide.engine", "Tables.segment_sum", "engine.segment_sum", None),
    ("phide.engine", "Tables.label_mass", "engine.label_mass", None),
    ("phide.infomaps", "project_matrices", "infomaps.project",
     "infomaps.project_calls"),
    ("phide.learners", "LearnerBank.decide", "learners.decide",
     "learners.calls"),
    ("phide.learners", "LearnerBank.observe", "learners.observe",
     "learners.calls"),
    ("phide.cfr", "CfrRun.iterate", "cfr.iterate", None),
    ("phide.cfr", "counterfactual_matrix", "cfr.counterfactual", None),
    ("phide.hiding", "PhRun.iterate", "hiding.iterate", None),
    ("phide.hiding", "regret_report", "hiding.regret_report", None),
    ("phide.relaxation", "proximal_step", "relaxation.proximal_step",
     "relaxation.proximal_calls"),
    ("phide.games", "best_response_value", "games.best_response", None),
    ("phide.experiments", "run_experiment", "experiments.run", None),
    ("phide.experiments", "write_runs_csv", "experiments.write_csv", None),
    ("phide.experiments", "write_summary_csv", "experiments.write_csv", None),
)


class Tracer:
    def __init__(self):
        self.incl = Counter()     # span -> inclusive seconds, outermost calls
        self.self_s = Counter()   # span -> seconds minus traced children
        self.counts = Counter()   # counter -> events
        self.active = Counter()   # span -> open calls
        self.stack = []           # per open span: seconds of its children

    def wrap(self, fn, span: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer.active[span] == 0
            tracer.active[span] += 1
            children = [0.0]
            tracer.stack.append(children)
            t0 = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = process_time() - t0
                tracer.stack.pop()
                tracer.active[span] -= 1
                if counter:
                    tracer.counts[counter] += 1
                if outermost:
                    tracer.incl[span] += dt
                tracer.self_s[span] += dt - children[0]
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                tracer._after(span, args)

        return wrapper

    def _after(self, span: str, args):
        if span == "engine.pushforward":
            self.counts["engine.histories"] += len(args[0].nature_idx)
            if self.active["relaxation.proximal_step"]:
                self.counts["relaxation.pushforwards_in_step"] += 1
        elif span == "experiments.write_csv":
            self.counts["experiments.csv_bytes"] += os.path.getsize(args[1])

    def wrap_label(self, fn):
        counts, active = self.counts, self.active

        @functools.wraps(fn)
        def label(self, stage, nature, actions):
            if active["games.best_response"]:
                counts["games.label_calls"] += 1
            else:
                counts["core.label_calls"] += 1
            return fn(self, stage, nature, actions)

        return label

    def snapshot(self) -> dict:
        out = {f"{k}_s": v for k, v in self.incl.items()}
        out.update({f"{k}_self_s": v for k, v in self.self_s.items()})
        out.update(self.counts)
        return out


def _replace_everywhere(original, replacement):
    """Point every ``phide`` module attribute bound to ``original`` at
    ``replacement``; covers names imported with ``from .x import f``."""
    for name, mod in list(sys.modules.items()):
        if name != "phide" and not name.startswith("phide."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install() -> Tracer:
    """Wrap the traced functions of every layer; returns the live tracer."""
    import importlib

    import phide  # noqa: F401  (imports every submodule)
    from phide.core import InformationMap

    tracer = Tracer()
    for mod_name, path, span, counter in SPANS:
        mod = importlib.import_module(mod_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span, counter)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    InformationMap.label = tracer.wrap_label(InformationMap.label)
    return tracer
