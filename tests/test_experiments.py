import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phide import experiments
from phide.cfr import TRACE_KEYS
from phide.cli import main
from phide.errors import ConfigError
from phide.experiments import (nearest_rank, run_and_write, run_experiment,
                               summarize, write_runs_csv, write_summary_csv)


BASE = dict(game={"name": "matching_pennies"}, algorithm="cfr", iterations=20,
            repeats=3, seed=5, randomize_init=True, coarse_map="original")


def test_reproducible_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_and_write(dict(BASE), str(d1))
    run_and_write(dict(BASE), str(d2))
    assert (d1 / "runs.csv").read_bytes() == (d2 / "runs.csv").read_bytes()
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()


def test_master_seed_changes_output(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_and_write(dict(BASE), str(d1))
    run_and_write({**BASE, "seed": 6}, str(d2))
    assert (d1 / "runs.csv").read_bytes() != (d2 / "runs.csv").read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("PHIDE_SEED", "123")
    run_and_write(dict(BASE), str(d1))
    monkeypatch.delenv("PHIDE_SEED")
    run_and_write({**BASE, "seed": 123}, str(d2))
    assert (d1 / "runs.csv").read_bytes() == (d2 / "runs.csv").read_bytes()


def test_reduction_wired_through_runner(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_and_write(dict(BASE), str(d1))
    run_and_write({**BASE, "algorithm": "ph", "fine_map": "original",
                   "lambda": 0.0}, str(d2))
    assert (d1 / "runs.csv").read_bytes() == (d2 / "runs.csv").read_bytes()


def test_all_algorithms_run():
    for algo in ("cfr", "ph", "rir"):
        cfg = {**BASE, "algorithm": algo, "repeats": 1, "iterations": 5,
               "fine_map": "relaxed", "lambda": 0.5}
        res = run_experiment(cfg)
        tr = res["records"][0]["trace"]
        assert tuple(tr) == TRACE_KEYS
        assert all(len(tr[k]) == 5 for k in TRACE_KEYS)
        assert all(0.0 <= p <= 1.0 for p in tr["payoff"])


def test_config_errors(monkeypatch):
    with pytest.raises(ConfigError):
        run_experiment({**BASE, "game": {"name": "chess"}})
    with pytest.raises(ConfigError):
        run_experiment({**BASE, "algorithm": "dqn"})
    with pytest.raises(ConfigError):
        run_experiment({k: v for k, v in BASE.items() if k != "algorithm"})
    # a typo, and the proximal-mode key, which selected nothing and is gone
    for key, value in (("lamda", 5), ("prox_mode", "coordinate_ascent")):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            run_experiment({**BASE, "algorithm": "ph", "fine_map": "relaxed",
                            key: value})
    with pytest.raises(ConfigError, match="unknown game key 'size'"):
        run_experiment({**BASE, "game": {"name": "trade_comm", "size": 3}})
    with pytest.raises(ConfigError, match="unknown coarse_map 'orignal'; "
                       "available maps: original, relaxed"):
        run_experiment({**BASE, "coarse_map": "orignal"})
    with pytest.raises(ConfigError, match="unknown fine_map 'relaxed'; "
                       "available maps: original, cheat, perfect_recall"):
        run_experiment({**BASE, "game": {"name": "trade_comm"},
                        "algorithm": "ph"})
    # integer settings are checked before the game is built: an unknown
    # game name would raise a different message
    chess = {**BASE, "game": {"name": "chess"}}
    for key, bad, msg in (("iterations", 0, "at least 1"),
                          ("iterations", -3, "at least 1"),
                          ("iterations", 2.5, "an integer"),
                          ("repeats", 0, "at least 1"),
                          ("seed", "five", "an integer"),
                          ("lambda", -1, "a finite number at least 0"),
                          ("lambda", "abc", "a finite number at least 0"),
                          ("lambda", float("inf"), "a finite number at"),
                          ("factor", -2.0, "a positive finite number"),
                          ("factor", 0.0, "a positive finite number"),
                          ("eta", -1.0, "a positive finite number"),
                          ("eta", 0.0, "a positive finite number"),
                          ("eta", float("inf"), "a positive finite number"),
                          ("quantiles", [1.5], "a list of numbers in"),
                          ("quantiles", 0.5, "a list of numbers in"),
                          ("threshold", "high", "a number"),
                          ("target", True, "a number")):
        with pytest.raises(ConfigError, match=f"^{key} must be {msg}"):
            run_experiment({**chess, key: bad})
    # so are values outside a fixed set, and the message lists the set
    for key, bad, allowed in (("algorithm", "dqn", "cfr, ph, rir"),
                              ("mode", "exactly", "exact, mc"),
                              ("learner", "sgd", "regret_matching, "),
                              ("schedule", "cosine", "constant, ramp, ")):
        with pytest.raises(ConfigError, match=f"^unknown {key} '{bad}'; "
                           f"allowed values: {allowed}"):
            run_experiment({**chess, key: bad})
    with pytest.raises(ConfigError, match="^missing config key 'algorithm'"):
        run_experiment({k: v for k, v in chess.items() if k != "algorithm"})
    monkeypatch.setenv("PHIDE_SEED", "abc")
    with pytest.raises(ConfigError, match="^PHIDE_SEED must be an integer"):
        run_experiment(chess)


def test_config_values_checked_before_the_game_is_built():
    # each bad value is named, ahead of the unknown game name "chess" or
    # ahead of the game's own build
    chess = {**BASE, "game": {"name": "chess"}}
    for over, msg in (
            ({"algorithm": "rir", "fine_map": "relaxed", "lambda": 0},
             "lambda must be a positive finite number for rir, got 0"),
            ({"randomize_init": "no"},
             "randomize_init must be true or false, got 'no'"),
            ({"game": "matching_pennies"}, "game must be a record"),
            ({"game": {"name": "trade_comm", "n": 0}},
             "game n must be at least 1, got 0"),
            ({"game": {"name": "trade_comm", "m": 0}},
             "game m must be at least 1, got 0"),
            ({"game": {"name": "trade_comm", "n": 2.5}},
             "game n must be an integer, got 2.5"),
            ({"game": {"name": "random", "seed": -1}},
             "game seed must be at least 0, got -1")):
        with pytest.raises(ConfigError, match=f"^{re.escape(msg)}"):
            run_experiment({**chess, **over})


def test_config_integers_are_not_bools_or_strings(monkeypatch):
    chess = {**BASE, "game": {"name": "chess"}}
    for key, bad in (("repeats", True), ("seed", False), ("iterations", "3"),
                     ("repeats", "2"), ("iterations", 2.5)):
        with pytest.raises(ConfigError, match=re.escape(
                f"{key} must be an integer, got {bad!r}")):
            run_experiment({**chess, key: bad})
    for bad in (True, "2"):
        with pytest.raises(ConfigError, match=re.escape(
                f"game n must be an integer, got {bad!r}")):
            run_experiment({**BASE, "game": {"name": "trade_comm", "n": bad}})
    # a float of integer value still counts, and PHIDE_SEED, a string in the
    # environment, is parsed
    assert len(run_experiment({**BASE, "iterations": 2.0})["summary"]["t"]) == 2
    monkeypatch.setenv("PHIDE_SEED", "17")
    assert run_experiment({**BASE, "iterations": 1})["master_seed"] == 17


def test_rir_rejects_mc_mode():
    config = {**BASE, "algorithm": "rir", "fine_map": "relaxed",
              "iterations": 2}
    with pytest.raises(ConfigError,
                       match="^rir runs in exact mode only, got mode 'mc'$"):
        run_experiment({**config, "mode": "mc",
                        "game": {"name": "chess"}})  # before the game
    assert len(run_experiment({**config, "mode": "exact"})["records"]) == 3


def test_cli_reports_a_typed_error_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BASE, "lamda": 5}))
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phide: error: unknown config key 'lamda'; ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_summarize_single_run():
    rec = [{"run": 0, "seed": 0,
            "trace": {"payoff": [0.2, 0.4], "penalty_mass": [0, 0],
                      "sum_pos_local": [0, 0], "lambda": [0, 0]}}]
    s = summarize(rec, quantiles=[0.1, 0.9])
    assert s["mean"] == [0.2, 0.4]
    assert s["q10"] == [0.2, 0.4]
    assert s["q90"] == [0.2, 0.4]


def test_summarize_constant_and_success():
    recs = []
    for k in range(100):
        final = 1.0 if k < 48 else 0.5
        recs.append({"run": k, "seed": k,
                     "trace": {"payoff": [1.0, final], "penalty_mass": [0, 0],
                               "sum_pos_local": [0, 0], "lambda": [0, 0]}})
    s = summarize(recs, quantiles=[0.1, 0.5, 0.9], threshold=0.95)
    assert s["mean"][0] == 1.0
    assert s["success_rate"] == 0.48
    assert s["q10"][1] <= s["q50"][1] <= s["q90"][1]
    with pytest.raises(ValueError):
        summarize([])


def test_nearest_rank():
    vals = np.array([3.0, 1.0, 2.0, 4.0])
    assert nearest_rank(vals, 0.25) == 1.0
    assert nearest_rank(vals, 0.5) == 2.0
    assert nearest_rank(vals, 1.0) == 4.0
    assert nearest_rank(vals, 0.0) == 1.0


def test_cli_run_and_summarize(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BASE, "threshold": 0.95}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "runs.csv").exists() and (out / "summary.csv").exists()
    captured = capsys.readouterr().out
    assert "final mean payoff" in captured

    # re-aggregating the runs file reproduces the summary rows
    out2 = tmp_path / "summary2.csv"
    assert main(["summarize", "--runs", str(out / "runs.csv"), "--out",
                 str(out2), "--threshold", "0.95"]) == 0
    a = (out / "summary.csv").read_text()
    b = out2.read_text()
    assert a == b


def test_cli_summarize_rejects_quantiles_outside_unit_interval(tmp_path,
                                                               capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BASE))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = tmp_path / "summary.csv"
    assert main(["summarize", "--runs", str(out / "runs.csv"), "--out",
                 str(summary), "--quantiles", "1.5", "-0.5"]) == 1
    err = capsys.readouterr().err
    assert err == ("phide: error: quantiles must be a list of numbers in "
                   "[0, 1], got [1.5, -0.5]\n")
    assert not summary.exists()
    with pytest.raises(ConfigError, match="^quantiles must be"):
        summarize([{"trace": {"payoff": [0.0]}}], quantiles=[math.nan])


def test_cli_verify(capsys):
    assert main(["verify", "--games", "5"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "all checks passed" in out


def test_rir_regret_column_is_not_applicable(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BASE, "algorithm": "rir",
                               "fine_map": "relaxed", "iterations": 4}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "runs.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(r.split(",")[5] == "nan" for r in rows)
    out2 = tmp_path / "summary2.csv"
    assert main(["summarize", "--runs", str(out / "runs.csv"),
                 "--out", str(out2)]) == 0
    assert out2.read_text() == (out / "summary.csv").read_text()


def test_rir_experiment_rows_follow_rir_run():
    # row k of the experiment is the projection rir_run returns after k - 1
    # rounds from the same start, bit for bit: the two share one loop.  So
    # is its iterate's payoff, and its objective is rir_run's trace
    from phide.core import random_policy
    from phide.relaxation import RelaxationProblem, rir_run
    from phide.zoo import build_trade_comm
    res = run_experiment({**BASE, "game": {"name": "trade_comm"},
                          "algorithm": "rir", "fine_map": "perfect_recall",
                          "lambda": 0.5, "iterations": 6, "repeats": 1})
    trace = res["records"][0]["trace"]
    payoff = trace["payoff"]
    game, maps = build_trade_comm()
    prob = RelaxationProblem(game, maps["original"], maps["perfect_recall"],
                             0.5)
    mu0 = random_policy(game, maps["perfect_recall"],
                        np.random.default_rng(res["records"][0]["seed"]))
    t = prob._t
    for k in range(1, len(payoff) + 1):
        mu, gam, _ = rir_run(prob, mu0, iterations=k - 1)
        assert payoff[k - 1] == t.expected_reward(gam)
        assert trace["payoff_mu"][k - 1] == t.expected_reward(mu)
    assert trace["rho_mu"] == rir_run(prob, mu0, len(payoff) - 1)[2]


def test_cli_seed_flag(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BASE))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg), "--out", str(o1), "--seed", "99"])
    main(["run", "--config", str(cfg), "--out", str(o2), "--seed", "99"])
    assert (o1 / "runs.csv").read_bytes() == (o2 / "runs.csv").read_bytes()


def test_runs_csv_columns(tmp_path):
    res = run_experiment(dict(BASE))
    path = tmp_path / "runs.csv"
    write_runs_csv(res, str(path))
    header = path.read_text().splitlines()[0]
    assert header == ("run,seed,t,expected_payoff_projected,penalty_mass,"
                      "sum_pos_local_regret,lambda_t")
    assert len(path.read_text().splitlines()) == 1 + 3 * 20


# game name -> (game record, coarse map, fine maps)
BATCH_GAMES = {
    "matching_pennies": ({"name": "matching_pennies"}, "original",
                         ("relaxed",)),
    "trade_comm": ({"name": "trade_comm", "n": 2, "m": 2}, "original",
                   ("perfect_recall", "cheat")),
}


@st.composite
def batch_configs(draw):
    name = draw(st.sampled_from(["random", *BATCH_GAMES]))
    if name == "random":
        spec = {"name": "random", "seed": draw(st.integers(0, 499))}
        # swapped, the learners' map is the coarser one: it does not refine
        coarse, fine = draw(st.permutations(["coarse", "fine"]))
    else:
        spec, coarse, fines = BATCH_GAMES[name]
        fine = draw(st.sampled_from(fines))
    return {"game": spec, "coarse_map": coarse, "fine_map": fine,
            "algorithm": draw(st.sampled_from(["cfr", "ph"])),
            "mode": draw(st.sampled_from(["exact", "mc"])),
            "learner": draw(st.sampled_from(
                ["regret_matching", "regret_matching_plus", "ftrl_entropic"])),
            "schedule": draw(st.sampled_from(["constant", "ramp",
                                              "controller"])),
            "lambda": draw(st.sampled_from([0.05, 0.7, 2.0])),
            "target": 0.5, "factor": 1.3,
            "randomize_init": draw(st.booleans()),
            "repeats": draw(st.sampled_from([2, 3])),
            "seed": draw(st.integers(0, 2 ** 32 - 1)),
            "iterations": 6, "threshold": 0.5}


def single_run_result(config, seeds):
    """run_experiment's result from one R = 1 run per seed."""
    config = experiments.resolve(config)
    game, maps = experiments.load_game(config["game"])
    records = [{"run": k, "seed": seed,
                "trace": experiments._traces(config, game, maps, [seed])[0]}
               for k, seed in enumerate(seeds)]
    return {"records": records,
            "summary": summarize(records, threshold=config["threshold"])}


@settings(max_examples=40, deadline=None)
@given(config=batch_configs())
@example(config={"game": BATCH_GAMES["trade_comm"][0],
                 "coarse_map": "original", "fine_map": "cheat",
                 "algorithm": "ph", "mode": "mc", "learner": "regret_matching",
                 "schedule": "controller", "lambda": 0.7, "target": 0.5,
                 "factor": 1.3, "randomize_init": True, "repeats": 3,
                 "seed": 7, "iterations": 6, "threshold": 0.5})
def test_batched_repeats_write_the_bytes_of_single_runs(config):
    # the repeats of one solver loop write, byte for byte, the files of one
    # run per seed
    with tempfile.TemporaryDirectory() as d:
        batched = run_and_write(config, os.path.join(d, "batched"))
        single = single_run_result(config,
                                   [r["seed"] for r in batched["records"]])
        os.makedirs(os.path.join(d, "single"))
        for name, write in (("runs.csv", write_runs_csv),
                            ("summary.csv", write_summary_csv)):
            write(single, os.path.join(d, "single", name))
            with open(os.path.join(d, "batched", name), "rb") as f:
                got = f.read()
            with open(os.path.join(d, "single", name), "rb") as f:
                assert got == f.read(), name


def test_keys_the_run_does_not_read_warn_and_change_nothing():
    for over, dropped, msg in (
            ({"schedule": "controller", "lambda": 3, "fine_map": "relaxed"},
             {}, "config keys that cfr does not read are ignored: "
                 "'schedule', 'lambda', 'fine_map'"),
            ({"learner": "ftrl_entropic", "eta": 0.5}, {"algorithm": "rir"},
             "config keys that rir does not read are ignored: 'learner', "
             "'eta'"),
            ({"game": {"name": "matching_pennies", "n": 7}}, {},
             "game keys that matching_pennies does not read are ignored: "
             "'n'")):
        config = {**BASE, "iterations": 3, **dropped}
        with pytest.warns(UserWarning) as caught:
            result = run_experiment({**config, **over})
        assert [str(w.message) for w in caught
                if w.category is UserWarning] == [msg]
        assert result["summary"] == run_experiment(config)["summary"]


# The config shapes of the batch_mc benchmark workload, of acceptance
# criterion 6 and of demo 06, with fewer iterations and repeats
SHAPES = (
    *({"game": {"name": "trade_comm", "n": 3, "m": 2}, "iterations": 2,
       "repeats": 2, "randomize_init": True, "mode": "mc",
       "learner": "regret_matching_plus", "coarse_map": "original",
       "seed": 3, **kind}
      for kind in ({"algorithm": "cfr"},
                   {"algorithm": "ph", "fine_map": "perfect_recall",
                    "schedule": "ramp", "lambda": 2.0},
                   {"algorithm": "ph", "fine_map": "cheat",
                    "schedule": "ramp", "lambda": 2.0})),
    *({"game": {"name": "matching_pennies"}, "iterations": 2, "repeats": 2,
       "randomize_init": True, "seed": 2024, "mode": "mc",
       "learner": "regret_matching", "coarse_map": "original",
       "threshold": 0.95, **kind}
      for kind in ({"algorithm": "cfr"},
                   {"algorithm": "ph", "fine_map": "relaxed",
                    "lambda": 0.05})),
    {"game": {"name": "matching_pennies"}, "algorithm": "ph",
     "coarse_map": "original", "fine_map": "relaxed", "lambda": 0.05,
     "learner": "regret_matching", "iterations": 2, "repeats": 2,
     "randomize_init": True, "seed": 2024, "threshold": 0.95})


@pytest.mark.parametrize("config", SHAPES)
def test_configs_in_use_read_every_key(config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert set(experiments.resolve(config)) >= set(config)
        run_experiment(config)


def test_config_that_is_not_a_record_is_rejected():
    for bad in ([1, 2], "cfr", None):
        with pytest.raises(ConfigError, match=re.escape(
                f"config must be a record such as {{\"algorithm\": \"cfr\", "
                f"...}}, got {bad!r}")):
            run_experiment(bad)


@pytest.mark.parametrize("command, name, text, problem", (
    ("run --config", "c.json", '{"algorithm": ', "{path} is not valid JSON"),
    ("run --config", "c.json", None,
     "cannot read {path}: No such file or directory"),
    ("run --seed 3 --config", "c.json", "[1, 2]",
     "config must be a record such as"),
    ("summarize --runs", "runs.csv", ",".join(experiments.COLUMNS) + "\n",
     "{path}: no records to summarize"),
    ("summarize --runs", "runs.csv", "run,seed,t,payoff\n0,0,1,0.5\n",
     "{path} has no column 'expected_payoff_projected'"),
    ("summarize --runs", "runs.csv",
     "run,seed,t,expected_payoff_projected\n0,0,1\n", "{path}: float()"),
    ("summarize --runs", "runs.csv", None,
     "cannot read {path}: No such file or directory")))
def test_cli_input_errors_print_one_line(tmp_path, capsys, command, name,
                                         text, problem):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main([*command.split(), str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"phide: error: {problem.format(path=path)}")
    assert err.count("\n") == 1
