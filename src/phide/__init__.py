"""Finite games in product form: information maps, projections onto
implementable policies, no-regret solvers, and penalized learning under
information relaxations."""

from .core import (BehavioralPolicy, History, InformationMap, ProductGame,
                   enumerate_reachable, random_policy, uniform_policy)
from .errors import (BatchedRun, ConfigError, EnumerationTooLarge,
                     IllegalSupport, InvalidGame, InvalidMap,
                     InvalidRelaxation, InvalidSolver, PhideError,
                     WellPosednessViolation, ZeroReachLabel)
from .engine import Tables, tables_for
from .games import best_response_value, check_well_posed
from .infomaps import (has_perfect_recall, is_finer, is_implementable, project,
                       weighted_sq_distance)
from .learners import KINDS, LearnerBank
from .cfr import CfrRun, run_cfr
from .relaxation import RelaxationProblem, lagrangian, proximal_step, rir_run
from .hiding import PenaltySchedule, PhRun, regret_report, run_ph
from .zoo import (MatchingPenniesSpec, TradeCommSpec, build_matching_pennies,
                  build_trade_comm, random_game, trade_comm_optimal_value)
from .serialize import game_from_json, game_to_json, games_equal, maps_equal
from .experiments import run_experiment, summarize

__version__ = "0.1.0"

__all__ = [
    "BehavioralPolicy", "History", "InformationMap", "ProductGame",
    "enumerate_reachable", "random_policy", "uniform_policy",
    "PhideError", "WellPosednessViolation", "ZeroReachLabel",
    "EnumerationTooLarge", "IllegalSupport", "ConfigError", "BatchedRun",
    "InvalidGame", "InvalidMap", "InvalidRelaxation", "InvalidSolver",
    "Tables", "tables_for",
    "best_response_value", "check_well_posed",
    "has_perfect_recall", "is_finer", "is_implementable", "project",
    "weighted_sq_distance",
    "KINDS", "LearnerBank",
    "CfrRun", "run_cfr",
    "RelaxationProblem", "lagrangian", "proximal_step", "rir_run",
    "PenaltySchedule", "PhRun", "regret_report", "run_ph",
    "MatchingPenniesSpec", "TradeCommSpec", "build_matching_pennies",
    "build_trade_comm", "random_game", "trade_comm_optimal_value",
    "game_from_json", "game_to_json", "games_equal", "maps_equal",
    "run_experiment", "summarize",
]
