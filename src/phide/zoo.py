"""Built-in benchmark games and a seeded random-game generator."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import InformationMap, ProductGame


@dataclass(frozen=True)
class MatchingPenniesSpec:
    payoff_match: float = 1.0
    payoff_mismatch: float = 0.0
    payoff_pass: float = 0.6

    def __post_init__(self):
        if not self.payoff_mismatch < self.payoff_pass < self.payoff_match:
            raise ValueError("need payoff_mismatch < payoff_pass < payoff_match")


@dataclass(frozen=True)
class TradeCommSpec:
    n: int = 2
    m: int = 2

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("item and message counts must be >= 1")


def build_matching_pennies(spec: MatchingPenniesSpec = None):
    """Cooperative matching pennies: Nature draws SAME/DIFFERENT, Alice (sees
    Nature) plays H/T, Bob (sees only Alice's coin) plays H/T/PASS.

    Returns the game and maps {"original", "relaxed"}; the relaxed map also
    shows Bob the Nature draw, which gives the team perfect recall.
    """
    spec = spec or MatchingPenniesSpec()

    def reward(nature, actions):
        a, b = actions
        if b == 2:
            return (spec.payoff_pass,)
        same = nature[0] == 0
        hit = (a == b) if same else (a != b)
        return (spec.payoff_match if hit else spec.payoff_mismatch,)

    game = ProductGame(
        nature=((0,), (1,)),
        nature_probs=(0.5, 0.5),
        player_of_stage=(0, 0),
        stage_actions=(2, 3),
        reward_fn=reward,
        num_players=1,
        name="matching_pennies",
    )
    original = InformationMap(
        [[("nature", 0)], [("action", 0)]], name="original")
    relaxed = InformationMap(
        [[("nature", 0)], [("nature", 0), ("action", 0)]], name="relaxed")
    return game, {"original": original, "relaxed": relaxed}


def build_trade_comm(spec: TradeCommSpec = None):
    """Trade Comm in product form: two agents folded into one team player.

    Nature deals items (s1, s2); the stages are message 1, message 2, trade
    request 1, trade request 2.  Trade request actions encode the pair
    (give, want) as ``give * n + want``.  A trade pays off only if both
    requests match the dealt items exactly.
    """
    spec = spec or TradeCommSpec()
    n, m = spec.n, spec.m
    omega = tuple(product(range(n), range(n)))

    def reward(nature, actions):
        s1, s2 = nature
        d1 = divmod(actions[2], n)
        d2 = divmod(actions[3], n)
        ok = d1 == (s1, s2) and d2 == (s2, s1)
        return (1.0 if ok else 0.0,)

    game = ProductGame(
        nature=omega,
        nature_probs=tuple([1.0 / (n * n)] * (n * n)),
        player_of_stage=(0, 0, 0, 0),
        stage_actions=(m, m, n * n, n * n),
        reward_fn=reward,
        num_players=1,
        name=f"trade_comm_{n}_{m}",
    )
    original = InformationMap(
        [
            [("nature", 0)],
            [("nature", 1)],
            [("nature", 0), ("action", 0), ("action", 1)],
            [("nature", 1), ("action", 1), ("action", 0)],
        ],
        name="original",
    )
    cheat = InformationMap(
        [
            [("nature", 0), ("nature", 1)],
            [("nature", 1), ("nature", 0)],
            [("nature", 0), ("nature", 1), ("action", 1)],
            [("nature", 1), ("nature", 0), ("action", 0)],
        ],
        name="cheat",
    )
    perfect_recall = InformationMap(
        [
            [("nature", 0)],
            [("nature", 0), ("nature", 1), ("action", 0)],
            [("nature", 0), ("nature", 1), ("action", 0), ("action", 1)],
            [("nature", 0), ("nature", 1), ("action", 0), ("action", 1),
             ("action", 2)],
        ],
        name="perfect_recall",
    )
    return game, {"original": original, "cheat": cheat,
                  "perfect_recall": perfect_recall}


def trade_comm_optimal_value(n: int, m: int) -> float:
    """Exact optimal team value of Trade Comm by exhaustive search.

    Enumerates deterministic message policies and agent 1's full decode
    table; agent 2's decode is then optimized label by label, which is exact
    because a pair pays off only when the label's chosen item matches.
    """
    best = 0
    items = range(n)
    for m1 in product(range(m), repeat=n):
        for m2 in product(range(m), repeat=n):
            # decode1[(s1, v)] = guess of s2 when message 2 equals v
            for decode1 in product(items, repeat=n * m):
                a = {
                    (s1, v): decode1[s1 * m + v]
                    for s1 in items for v in range(m)
                }
                hits1 = {
                    (s1, s2): a[(s1, m2[s2])] == s2
                    for s1 in items for s2 in items
                }
                total = 0
                for s2 in items:
                    for v in range(m):
                        if any(
                            m1[s1] == v and hits1[(s1, s2)] for s1 in items
                        ):
                            total += 1
                if total > best:
                    best = total
    return best / (n * n)


def random_game(seed: int, max_nature: int = 4, max_stages: int = 4,
                max_actions: int = 3, reach_cap: int = 10_000):
    """Seeded random team game plus a (coarse, fine) map pair with the fine
    map refining the coarse one by construction."""
    rng = np.random.default_rng(seed)
    n_nat = int(rng.integers(2, max_nature + 1))
    L = int(rng.integers(1, max_stages + 1))
    acts = [int(a) for a in rng.integers(1, max_actions + 1, size=L)]
    while np.prod(acts) * n_nat > reach_cap:
        acts[int(rng.integers(0, L))] = 1
    probs = rng.random(n_nat) + 0.1
    probs = probs / probs.sum()
    nature = tuple((k,) for k in range(n_nat))

    rewards = {}
    for w in nature:
        for a in product(*[range(k) for k in acts]):
            rewards[(w, a)] = float(rng.uniform(-1.0, 1.0))

    game = ProductGame(
        nature=nature,
        nature_probs=tuple(probs),
        player_of_stage=tuple([0] * L),
        stage_actions=tuple(acts),
        reward_fn=lambda w, a: (rewards[(w, a)],),
        num_players=1,
        name=f"random_{seed}",
    )

    fine_tabs, coarse_tabs = [], []
    for i in range(L):
        keys = [
            (w, pre)
            for w in nature
            for pre in product(*[range(k) for k in acts[:i]])
        ]
        n_fine = int(rng.integers(1, min(len(keys), 6) + 1))
        fine_ids = rng.integers(0, n_fine, size=len(keys))
        n_coarse = int(rng.integers(1, n_fine + 1))
        merge = rng.integers(0, n_coarse, size=n_fine)
        fine_tabs.append({k: int(f) for k, f in zip(keys, fine_ids)})
        coarse_tabs.append({k: int(merge[f]) for k, f in zip(keys, fine_ids)})
    fine = InformationMap.from_tables(fine_tabs, name=f"fine_{seed}")
    coarse = InformationMap.from_tables(coarse_tabs, name=f"coarse_{seed}")
    return game, coarse, fine
