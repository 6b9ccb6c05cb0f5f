"""Declarative JSON game format.

One record per Nature state (value + weight), per stage (player + action
count), per information map (stage-indexed lists of revealed components),
and per legal history (reward vector).  Round-tripping preserves the
in-memory structure exactly up to float formatting of the text itself.
"""

from __future__ import annotations

import json

import numpy as np

from .core import InformationMap, ProductGame
from .engine import tables_for
from .errors import InvalidMap


def game_to_json(game: ProductGame, maps: dict = None) -> str:
    maps = maps or {}
    doc = {
        "name": game.name,
        "num_players": game.num_players,
        "nature": [
            {"value": list(w), "prob": float(p)}
            for w, p in zip(game.nature, game.probs())
        ],
        "stages": [
            {"player": int(p), "actions": int(a)}
            for p, a in zip(game.player_of_stage, game.stage_actions)
        ],
        "maps": {},
        "rewards": [],
    }
    for name, m in maps.items():
        if any(spec is None for spec in m.revealed):
            raise InvalidMap(
                f"map {name!r} is not declaratively revealed; cannot serialize"
            )
        doc["maps"][name] = [
            [[kind, idx] for kind, idx in spec] for spec in m.revealed
        ]
    t = tables_for(game)
    for h, r in zip(t.histories, t.rewards.tolist()):
        doc["rewards"].append(
            {"nature": list(h.nature), "actions": list(h.actions), "r": r})
    return json.dumps(doc, indent=1)


def game_from_json(text: str):
    doc = json.loads(text)
    nature = tuple(tuple(rec["value"]) for rec in doc["nature"])
    probs = tuple(rec["prob"] for rec in doc["nature"])
    players = tuple(rec["player"] for rec in doc["stages"])
    acts = tuple(rec["actions"] for rec in doc["stages"])
    rewards = {
        (tuple(rec["nature"]), tuple(rec["actions"])): tuple(rec["r"])
        for rec in doc["rewards"]
    }
    game = ProductGame(
        nature=nature,
        nature_probs=probs,
        player_of_stage=players,
        stage_actions=acts,
        reward_fn=lambda w, a: rewards[(w, tuple(a))],
        num_players=int(doc["num_players"]),
        name=doc.get("name", ""),
    )
    maps = {
        name: InformationMap(
            [[(kind, idx) for kind, idx in spec] for spec in stages], name=name
        )
        for name, stages in doc.get("maps", {}).items()
    }
    return game, maps


def games_equal(a: ProductGame, b: ProductGame) -> bool:
    """Structural equality of the in-memory representation."""
    if (a.nature != b.nature or a.player_of_stage != b.player_of_stage
            or a.stage_actions != b.stage_actions
            or a.num_players != b.num_players):
        return False
    if not np.allclose(a.probs(), b.probs(), rtol=0, atol=0):
        return False
    return np.array_equal(tables_for(a).rewards, tables_for(b).rewards)


def maps_equal(a: InformationMap, b: InformationMap) -> bool:
    return a.revealed == b.revealed and None not in a.revealed
