"""Scenario files: JSON descriptions of an instance plus a run configuration.

Numbers may be written as rational strings ("3/2"), integers, or decimals;
decimals are converted exactly, so "0.25" means exactly 1/4.  Unknown fields
are rejected rather than ignored, which catches typos in option names.

Three scenarios are built in (the worked three-player setup with strictly
decreasing types and equal initial stakes):

* ``example1-myopic``:    winner-take-all type-favoring policy, myopic play;
* ``example2-lookahead``: the same policy with planning players;
* ``example3-muell``:     the lookahead-simulating policy with myopic play.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Collection, Dict, Optional

from .core import (
    AffineValue,
    IdentityValue,
    Instance,
    Player,
    TableValue,
    ValueFunction,
    scalar,
)
from .measures import validate_instance
from .policies import FixedWinner, MuAll, MuAlpha, MuEll, MuStar, Policy


class ScenarioError(ValueError):
    """A scenario file that does not conform to the schema."""


@dataclass(frozen=True)
class Scenario:
    name: str
    instance: Instance
    policy: Policy
    behavior: str
    rounds: int
    mode: str
    seed: Optional[int]
    horizon_cap: int


def _require(mapping: Dict[str, Any], allowed: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"{context}: unknown field(s) {sorted(unknown)}")


# What int() and scalar() raise on malformed input ("a", "1/0", null, ...).
_CONVERSION_ERRORS = (ValueError, TypeError, ZeroDivisionError, OverflowError)


def _number(value: Any, context: str) -> Fraction:
    try:
        return scalar(value)
    except _CONVERSION_ERRORS:
        raise ScenarioError(f"{context}: not a number: {value!r}") from None


def _integer(value: Any, context: str) -> int:
    try:
        n = int(value)
    except _CONVERSION_ERRORS:
        n = None
    # int() truncates numbers (2.5 -> 2); only integral ones are integers here
    if n is None or (not isinstance(value, str) and n != value):
        raise ScenarioError(f"{context}: not an integer: {value!r}")
    return n


def _unit_interval(value: Any, context: str) -> Fraction:
    x = _number(value, context)
    if not 0 <= x <= 1:
        raise ScenarioError(f"{context}: must lie in [0, 1], got {x}")
    return x


def _open_unit_interval(value: Any, context: str) -> Fraction:
    x = _number(value, context)
    if not 0 < x < 1:
        raise ScenarioError(f"{context}: must lie in (0, 1), got {x}")
    return x


def _at_least_one(value: Any, context: str) -> int:
    """An integer >= 1: a round count or a horizon cap."""
    n = _integer(value, context)
    if n < 1:
        raise ScenarioError(f"{context}: must be >= 1, got {n}")
    return n


def _policy_from_dict(spec: Dict[str, Any], ids: Collection[int]) -> Policy:
    """Parse and validate a policy; ``ids`` are the scenario's player ids."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError("policy: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "mu_alpha":
        _require(spec, {"kind", "alpha"}, "policy mu_alpha")
        if "alpha" not in spec:
            raise ScenarioError("policy mu_alpha: missing 'alpha'")
        return MuAlpha(alpha=_unit_interval(spec["alpha"], "policy mu_alpha: alpha"))
    if kind == "mu_star":
        _require(spec, {"kind", "epsilon"}, "policy mu_star")
        return MuStar(epsilon=_unit_interval(spec.get("epsilon", 0), "policy mu_star: epsilon"))
    if kind == "mu_all":
        _require(spec, {"kind"}, "policy mu_all")
        return MuAll()
    if kind == "mu_ell":
        _require(spec, {"kind"}, "policy mu_ell")
        return MuEll()
    if kind == "fixed_winner":
        _require(spec, {"kind", "winner"}, "policy fixed_winner")
        if "winner" not in spec:
            raise ScenarioError("policy fixed_winner: missing 'winner'")
        winner = _integer(spec["winner"], "policy fixed_winner: winner")
        if winner not in ids:
            raise ScenarioError(f"policy fixed_winner: winner {winner} is not a player id")
        return FixedWinner(winner=winner)
    raise ScenarioError(f"policy: unknown kind {kind!r}")


def _value_from_dict(spec: Dict[str, Any]) -> ValueFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError("value_function: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "identity":
        _require(spec, {"kind"}, "value_function identity")
        return IdentityValue()
    if kind == "affine":
        _require(spec, {"kind", "slope", "intercept"}, "value_function affine")
        for key in ("slope", "intercept"):
            if key not in spec:
                raise ScenarioError(f"value_function affine: missing {key!r}")
        return AffineValue(
            slope=_number(spec["slope"], "value_function affine: slope"),
            intercept=_number(spec["intercept"], "value_function affine: intercept"),
        )
    if kind == "table":
        _require(spec, {"kind", "values"}, "value_function table")
        values = spec.get("values")
        if not isinstance(values, dict):
            raise ScenarioError("value_function table: 'values' must map level -> value")
        return TableValue.from_mapping({
            _integer(k, "value_function table: level"):
                _number(v, f"value_function table: value of level {k}")
            for k, v in values.items()
        })
    raise ScenarioError(f"value_function: unknown kind {kind!r}")


def _value_to_dict(vf: ValueFunction) -> Dict[str, Any]:
    if isinstance(vf, IdentityValue):
        return {"kind": "identity"}
    if isinstance(vf, AffineValue):
        return {
            "kind": "affine",
            "slope": str(vf.slope),
            "intercept": str(vf.intercept),
        }
    if isinstance(vf, TableValue):
        return {
            "kind": "table",
            "values": {str(level): str(v) for level, v in vf.table},
        }
    raise ScenarioError(f"unknown value function {vf!r}")


_TOP_FIELDS = {
    "name",
    "players",
    "policy",
    "behavior",
    "tau_threshold",
    "value_function",
    "budget",
    "rounds",
    "mode",
    "seed",
    "horizon_cap",
}


def parse_scenario(data: Dict[str, Any], name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("top level must be an object")
    _require(data, _TOP_FIELDS, "scenario")
    for key in ("players", "policy", "budget", "tau_threshold", "rounds"):
        if key not in data:
            raise ScenarioError(f"scenario: missing required field {key!r}")

    players = []
    stakes = {}
    if not isinstance(data["players"], list) or not data["players"]:
        raise ScenarioError("players: expected a non-empty list")
    for idx, entry in enumerate(data["players"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"players[{idx}]: expected an object")
        _require(entry, {"id", "type", "stake", "cost"}, f"players[{idx}]")
        for key in ("id", "type", "stake"):
            if key not in entry:
                raise ScenarioError(f"players[{idx}]: missing {key!r}")
        context = f"players[{idx}]"
        pid = _integer(entry["id"], f"{context}: id")
        players.append(Player(
            id=pid,
            type_=_number(entry["type"], f"{context}: type"),
            cost=_number(entry.get("cost", 0), f"{context}: cost"),
        ))
        stakes[pid] = _number(entry["stake"], f"{context}: stake")

    behavior = data.get("behavior", "myopic")
    if behavior not in ("myopic", "lookahead"):
        raise ScenarioError(f"behavior: expected 'myopic' or 'lookahead', got {behavior!r}")
    mode = data.get("mode", "expected")
    if mode not in ("expected", "sampled"):
        raise ScenarioError(f"mode: expected 'expected' or 'sampled', got {mode!r}")
    seed = data.get("seed")
    if mode == "sampled" and seed is None:
        raise ScenarioError("mode 'sampled' requires a seed")
    if seed is not None:
        seed = _integer(seed, "seed")
    rounds = _at_least_one(data["rounds"], "rounds")

    vf_spec = data.get("value_function", {"kind": "identity"})
    instance = Instance.build(
        players=players,
        initial_stakes=stakes,
        budget=_number(data["budget"], "budget"),
        tau_threshold=_number(data["tau_threshold"], "tau_threshold"),
        value_function=_value_from_dict(vf_spec),
    )
    report = validate_instance(instance)
    if not report.ok:
        raise ScenarioError("invalid instance: " + "; ".join(report.errors))

    return Scenario(
        name=str(data.get("name", name)),
        instance=instance,
        policy=_policy_from_dict(data["policy"], stakes),
        behavior=behavior,
        rounds=rounds,
        mode=mode,
        seed=seed,
        horizon_cap=_at_least_one(data.get("horizon_cap", 50), "horizon_cap"),
    )


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    instance = scenario.instance
    stakes = instance.stakes()
    out: Dict[str, Any] = {
        "name": scenario.name,
        "players": [
            {
                "id": p.id,
                "type": str(p.type_),
                "stake": str(stakes[p.id]),
                "cost": str(p.cost),
            }
            for p in instance.players
        ],
        "policy": scenario.policy.to_dict(),
        "behavior": scenario.behavior,
        "tau_threshold": str(instance.tau_threshold),
        "value_function": _value_to_dict(instance.value_function),
        "budget": str(instance.budget),
        "rounds": scenario.rounds,
        "mode": scenario.mode,
        "horizon_cap": scenario.horizon_cap,
    }
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    return out


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_scenario(data, name=path)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def _base_players():
    return [
        Player(id=1, type_=Fraction(3)),
        Player(id=2, type_=Fraction(2)),
        Player(id=3, type_=Fraction(1)),
    ]


def _base_instance() -> Instance:
    return Instance.build(
        players=_base_players(),
        initial_stakes={1: 1, 2: 1, 3: 1},
        budget=1,
        tau_threshold=Fraction(1, 2),
        value_function=IdentityValue(),
    )


def builtin_scenario(name: str) -> Scenario:
    if name == "example1-myopic":
        return Scenario(
            name=name,
            instance=_base_instance(),
            policy=MuStar(),
            behavior="myopic",
            rounds=5,
            mode="expected",
            seed=None,
            horizon_cap=50,
        )
    if name == "example2-lookahead":
        return Scenario(
            name=name,
            instance=_base_instance(),
            policy=MuStar(),
            behavior="lookahead",
            rounds=10,
            mode="expected",
            seed=None,
            horizon_cap=50,
        )
    if name == "example3-muell":
        return Scenario(
            name=name,
            instance=_base_instance(),
            policy=MuEll(),
            behavior="myopic",
            rounds=10,
            mode="expected",
            seed=None,
            horizon_cap=50,
        )
    raise ScenarioError(
        f"unknown builtin scenario {name!r}; "
        "available: example1-myopic, example2-lookahead, example3-muell"
    )


BUILTIN_SCENARIOS = ("example1-myopic", "example2-lookahead", "example3-muell")
