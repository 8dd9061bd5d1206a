"""Scenario files: UTF-8 JSON descriptions of an instance plus a run configuration.

Numbers may be written as rational strings ("3/2"), integers, or decimals;
decimals are converted exactly, so "0.25" means exactly 1/4.  Unknown fields
are rejected rather than ignored, which catches typos in option names.

Three scenarios are built in (the worked three-player setup with strictly
decreasing types and equal initial stakes).  Each is declared in this
module as a scenario file would spell it, a JSON-shaped dict, and read by
:func:`parse_scenario` with the same checks a file gets:

* ``example1-myopic``:    winner-take-all type-favoring policy, myopic play;
* ``example2-lookahead``: the same policy with planning players;
* ``example3-muell``:     the lookahead-simulating policy with myopic play.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import cache
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .core import (
    AffineValue,
    IdentityValue,
    Instance,
    Player,
    TableValue,
    scalar,
)
from .equilibrium import DEFAULT_HORIZON_CAP
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


def _require(
    mapping: Dict[str, Any], allowed: set, context: str, required: Tuple[str, ...] = ()
) -> None:
    """Reject fields outside ``allowed``, then the first of ``required`` left out."""
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"{context}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in mapping:
            raise ScenarioError(f"{context}: missing {key!r}")


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
    # int() truncates numbers (2.5 -> 2) and takes booleans (true -> 1);
    # only integral numbers are integers here
    if n is None or isinstance(value, bool) or (not isinstance(value, str) and n != value):
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


def _unique(pairs: Iterable[Tuple[Any, Any]], context: str) -> Dict[Any, Any]:
    """The (key, value) pairs as a dict; a key given twice raises, where dict() keeps the last."""
    read: Dict[Any, Any] = {}
    for key, value in pairs:
        if key in read:
            raise ScenarioError(f"{context} {key!r} is given twice")
        read[key] = value
    return read


def _value_table(values: Any, context: str) -> Tuple[Tuple[int, Fraction], ...]:
    """(level, value) pairs in level order, read from an object keyed by level."""
    owner, name = context.rsplit(": ", 1)  # the kind's context, and this field's name
    if not isinstance(values, dict):
        raise ScenarioError(f"{owner}: {name!r} must map level -> value")
    # " 1" and "1" are two keys of the object but spell one level
    return tuple(sorted(_unique(
        ((_integer(k, f"{owner}: level"), _number(v, f"{owner}: value of level {k}"))
         for k, v in values.items()),
        f"{owner}: level",
    ).items()))


# family -> kind -> (class, field -> reader).  The fields are the class's
# dataclass fields in field order, under the same names in the file; a field
# without a default is required.
_KINDS: Dict[str, Dict[str, Tuple[type, Dict[str, Callable[[Any, str], Any]]]]] = {
    "policy": {
        "mu_alpha": (MuAlpha, {"alpha": _unit_interval}),
        "mu_star": (MuStar, {"epsilon": _unit_interval}),
        "mu_all": (MuAll, {}),
        "mu_ell": (MuEll, {}),
        "fixed_winner": (FixedWinner, {"winner": _integer}),
    },
    "value_function": {
        "identity": (IdentityValue, {}),
        "affine": (AffineValue, {"slope": _number, "intercept": _number}),
        "table": (TableValue, {"values": _value_table}),
    },
}


def _from_dict(spec: Any, family: str) -> Any:
    """Read a policy or value function of ``family`` from its file spelling."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{family}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS[family]:
        raise ScenarioError(f"{family}: unknown kind {kind!r}")
    cls, readers = _KINDS[family][kind]
    context = f"{family} {kind}"
    required = tuple(f.name for f in fields(cls) if f.default is MISSING)
    _require(spec, {"kind", *readers}, context, required)
    return cls(**{
        name: read(spec[name], f"{context}: {name}")
        for name, read in readers.items() if name in spec
    })


# required fields in the order a missing one is reported, then the optional ones
_TOP_REQUIRED = ("players", "policy", "budget", "tau_threshold", "rounds")
_TOP_FIELDS = {*_TOP_REQUIRED, "name", "behavior", "value_function", "mode", "seed", "horizon_cap"}


def parse_scenario(data: Dict[str, Any], name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("top level must be an object")
    _require(data, _TOP_FIELDS, "scenario", _TOP_REQUIRED)

    players = []
    stakes = {}
    if not isinstance(data["players"], list) or not data["players"]:
        raise ScenarioError("players: expected a non-empty list")
    for idx, entry in enumerate(data["players"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"players[{idx}]: expected an object")
        context = f"players[{idx}]"
        _require(entry, {"id", "type", "stake", "cost"}, context, ("id", "type", "stake"))
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

    try:
        instance = Instance.build(
            players=players,
            initial_stakes=stakes,
            budget=_number(data["budget"], "budget"),
            tau_threshold=_number(data["tau_threshold"], "tau_threshold"),
            value_function=(
                _from_dict(data["value_function"], "value_function")
                if "value_function" in data else IdentityValue()
            ),
        )
    except ScenarioError:  # a field the file spells wrong, already named
        raise
    except ValueError as exc:  # a repeated player id
        raise ScenarioError(f"invalid instance: {exc}") from None
    report = validate_instance(instance)
    if not report.ok:
        raise ScenarioError("invalid instance: " + "; ".join(report.errors))
    policy = _from_dict(data["policy"], "policy")
    if isinstance(policy, FixedWinner) and policy.winner not in stakes:
        raise ScenarioError(f"policy fixed_winner: winner {policy.winner} is not a player id")

    return Scenario(
        name=str(data.get("name", name)),
        instance=instance,
        policy=policy,
        behavior=behavior,
        rounds=rounds,
        mode=mode,
        seed=seed,
        horizon_cap=_at_least_one(data.get("horizon_cap", DEFAULT_HORIZON_CAP), "horizon_cap"),
    )


def load_scenario(path: str) -> Scenario:
    """Read a scenario file: JSON text, so UTF-8 whatever the locale's codec.

    An object that repeats a key is rejected, not read as its last value.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=lambda pairs: _unique(pairs, f"{path}: key"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_scenario(data, name=path)


# The builtins, declared as a scenario file spells them and read by
# parse_scenario: each runs on the worked three-player setup, in expected
# mode, unseeded, at the default horizon cap.
_BASE = {
    "players": [
        {"id": 1, "type": 3, "stake": 1},
        {"id": 2, "type": 2, "stake": 1},
        {"id": 3, "type": 1, "stake": 1},
    ],
    "budget": 1,
    "tau_threshold": "1/2",
}
_BUILTINS = {
    "example1-myopic": {**_BASE, "policy": {"kind": "mu_star"}, "rounds": 5},
    "example2-lookahead": {
        **_BASE, "policy": {"kind": "mu_star"}, "behavior": "lookahead", "rounds": 10
    },
    "example3-muell": {**_BASE, "policy": {"kind": "mu_ell"}, "rounds": 10},
}

BUILTIN_SCENARIOS = tuple(_BUILTINS)


@cache
def builtin_scenario(name: str) -> Scenario:
    """The builtin ``name``, parsed on first use and shared after (a Scenario is immutable).

    A caller that reads the builtins on every call, as ``verify
    paper_tables`` does, so parses each once.
    """
    if name not in _BUILTINS:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {', '.join(BUILTIN_SCENARIOS)}"
        )
    return parse_scenario(_BUILTINS[name], name)
