"""Domain types and exact arithmetic for repeated participation games.

Players hold token stakes that grow through policy rewards.  Every quantity
(stake, type, budget, token value) is an exact :class:`fractions.Fraction`,
so equilibrium comparisons are decided exactly and simulation traces are
reproducible bit-for-bit across platforms.  No epsilon appears anywhere in
the equilibrium logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

ScalarLike = Union[int, str, float, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value: ScalarLike) -> Fraction:
    """Convert a number to an exact Fraction.

    Accepts ints, Fractions, and strings like ``"3/2"`` or ``"0.25"``
    (decimal strings convert exactly).  Floats are converted to their exact
    binary value; prefer rational strings in configuration files.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (Fraction, int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot convert {value!r} to a scalar")


PlayerId = int


@dataclass(frozen=True)
class Player:
    """A participant with a fixed capability (``type_`` >= 1) and per-round cost."""

    id: PlayerId
    type_: Fraction
    cost: Fraction = ZERO


# A stake profile maps player id -> token holdings (exact, >= 0).
StakeProfile = Mapping[PlayerId, Fraction]


def rank(stakes: StakeProfile) -> Tuple[PlayerId, ...]:
    """Player ids in weakly decreasing stake order, equal stakes by ascending id.

    The result is a permutation of the profile's ids; rank 1 is the largest
    stake.  Deterministic: re-ranking the same profile yields the same order.
    """
    if not stakes:
        raise ValueError("cannot rank an empty stake profile")
    # A stable descending sort keeps the ascending-id order among equal stakes.
    return tuple(sorted(sorted(stakes), key=stakes.__getitem__, reverse=True))


@dataclass(frozen=True)
class IdentityValue:
    """Token value equal to the decentralization index itself."""

    def __call__(self, d: int) -> Fraction:
        return Fraction(d)


@dataclass(frozen=True)
class AffineValue:
    """Token value ``slope * d + intercept`` with slope >= 0."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, d: int) -> Fraction:
        return self.slope * d + self.intercept


@dataclass(frozen=True)
class TableValue:
    """Token value from an explicit table over decentralization levels."""

    table: Tuple[Tuple[int, Fraction], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[int, ScalarLike]) -> "TableValue":
        return TableValue(tuple(sorted((int(d), scalar(v)) for d, v in mapping.items())))

    def __call__(self, d: int) -> Fraction:
        for level, value in self.table:
            if level == d:
                return value
        raise ValueError(f"value table has no entry for decentralization {d}")


# PEP 604 unions of package classes: typing.Union would keep each class (and
# so every copy of its module, were the package imported afresh) alive in
# typing's cache.
ValueFunction = IdentityValue | AffineValue | TableValue


@dataclass(frozen=True)
class Instance:
    """Immutable game setup: players, initial stakes, budget, value function.

    ``tau_threshold`` parameterizes the decentralization index (tau = 1/2 is
    the Nakamoto index).  The budget is constant across rounds.
    """

    players: Tuple[Player, ...]
    initial_stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    budget: Fraction
    tau_threshold: Fraction
    value_function: ValueFunction
    # id -> Player (first occurrence wins) and id -> type, built once.
    _by_id: Dict[PlayerId, Player] = field(init=False, repr=False, compare=False)
    _types: Dict[PlayerId, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: Dict[PlayerId, Player] = {}
        for p in self.players:
            by_id.setdefault(p.id, p)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_types", {pid: p.type_ for pid, p in by_id.items()})

    @staticmethod
    def build(
        players: Sequence[Player],
        initial_stakes: Mapping[PlayerId, ScalarLike],
        budget: ScalarLike,
        tau_threshold: ScalarLike,
        value_function: ValueFunction,
    ) -> "Instance":
        stakes = tuple(sorted((pid, scalar(s)) for pid, s in initial_stakes.items()))
        return Instance(
            players=tuple(players),
            initial_stakes=stakes,
            budget=scalar(budget),
            tau_threshold=scalar(tau_threshold),
            value_function=value_function,
        )

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def ids(self) -> Tuple[PlayerId, ...]:
        return tuple(p.id for p in self.players)

    def player(self, pid: PlayerId) -> Player:
        try:
            return self._by_id[pid]
        except KeyError:
            raise KeyError(f"no player with id {pid}") from None

    def types(self) -> Dict[PlayerId, Fraction]:
        """id -> type, one map shared by every call: read it, do not change it."""
        return self._types

    def stakes(self) -> Dict[PlayerId, Fraction]:
        return dict(self.initial_stakes)


@dataclass(frozen=True)
class RoundRecord:
    """One executed round: stakes, participants, index, value, winner, rewards."""

    round: int
    stakes_before: Tuple[Tuple[PlayerId, Fraction], ...]
    participants: frozenset
    d: int
    v: Fraction
    winner: Optional[PlayerId]
    rewards: Tuple[Tuple[PlayerId, Fraction], ...]
    stakes_after: Tuple[Tuple[PlayerId, Fraction], ...]
