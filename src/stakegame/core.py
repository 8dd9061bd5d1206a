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
from math import lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True, slots=True)
class Player:
    """A participant with a fixed capability (``type_`` >= 1) and per-round cost."""

    id: PlayerId
    type_: Fraction
    cost: Fraction = ZERO


# A stake profile maps player id -> token holdings (exact, >= 0).
StakeProfile = Mapping[PlayerId, Fraction]


def virtual_stake(alpha: Fraction, type_: Fraction, stake: Fraction) -> Fraction:
    """The interpolated selection weight ``alpha * type + (1 - alpha) * stake``."""
    return alpha * type_ + (1 - alpha) * stake


def virtual_stake_weights(
    alpha: Fraction, pairs: Sequence[Tuple[Fraction, Fraction]]
) -> Tuple[List[int], int]:
    """Each (type, stake) pair's :func:`virtual_stake` as an int, and 1 - alpha, on one scale.

    With alpha = a/d and ``lt`` and ``ls`` the lcms of the type and the
    stake denominators, every weight is multiplied by ``d * lt * ls``, a
    positive factor, so ratios and signs are kept.  The second value is the
    weight one unit of stake adds, ``(d - a) * lt * ls``.
    """
    lt = lcm(*[t.denominator for t, _ in pairs])
    ls = lcm(*[s.denominator for _, s in pairs])
    at, bs = alpha.numerator * ls, (alpha.denominator - alpha.numerator) * lt
    weights = [
        at * t.numerator * (lt // t.denominator) + bs * s.numerator * (ls // s.denominator)
        for t, s in pairs
    ]
    return weights, bs * ls


def check_virtual_stakes(least_total: int, weights: Iterable[int]) -> None:
    """Reject virtual stakes with a total of at most zero, then any negative one."""
    if least_total <= 0:
        raise ValueError("virtual stakes sum to zero; distribution undefined")
    if min(weights) < 0:
        raise ValueError("negative virtual stake; distribution undefined")


def virtual_stake_lottery(
    alpha: Fraction, players: Mapping[PlayerId, Tuple[Fraction, Fraction]]
) -> Dict[PlayerId, Fraction]:
    """id -> winning probability, each player's virtual stake over the total.

    ``players`` maps id -> (type, stake).  Raises ValueError when the total
    is not positive or a virtual stake is negative.
    """
    weights, _ = virtual_stake_weights(alpha, list(players.values()))
    total = sum(weights)
    check_virtual_stakes(total, weights)
    return {pid: Fraction(w, total) for pid, w in zip(players, weights)}


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
    """Token value ``slope * d + intercept``."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, d: int) -> Fraction:
        return self.slope * d + self.intercept


@dataclass(frozen=True)
class TableValue:
    """Token value from a table: ``values`` holds (level, value) pairs in level order."""

    values: Tuple[Tuple[int, Fraction], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[int, ScalarLike]) -> "TableValue":
        return TableValue(tuple(sorted((int(d), scalar(v)) for d, v in mapping.items())))

    def __call__(self, d: int) -> Fraction:
        for level, value in self.values:
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
    the Nakamoto index).  The budget is constant across rounds.  Player ids
    must be unique: the constructor raises ValueError on a repeated one.
    """

    players: Tuple[Player, ...]
    initial_stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    budget: Fraction
    tau_threshold: Fraction
    value_function: ValueFunction
    # id -> Player and id -> type order, built once.
    _by_id: Dict[PlayerId, Player] = field(init=False, repr=False, compare=False)
    _order: Dict[PlayerId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {p.id: p for p in self.players}
        if len(by_id) < len(self.players):
            raise ValueError("player ids are not unique")
        object.__setattr__(self, "_by_id", by_id)
        order = rank({pid: p.type_ for pid, p in by_id.items()}) if by_id else ()
        object.__setattr__(self, "_order", {pid: k for k, pid in enumerate(order)})

    @staticmethod
    def build(
        players: Sequence[Player],
        initial_stakes: Mapping[PlayerId, ScalarLike],
        budget: ScalarLike,
        tau_threshold: ScalarLike,
        value_function: ValueFunction,
    ) -> "Instance":
        """Raise ValueError unless the initial stakes name exactly the players."""
        stakes = tuple(sorted((pid, scalar(s)) for pid, s in initial_stakes.items()))
        instance = Instance(
            players=tuple(players),
            initial_stakes=stakes,
            budget=scalar(budget),
            tau_threshold=scalar(tau_threshold),
            value_function=value_function,
        )
        instance.check_profile(initial_stakes, "initial stake profile")
        return instance

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
        """id -> type, a fresh map on every call."""
        return {pid: p.type_ for pid, p in self._by_id.items()}

    def type_order(self) -> Mapping[PlayerId, int]:
        """Read-only id -> position by type descending, equal types by ascending id."""
        return MappingProxyType(self._order)

    def stakes(self) -> Dict[PlayerId, Fraction]:
        return dict(self.initial_stakes)

    def check_profile(self, stakes: StakeProfile, name: str = "stake profile") -> None:
        """Raise ValueError unless the profile stakes exactly this instance's players."""
        found = {
            "has no stake for players": self._by_id.keys() - stakes.keys(),
            "names unknown players": stakes.keys() - self._by_id.keys(),
        }
        problems = [f"{problem} {sorted(pids)}" for problem, pids in found.items() if pids]
        if problems:
            raise ValueError(f"{name} {' and '.join(problems)}")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One executed round: stakes, participants, index, value, winner, rewards.

    ``rewards`` lists only the players the round paid, as (id, reward) pairs
    in id order: empty when nobody was paid.
    """

    round: int
    stakes_before: Tuple[Tuple[PlayerId, Fraction], ...]
    participants: frozenset
    d: int
    v: Fraction
    winner: Optional[PlayerId]
    rewards: Tuple[Tuple[PlayerId, Fraction], ...]
    stakes_after: Tuple[Tuple[PlayerId, Fraction], ...]
