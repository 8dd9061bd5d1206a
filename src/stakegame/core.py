"""Domain types and exact arithmetic for repeated participation games.

Players hold token stakes that grow through policy rewards.  Every quantity
(stake, type, budget, token value) is an exact :class:`fractions.Fraction`,
so equilibrium comparisons are decided exactly and simulation traces are
reproducible bit-for-bit across platforms.  No epsilon appears anywhere in
the equilibrium logic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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


class ScaledProfile:
    """Stake values held as int numerators ``nums`` (id -> int) over one denominator ``den`` > 0.

    The integer form that the suffix kernel, the recovery walks and the
    virtual-stake weighting work on.  It is not a stake map: the one way in
    from ``Fraction`` values is :func:`scaled_profile`, and the one step
    forward is :meth:`plus`.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Dict[PlayerId, int], den: int):
        self.nums = nums
        self.den = den

    def plus(self, paid: Dict[PlayerId, int], paid_den: int) -> "ScaledProfile":
        """These values with ``paid[pid] / paid_den`` added to each paid id, in lowest terms.

        ``paid`` is a policy's integer ``rewards`` rule for one round.  One
        rescale puts the values and the rewards over the lcm of the two
        denominators, so the denominator grows by at most the factor the
        rewards need, and one gcd brings the sum back to lowest terms: equal
        values then give equal ints.  The ids keep their order.  No
        ``Fraction`` is built.
        """
        den, nums = self.den, self.nums
        shared = gcd(den, paid_den)
        grow, lift = paid_den // shared, den // shared
        den *= grow
        # a copy: the walks of one solve share their start and every earlier step
        nums = dict(nums) if grow == 1 else {pid: s * grow for pid, s in nums.items()}
        for pid, reward in paid.items():
            nums[pid] += reward * lift
        common = gcd(den, *nums.values())
        if common > 1:
            den //= common
            nums = {pid: s // common for pid, s in nums.items()}
        return ScaledProfile(nums, den)


def scaled_profile(values: StakeProfile | ScaledProfile) -> ScaledProfile:
    """The values as ints over their least common denominator.

    The one conversion from ``Fraction`` values to the integer form that the
    suffix kernel and the virtual-stake weighting work on; a
    :class:`ScaledProfile` passes through as it is.  Values must be ints or
    ``Fraction``s (anything else raises ``TypeError``).  With the least
    denominator the ints have no common factor with it, so equal maps give
    equal ints.
    """
    if isinstance(values, ScaledProfile):
        return values
    try:
        den = lcm(*[x.denominator for x in values.values()])
    except AttributeError:
        raise TypeError("stakes must be int or Fraction") from None
    return ScaledProfile(
        {pid: x.numerator * (den // x.denominator) for pid, x in values.items()}, den
    )


def virtual_stake(alpha: Fraction, type_: Fraction, stake: Fraction) -> Fraction:
    """The interpolated selection weight ``alpha * type + (1 - alpha) * stake``."""
    return alpha * type_ + (1 - alpha) * stake


def virtual_stake_weights(
    alpha: Fraction,
    types: StakeProfile | ScaledProfile,
    stakes: StakeProfile | ScaledProfile,
    ids: Iterable[PlayerId],
) -> Tuple[List[int], int, int]:
    """Each id's :func:`virtual_stake` as an int, their total, and 1 - alpha, on one scale.

    Types and stakes come through :func:`scaled_profile`, as ints over
    denominators ``lt`` and ``ls``.  With alpha = a/d every weight is
    multiplied by ``d * lt * ls``, a positive factor, so ratios and signs are
    kept.  The third value is the weight one unit of stake adds,
    ``(d - a) * lt * ls``.

    The one check of the virtual stakes: raises ValueError when their total
    is at most zero, and then when any of them is negative.
    """
    t, s = scaled_profile(types), scaled_profile(stakes)
    at, bs = alpha.numerator * s.den, (alpha.denominator - alpha.numerator) * t.den
    t_nums, s_nums = t.nums, s.nums
    weights = [at * t_nums[pid] + bs * s_nums[pid] for pid in ids]
    total = sum(weights)
    if total <= 0:
        raise ValueError("virtual stakes sum to zero; distribution undefined")
    if min(weights) < 0:
        raise ValueError("negative virtual stake; distribution undefined")
    return weights, total, bs * s.den


def virtual_stake_lottery(
    alpha: Fraction,
    types: StakeProfile | ScaledProfile,
    stakes: StakeProfile | ScaledProfile,
    ids: Collection[PlayerId],
) -> Dict[PlayerId, Fraction]:
    """id -> winning probability for each of ``ids``, its virtual stake over their total.

    Raises ValueError, by :func:`virtual_stake_weights`, when the total is not
    positive or a virtual stake is negative.
    """
    weights, total, _ = virtual_stake_weights(alpha, types, stakes, ids)
    return {pid: Fraction(w, total) for pid, w in zip(ids, weights)}


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

    Besides its fields, an instance holds a table of token values by level,
    read through :meth:`token_values` and out of equality, hash and
    ``repr``.  ``dataclasses.replace`` starts an empty one, since it may
    change the value function; :meth:`with_players`, the same game with
    another player set (a sybil split's game), shares this one, since the
    value function is the same.
    """

    players: Tuple[Player, ...]
    initial_stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    budget: Fraction
    tau_threshold: Fraction
    value_function: ValueFunction
    # id -> Player and id -> type order, built once.
    _by_id: Dict[PlayerId, Player] = field(init=False, repr=False, compare=False)
    _order: Dict[PlayerId, int] = field(init=False, repr=False, compare=False)
    # The token-value table at scale 1 with no level, fresh for each instance.
    _values: List[int] = field(
        default_factory=lambda: [1], init=False, repr=False, compare=False
    )

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

    def with_players(
        self, players: Tuple[Player, ...], initial_stakes: Tuple[Tuple[PlayerId, Fraction], ...]
    ) -> "Instance":
        """This game with another player set, sharing this instance's token-value table.

        The constructor builds it from the players, the stakes and this
        instance's budget, tau and value function, as for any instance:
        player ids must be unique, and the type order is built afresh.  The
        table is then handed over, so :meth:`token_values` on either
        instance may add levels to it, or grow its scale; both read the same
        values.
        """
        derived = Instance(
            players, initial_stakes, self.budget, self.tau_threshold, self.value_function
        )
        object.__setattr__(derived, "_values", self._values)
        return derived

    def token_values(self, levels: Sequence[int]) -> Tuple[List[int], int]:
        """The token values v(d) of ``levels`` (each >= 1) as ints over one ``scale``.

        Returns ``(ints, scale)``: ``ints[k] / scale`` is v(levels[k]),
        levels in any order, repeats allowed.  They are read from the
        instance's table, an int list with entry 0 the scale and entry d the
        value v(d) times the scale, holding levels 1..m.  A level past m
        fills the table up to the highest level asked for, lowest first, and
        each value is evaluated before the table changes: the value function
        is called once per level and instance, and one that raises (a value
        table lacking the level) raises for the lowest level it lacks, with
        the levels below it filled and the table as those left it.  A new
        value whose denominator does not divide the scale grows the scale,
        and every entry with it, so the scale is a common multiple of the
        values' denominators, not their lcm.
        """
        table = self._values
        try:
            return [table[level] for level in levels], table[0]
        except IndexError:
            pass
        for level in range(len(table), max(levels) + 1):
            x = self.value_function(level)
            grow = x.denominator // gcd(table[0], x.denominator)
            if grow > 1:
                table[:] = [t * grow for t in table]
            table.append(x.numerator * (table[0] // x.denominator))
        return [table[level] for level in levels], table[0]

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
